"""The fusion corpus, replayed through the native tier.

The 30-seed random two-stage pipelines from ``tests/opt`` exercise the
emitter over a much wider space of scalar expressions and LMAD read
patterns (reflected indices, double read sites) than the hand-written
benchmarks.  Every seed must be bit-identical between the native tier
and the interpreter; the seeds whose scalar code avoids
``min``/``max`` over two scalar kinds (``repro.ir.scalar``'s C column
does not cover those yet, so the emitter declines them and the
vectorized tier serves the launch) must actually lower to C.

So must the hand-built cases of ``tests/mem/test_vectorize.py`` that
reach lowerings neither the corpus nor a benchmark does (an in-kernel
triplet-slice update, a composed index function as a kernel operand,
comparison and logical operators).
"""

import numpy as np
import pytest

from repro.backend import NativeEngine, native_enabled
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from tests.mem.test_vectorize import LOWERING_CASES, uniform_if_array_case
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = pytest.mark.skipif(
    not native_enabled(), reason="no C compiler available"
)

N = 33
SEEDS = range(30)


def _inputs(seed):
    data = np.random.RandomState(1000 + seed)
    return {"n": N, "xs": data.randn(N).astype(np.float32)}


def _run(fun, seed, inputs=None, **kw):
    ex = MemExecutor(fun, **kw)
    vals, stats = ex.run(**(_inputs(seed) if inputs is None else inputs))
    outs = [
        np.asarray(ex.mem[v.mem][v.ixfn.gather_offsets({})]) for v in vals
    ]
    return outs, stats


def _native_matches_interpreter(fun, what, inputs=None):
    outs_n, st_n = _run(fun, what, inputs, native=NativeEngine())
    outs_i, st_i = _run(fun, what, inputs, vectorize=False)
    for a, b in zip(outs_n, outs_i):
        assert np.array_equal(a, b), what
    assert st_n.signature() == st_i.signature(), what
    assert st_n.peak_bytes == st_i.peak_bytes, what
    return st_n


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_native_matches_interpreter(seed):
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(seed)),
        pipeline="full",
    ).fun
    _native_matches_interpreter(fun, seed)


@pytest.mark.parametrize("case", LOWERING_CASES)
def test_lowering_case_native_matches_interpreter(case):
    fun, inputs = case()
    for preset in ("unopt", "full"):
        stats = _native_matches_interpreter(
            compile_fun(fun, pipeline=preset).fun, case.__name__, inputs
        )
        # The emitter has no lowering for an array-valued `if`: that one
        # launch is served by the vectorized tier.
        lowered = case is not uniform_if_array_case
        assert stats.native_launches == lowered
        assert stats.vec_launches == (not lowered)


def test_corpus_coverage():
    """Every seed either lowers fully or falls back for the one
    documented reason; a fixed-seed corpus lowers deterministically."""
    lowered = 0
    for seed in SEEDS:
        fun = compile_fun(
            random_two_stage_pipeline(np.random.RandomState(seed)),
            pipeline="full",
        ).fun
        _, stats = _run(fun, seed, native=NativeEngine())
        assert stats.native_launches or stats.vec_launches, seed
        if stats.native_launches and not stats.vec_launches:
            lowered += 1
    assert lowered >= 5, lowered
