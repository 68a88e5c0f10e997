"""Optimisation-level differential: the guard for ``restrict`` and for
the vectoriser.

The kernel ABI promises the C compiler that ``ia``, ``fa``, ``bufs`` and
``C`` are four distinct allocations, and the production flags let the
vectoriser version loops behind a run-time overlap test.  A promise the
emitter cannot keep, or an optimisation that reorders arithmetic, shows
as exactly one thing: the optimised build and an ``-O0`` build of the
same source disagree.  So every kernel of the seven benchmarks and of
the native corpus is built both ways, and every launch's counter block
and every buffer of the run must be byte-equal.

A third build adds UndefinedBehaviorSanitizer (``-fsanitize=undefined
-fno-sanitize-recover=all``): the first undefined operation a kernel
performs -- an out-of-bounds shift, a signed overflow, a misaligned
load -- aborts the process with a report.  Those builds run in a child
process per benchmark (``python -m tests.backend.test_native_optlevel
<name>``), so a finding fails one test, not the session; the child
holds them to the production build byte for byte as well.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.backend.build as build
import repro.backend.engine as engine
from repro import FunBuilder, f32
from repro.backend import NativeEngine
from repro.backend.cemit import KernelSpec
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.lmad import IndexFn, lmad
from repro.mem.exec import MemExecutor
from repro.mem.memir import MemBinding
from repro.symbolic import Var
from tests.backend.test_native_corpus import SEEDS, _inputs
from tests.mem.test_vectorize import LOWERING_CASES
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = [pytest.mark.gate, pytest.mark.native]

BENCHMARKS = all_benchmarks()

PRODUCTION = list(build.CC_FLAGS)
O0 = ["-O0"] + PRODUCTION[1:]
UBSAN = PRODUCTION + ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
ROOT = Path(__file__).resolve().parents[2]


def _native_run(fun, inputs, flags, monkeypatch):
    """One native run with kernels built under ``flags``: the counter
    block of every launch, every buffer at exit, the digests used."""
    blocks = []
    fold = engine.distribute

    def keep(stats, sites, counters):
        blocks.append(counters.tobytes())
        fold(stats, sites, counters)

    with monkeypatch.context() as mp:
        mp.setattr(build, "CC_FLAGS", flags)
        mp.setattr(engine, "distribute", keep)
        eng = NativeEngine()
        ex = MemExecutor(fun, native=eng)
        _, stats = ex.run(**{
            k: (v.copy() if hasattr(v, "copy") else v)
            for k, v in inputs.items()
        })
    bufs = {
        name: buf.tobytes() for name, buf in ex.mem.items()
        if isinstance(buf, np.ndarray)
    }
    digests = {
        s.digest for s in eng.plans.values() if isinstance(s, KernelSpec)
    }
    assert stats.native_launches == len(blocks)
    return blocks, bufs, digests


def _assert_levels_agree(fun, inputs, monkeypatch, flags=O0):
    blocks, bufs, digests = _native_run(fun, inputs, PRODUCTION, monkeypatch)
    blocks0, bufs0, digests0 = _native_run(fun, inputs, flags, monkeypatch)
    assert blocks == blocks0
    assert bufs == bufs0
    # Same sources, two cache entries each: ``flags`` really was a
    # second build.
    assert len(digests) == len(digests0) and not digests & digests0
    return bufs, len(blocks)


def _corpus():
    """The native corpus: (compiled function, inputs) pairs."""
    for seed in SEEDS:
        fun = compile_fun(
            random_two_stage_pipeline(np.random.RandomState(seed)),
            pipeline="full",
        ).fun
        yield fun, _inputs(seed)
    for case in LOWERING_CASES:
        fun, inputs = case()
        for preset in ("unopt", "full"):
            yield compile_fun(fun, pipeline=preset).fun, inputs


def _programs(case):
    """A benchmark under both presets, or (``corpus``) the corpus."""
    if case == "corpus":
        yield from _corpus()
        return
    module = BENCHMARKS[case]
    inputs = module.inputs_for(*module.TEST_DATASETS["small"])
    for preset in ("full", "nosc"):
        yield compile_fun(module.build(), pipeline=preset).fun, inputs


@pytest.mark.parametrize("preset", ["full", "nosc"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_kernels_agree_across_optimisation_levels(
    name, preset, monkeypatch
):
    module = BENCHMARKS[name]
    fun = compile_fun(module.build(), pipeline=preset).fun
    inputs = module.inputs_for(*module.TEST_DATASETS["small"])
    _, launches = _assert_levels_agree(fun, inputs, monkeypatch)
    assert launches or name == "locvolcalib"  # its one map is not lowered


def test_corpus_kernels_agree_across_optimisation_levels(monkeypatch):
    launches = sum(
        _assert_levels_agree(fun, inputs, monkeypatch)[1]
        for fun, inputs in _corpus()
    )
    assert launches >= 10


@pytest.mark.parametrize("case", sorted(BENCHMARKS) + ["corpus"])
def test_ubsan_build_finds_nothing_and_agrees(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.backend.test_native_optlevel", case],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]


@pytest.mark.parametrize("shift", [0, 1])
def test_aliasing_buffer_slots_keep_sequential_semantics(shift, monkeypatch):
    """``xs`` and the map's destination are two buffer slots of one
    block: thread ``i`` reads ``A[i]`` and writes ``A[i + shift]``.  At
    ``shift == 0`` that is the in-place update short-circuiting makes;
    at ``shift == 1`` every thread reads what the one before it wrote (no
    pass would re-home that, so the binding is set by hand), and a
    compiler told that ``bufs[i]`` and ``bufs[j]`` cannot alias would
    vectorise the recurrence away."""
    n = Var("n")
    b = FunBuilder("inplace")
    b.size_param("n")
    A = b.param("A", f32(n + 1))
    xs = b.lmad_slice(A, lmad(0, [(n, 1)]), name="xs")
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("+", mp.index(xs, [mp.idx]), 1.0))
    (ys,) = mp.end()
    b.returns(b.update_lmad(A, lmad(shift, [(n, 1)]), ys, name="A2"))
    fun = compile_fun(b.build(), pipeline="unopt").fun
    (map_stmt,) = [s for s in fun.body.stmts if ys in s.names]
    map_stmt.pattern[0].mem = MemBinding(
        "A_mem", IndexFn((lmad(shift, [(n, 1)]),))
    )

    inputs = {"n": 64, "A": np.zeros(65, dtype=np.float32)}
    bufs, launches = _assert_levels_agree(fun, inputs, monkeypatch)
    assert launches == 1
    ex = MemExecutor(fun, vectorize=False)
    ex.run(**{"n": 64, "A": inputs["A"].copy()})
    assert bufs["A_mem"] == ex.mem["A_mem"].tobytes()
    want = np.zeros(65, dtype=np.float32)
    want[shift:shift + 64] = 1 if shift == 0 else np.arange(1, 65)
    assert np.array_equal(ex.mem["A_mem"], want)


if __name__ == "__main__":
    # The child of test_ubsan_build_finds_nothing_and_agrees: a UBSan
    # finding aborts this process, a disagreement fails an assertion.
    case = sys.argv[1]
    with pytest.MonkeyPatch.context() as mp:
        launches = sum(
            _assert_levels_agree(fun, inputs, mp, flags=UBSAN)[1]
            for fun, inputs in _programs(case)
        )
    assert launches or case == "locvolcalib"  # its one map is not lowered
