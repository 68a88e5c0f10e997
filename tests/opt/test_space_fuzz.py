"""Fuzz: random space assignments are invisible to semantics.

Spaces are descriptive (see :mod:`repro.mem.spaces`): re-homing any
alloc'd block into any space must leave the verifier clean (the
assignment moves Alloc and bindings together), compute the same values,
and keep the per-space peaks of all three executor modes (and of
``estimate_peak``, a dry run) in exact agreement.  The corpus is the
fusion generator's random pipelines with every block's space drawn at
random, under both compile presets.
"""

import numpy as np
import pytest

from repro.analysis import verify_fun
from repro.compiler import compile_fun
from repro.ir import ast as A
from repro.mem.exec import MemExecutor
from repro.mem.memir import iter_stmts
from repro.mem.spaces import SPACES, assign_space
from repro.reuse import estimate_peak

N = 16


def _alloc_names(fun):
    return [
        s.pattern[0].name
        for s in iter_stmts(fun.body)
        if isinstance(s.exp, A.Alloc)
    ]


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


def _scatter_spaces(fun, rng) -> int:
    spaces = sorted(SPACES)
    moved = 0
    for mem in _alloc_names(fun):
        moved += assign_space(fun, mem, spaces[rng.randint(len(spaces))])
    return moved


def _check(fun, inputs, dry_inputs, expected):
    report = verify_fun(fun)
    assert report.ok(), [str(d) for d in report.diagnostics]

    ex_i = MemExecutor(fun, vectorize=False)
    ex_i.run(**{k: np.copy(v) if hasattr(v, "copy") else v
                for k, v in inputs.items()})
    ex_v = MemExecutor(fun)
    vals, _ = ex_v.run(**{k: np.copy(v) if hasattr(v, "copy") else v
                          for k, v in inputs.items()})
    _, dry = MemExecutor(fun, mode="dry").run(**dry_inputs)
    est = estimate_peak(fun, inputs)

    got = ex_v.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
    assert np.allclose(got, expected)
    four = [
        _nonzero(ex_i.stats.space_peak_bytes),
        _nonzero(ex_v.stats.space_peak_bytes),
        _nonzero(dry.space_peak_bytes),
        _nonzero(est.space_peaks),
    ]
    assert four[0] == four[1] == four[2] == four[3], four


@pytest.mark.parametrize("seed", range(10))
def test_random_spaces_two_stage(seed, gen_pipeline):
    rng = np.random.RandomState(seed)
    fun = gen_pipeline(rng)
    compiled = compile_fun(
        fun, pipeline="full" if seed % 2 else "nosc", cache=False
    )
    x = rng.randn(N).astype(np.float32)
    ex = MemExecutor(compiled.fun)
    vals, _ = ex.run(n=N, xs=x.copy())
    expected = np.copy(ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})])

    _scatter_spaces(compiled.fun, rng)
    _check(compiled.fun, {"n": N, "xs": x}, {"n": N}, expected)


@pytest.mark.parametrize("seed", range(6))
def test_random_spaces_mapnest(seed, gen_mapnest_pipeline):
    rng = np.random.RandomState(100 + seed)
    fun = gen_mapnest_pipeline(rng)
    compiled = compile_fun(
        fun, pipeline="full" if seed % 2 else "nofuse", cache=False
    )
    x = rng.randn(N * N).astype(np.float32)
    ex = MemExecutor(compiled.fun)
    vals, _ = ex.run(n=N, xs=x.copy())
    expected = np.copy(ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})])

    _scatter_spaces(compiled.fun, rng)
    _check(compiled.fun, {"n": N, "xs": x}, {"n": N}, expected)
