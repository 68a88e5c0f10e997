"""Fuzz: every accountant agrees on what the cost model prices.

A generated program must verify clean, compute the same values on every
tier, and keep every accountant in exact agreement: each kernel's
kernel-local traffic (bytes that touched a block allocated inside an
outermost map) across the interpreted, vectorized, native and unsampled
dry runs, and the total peak of those runs and of ``estimate_peak``.
The corpus is the fusion generator's random pipelines under both
compile presets; the mapnest corpus allocates inside its kernels.
"""

import numpy as np
import pytest

from repro.analysis import verify_fun
from repro.backend import NativeEngine
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.reuse import estimate_peak
from tests.mem import local_traffic

N = 16


def _check(fun, inputs, dry_inputs, expected, native=False):
    report = verify_fun(fun)
    assert report.ok(), [str(d) for d in report.diagnostics]

    tiers = {"interp": dict(vectorize=False), "vec": {}}
    if native:
        tiers["native"] = dict(native=NativeEngine())
    runs = {}
    for tier, kw in tiers.items():
        ex = MemExecutor(fun, **kw)
        vals, st = ex.run(**{k: np.copy(v) if hasattr(v, "copy") else v
                             for k, v in inputs.items()})
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        assert np.allclose(got, expected), tier
        runs[tier] = (local_traffic(st), st.peak_bytes)
    _, dry = MemExecutor(fun, mode="dry").run(**dry_inputs)
    runs["dry"] = (local_traffic(dry), dry.peak_bytes)
    assert len(set(runs.values())) == 1, runs
    assert dry.peak_bytes == estimate_peak(fun, inputs).peak_bytes


#: corpus -> (generator fixture, first seed, non-``full`` preset, len(xs))
CORPORA = {
    "two_stage": ("gen_pipeline", 0, "nosc", N),
    "mapnest": ("gen_mapnest_pipeline", 100, "nofuse", N * N),
}
SEEDS = {"two_stage": range(10), "mapnest": range(6)}


def _check_generated(request, corpus, seed, native=False):
    """Compile one generated program under ``full`` (odd seeds) or the
    corpus's other preset, run it for the expected values, and check."""
    fixture, first, other, size = CORPORA[corpus]
    rng = np.random.RandomState(first + seed)
    fun = request.getfixturevalue(fixture)(rng)
    compiled = compile_fun(
        fun, pipeline="full" if seed % 2 else other, cache=False
    )
    x = rng.randn(size).astype(np.float32)
    ex = MemExecutor(compiled.fun)
    vals, _ = ex.run(n=N, xs=x.copy())
    expected = np.copy(ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})])
    _check(compiled.fun, {"n": N, "xs": x}, {"n": N}, expected, native)


@pytest.mark.parametrize("seed", SEEDS["two_stage"])
def test_random_spaces_two_stage(seed, request):
    _check_generated(request, "two_stage", seed)


@pytest.mark.parametrize("seed", SEEDS["mapnest"])
def test_random_spaces_mapnest(seed, request):
    _check_generated(request, "mapnest", seed)


@pytest.mark.native
@pytest.mark.parametrize(
    "corpus,seed", [(c, s) for c, seeds in SEEDS.items() for s in seeds]
)
def test_random_spaces_native(corpus, seed, request):
    """Both corpora again with the C tier's local counter slots."""
    _check_generated(request, corpus, seed, native=True)
