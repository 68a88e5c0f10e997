"""Footprint accounting: every peak measurement must agree exactly.

The lifetime model lives once, in ``MemExecutor``, but it is exercised
three ways -- per-element interpretation, the vectorized engine's
``width * size`` buffers, and dry mode's scale-one-thread arithmetic --
and ``estimate_peak`` is a dry run fed either real arrays or bare shape
variables.  Nothing short of exact equality keeps them honest.  The
reduction test pins the paper-level claim: reuse shrinks the peak on
most benchmarks, with the block-recurrence ones (NW, LUD) saving at
least a quarter.
"""

import numpy as np

import pytest

from repro.bench.__main__ import PERF_DATASETS
from repro.bench.harness import measure_footprint
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.mem.memir import iter_stmts
from repro.pipeline import PRESETS
from repro.reuse import estimate_peak
from tests.mem import traffic_signature

BENCHMARKS = all_benchmarks()


def _fresh(inp):
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_peak_agreement_across_tiers_and_estimator(name):
    module = BENCHMARKS[name]
    args = module.TEST_DATASETS["small"]
    # All six presets (the harness's paper-table pair is ``nosc``/``full``).
    variants = [
        compile_fun(module.build(), pipeline=preset) for preset in PRESETS
    ]
    for compiled in variants:
        inp = module.inputs_for(*args)
        ex_i = MemExecutor(compiled.fun, vectorize=False)
        ex_i.run(**_fresh(inp))
        ex_v = MemExecutor(compiled.fun)
        ex_v.run(**_fresh(inp))
        _, dry = MemExecutor(compiled.fun, mode="dry").run(
            **module.dry_inputs_for(*args)
        )
        est = estimate_peak(compiled.fun, inp)
        # Real arrays contribute their shapes only: the same estimate
        # comes out of the bare shape variables.
        assert est == estimate_peak(
            compiled.fun, module.dry_inputs_for(*args)
        ), name
        assert (
            ex_i.stats.peak_bytes
            == ex_v.stats.peak_bytes
            == dry.peak_bytes
            == est.peak_bytes
        ), (name, ex_i.stats.peak_bytes, ex_v.stats.peak_bytes,
            dry.peak_bytes, est.peak_bytes)
        # The estimator's allocation totals are exact too, not just the
        # high-water mark.
        assert est.alloc_bytes == ex_i.stats.alloc_bytes
        assert est.alloc_count == ex_i.stats.alloc_count


def test_footprint_drops_on_most_benchmarks():
    """Peak memory improves on most benchmarks, by either mechanism:
    coalescing shrinks the optimized pipeline's own allocations below
    their naive sum, or short-circuiting eliminates the buffers outright
    (NW's widened-slice commits leave it with *zero* intermediate
    allocations, so its within-pipeline coalesce saving is vacuously 0
    while its peak drops to the parameters alone)."""
    reduced = []
    savings = {}
    for name, module in BENCHMARKS.items():
        fp = measure_footprint(module, PERF_DATASETS[name])
        opt, unopt = fp["opt"], fp["unopt"]
        alloc_shed = (
            1.0 - opt["alloc_bytes"] / unopt["alloc_bytes"]
            if unopt["alloc_bytes"]
            else 0.0
        )
        savings[name] = max(opt["saving"], alloc_shed)
        if (
            opt["peak_bytes"] < opt["naive_bytes"]
            or opt["peak_bytes"] < unopt["peak_bytes"]
        ):
            reduced.append(name)
    assert len(reduced) >= 4, (reduced, savings)
    assert max(savings["nw"], savings["lud"]) >= 0.25, savings


def test_frees_are_deletable_annotations():
    """Stripping every ``mem_frees`` must not change what runs -- only
    the high-water mark (which can then only go up).  LUD's unoptimized
    pipeline is the one whose peak lands between two host-level
    statements, so the strict inequality is observable there."""
    module = BENCHMARKS["lud"]
    args = PERF_DATASETS["lud"]
    inp = module.inputs_for(*args)

    annotated = compile_fun(module.build(), pipeline="nosc")
    # cache=False: this compile's IR is mutated below, and the program
    # cache would otherwise hand back the same (shared) CompiledFun.
    stripped = compile_fun(module.build(), pipeline="nosc", cache=False)
    for s in iter_stmts(stripped.fun.body):
        s.mem_frees = ()

    ex_a = MemExecutor(annotated.fun)
    vals_a, _ = ex_a.run(**_fresh(inp))
    ex_s = MemExecutor(stripped.fun)
    vals_s, _ = ex_s.run(**_fresh(inp))
    for a, b in zip(vals_a, vals_s):
        assert np.array_equal(
            ex_a.mem[a.mem][a.ixfn.gather_offsets({})],
            ex_s.mem[b.mem][b.ixfn.gather_offsets({})],
        )
    assert traffic_signature(ex_a.stats) == traffic_signature(ex_s.stats)
    assert ex_s.stats.peak_bytes > ex_a.stats.peak_bytes
