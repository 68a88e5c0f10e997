"""Integration tests for all seven benchmark programs.

For each benchmark, at a scaled-down dataset:

1. the reference interpreter agrees with the NumPy reference
   implementation (the IR program is a correct algorithm);
2. both memory pipelines execute to the same values (the harness's own
   ``validate``);
3. dry-run traffic equals real-run traffic (the paper-scale measurements
   are trustworthy);
4. the expected short-circuiting opportunities are found, and the
   optimized program moves strictly fewer bytes.
"""

import numpy as np
import pytest

from repro.bench.harness import compile_both, validate, _reference_of
from repro.bench.programs import all_benchmarks
from repro.ir import run_fun
from repro.mem.exec import MemExecutor

BENCH = all_benchmarks()

#: Expected committed short-circuits (+reuses) per benchmark.  nw's two
#: extra commits are widened-slice recoveries and lud's ninth is a
#: cross-iteration proof -- all decided by the polyhedral fallback tier.
EXPECTED_SC = {
    # The staged fusion producers (README "Kernel fusion") add their own
    # short-circuit sites on top of each benchmark's classic kernels.
    "nw": 6,
    "lud": 15,
    "hotspot": 8,
    "lbm": 2,
    "optionpricing": 2,
    "locvolcalib": 3,
    "nn": 0,  # NN's win is the dead-copy reuse, counted separately
}
EXPECTED_REUSE = {"nn": 1}


@pytest.fixture(scope="module")
def compiled():
    return {name: compile_both(mod) for name, mod in BENCH.items()}


@pytest.mark.parametrize("name", sorted(BENCH))
def test_interpreter_matches_numpy_reference(name):
    mod = BENCH[name]
    args = mod.TEST_DATASETS["tiny"]
    inp = mod.inputs_for(*args)
    expected = _reference_of(mod, args, inp)
    fun = mod.build()
    outs = run_fun(
        fun, **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}
    )
    for got, exp in zip(outs, expected):
        assert np.allclose(
            np.asarray(got, dtype=np.float64),
            np.asarray(exp, dtype=np.float64),
            rtol=1e-3,
            atol=1e-3,
        ), name


@pytest.mark.parametrize("name", sorted(BENCH))
def test_both_pipelines_validate(name, compiled):
    assert validate(BENCH[name], "small", compiled[name]), name


@pytest.mark.parametrize("name", sorted(BENCH))
def test_short_circuit_opportunities_found(name, compiled):
    opt = compiled[name][1]
    assert opt.sc_stats.committed == EXPECTED_SC[name], opt.sc_stats.summary()
    assert opt.sc_stats.reused_copies == EXPECTED_REUSE.get(name, 0)


@pytest.mark.parametrize("name", sorted(BENCH))
def test_optimization_reduces_traffic(name, compiled):
    mod = BENCH[name]
    unopt, opt = compiled[name]
    inp = mod.dry_inputs_for(*mod.TEST_DATASETS["small"])
    _, st_un = MemExecutor(unopt.fun, mode="dry").run(**dict(inp))
    _, st_op = MemExecutor(opt.fun, mode="dry").run(**dict(inp))
    assert st_op.bytes_total < st_un.bytes_total, name
    assert st_op.elided_copies > 0, name


@pytest.mark.parametrize("name", sorted(BENCH))
def test_dry_equals_real_traffic(name, compiled):
    mod = BENCH[name]
    _, opt = compiled[name]
    args = mod.TEST_DATASETS["small"]
    real_inp = mod.inputs_for(*args)
    _, st_real = MemExecutor(opt.fun).run(
        **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in real_inp.items()}
    )
    _, st_dry = MemExecutor(opt.fun, mode="dry").run(**dict(mod.dry_inputs_for(*args)))
    assert st_dry.bytes_read == st_real.bytes_read, name
    assert st_dry.bytes_written == st_real.bytes_written, name
    assert st_dry.launches == st_real.launches, name


def test_nw_requires_dimension_splitting():
    """The baseline [9]-style *structural* test loses NW's circuits.

    Without dimension splitting the fig. 8 theorem proves none of NW's
    candidates; every commit that survives is decided by the polyhedral
    fallback tier (relation emptiness needs no splitting, so it recovers
    the full strong-compile count).
    """
    from repro.compiler import compile_fun

    fun = BENCH["nw"].build()
    weak = compile_fun(fun, enable_splitting=False)
    assert weak.sc_stats.committed == 6, weak.sc_stats.summary()
    assert weak.sc_stats.tiers.get("structural", 0) == 0, (
        weak.sc_stats.summary()
    )
    assert weak.sc_stats.tiers.get("polyhedral", 0) > 0, (
        weak.sc_stats.summary()
    )


def test_tables_render(compiled):
    from repro.bench.harness import run_table
    from repro.bench.programs import hotspot

    rep = run_table(hotspot, datasets={"64": (64, 2)}, do_validate=False)
    text = rep.render()
    assert "hotspot" in text and "A100" in text and "MI100" in text
    assert all(r.impact >= 1.0 for r in rep.rows)


def test_lud_rejection_carries_its_witness_and_the_pool_its_counters():
    """No silent decisions: lud's one rejected candidate says *why* the
    sets overlap, and the trace shows how many disjointness questions
    were answered from the verdict table instead of proved again."""
    from repro.compiler import compile_fun

    c = compile_fun(BENCH["lud"].build(), cache=False)
    (rej,) = c.sc_stats.declined.records
    assert (rej.layer, rej.rule) == ("sc", "cross-iteration-overlap")
    assert rej.site.startswith("t_19 -> ")
    assert rej.detail == "first points coincide at b*k*n + b*k"
    assert rej.detail in str(rej)
    assert c.sc_stats.failures == {rej.rule: 1}
    assert c.sc_stats.declined.repeats == 3  # rounds 2-4 re-attempt it

    (sc,) = [r for r in c.trace.records if r.name == "short_circuit"]
    assert sc.declined is c.sc_stats.declined  # one log, not a copy
    asked = sc.detail["verdict_hits"] + sc.detail["verdict_misses"]
    # lud has no widened-slice obligations, so every tier tally is one
    # TieredChecker.check; the four fixpoint rounds repeat about a third.
    assert asked == sum(sc.detail["tiers"].values())
    assert sc.detail["verdict_hits"] >= 10
    assert sc.detail["refuted_by_shared_point"] == 1
    assert "verdict_hits=" in c.trace.render()
