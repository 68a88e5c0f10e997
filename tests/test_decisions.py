"""One record for every "no" (:mod:`repro.decisions`): the log's
one-site-one-tally rule, and that every layer which declines something
-- the three passes at compile time; the native emitter, the launch
path, the vectorizer and the tape recorder at run time -- says so with a
rule and a site, on every benchmark under every preset."""

import importlib
import json

import pytest

import repro.runtime as rt
from repro.bench.programs import all_benchmarks
from repro.decisions import Decision, DecisionLog, render_table
from repro.pipeline import PRESETS

LAYERS = {"sc", "fuse", "reuse", "native", "launch", "vectorize", "tape"}


def test_one_site_one_tally():
    log = DecisionLog()
    first = log.add("sc", "update:write-overlaps-uses", "t_5 -> mem_2", "why")
    # A later fixpoint round re-attempts the candidate; the program has
    # changed around it and another rule fires.  The first one stands.
    again = log.add("sc", "creation-not-found", "t_5 -> mem_2")
    assert again is first and log.records == [first]
    assert log.tallies == {"update:write-overlaps-uses": 1}
    assert log.repeats == 1
    # Fuse's two consumers of one producer are two sites, the producer
    # alone a third; another layer at the same site is its own site.
    for site in ("t_9 -> t_12", "t_9 -> t_15", "t_9"):
        log.add("fuse", "non-index-use", site)
    log.add("native", "unsupported", "t_9", "Reduce inside a kernel")
    assert log.tallies == {
        "update:write-overlaps-uses": 1, "non-index-use": 3, "unsupported": 1,
    }
    assert log.repeats == 1
    assert log.at("native", "t_9").detail == "Reduce inside a kernel"
    assert log.at("native", "t_12") is None
    assert json.loads(json.dumps(log.to_dict())) == log.to_dict()


def test_a_decision_renders_as_one_line_and_as_a_table_row():
    d = Decision("native", "not-bit-exact", "t_63", "mixed-type min/max")
    assert str(d) == "native not-bit-exact @ t_63 (mixed-type min/max)"
    assert str(Decision("fuse", "no-consumer", "t_4")) == (
        "fuse no-consumer @ t_4"
    )
    head, rule, row, bare = render_table(
        [d, Decision("fuse", "no-consumer", "t_4")]
    ).splitlines()
    assert head.split() == ["layer", "rule", "site", "detail"]
    assert set(rule.strip()) == {"-"}
    assert row.split(None, 3) == [
        "native", "not-bit-exact", "t_63", "mixed-type min/max",
    ]
    assert bare.split() == ["fuse", "no-consumer", "t_4"]
    assert row.index("t_63") == bare.index("t_4") == head.index("site")


@pytest.mark.parametrize("preset", list(PRESETS))
@pytest.mark.parametrize("name", list(all_benchmarks()))
def test_every_layer_names_its_rule_and_site(name, preset):
    mod = importlib.import_module(f"repro.bench.programs.{name}")
    program = rt.compile(mod.build(), pipeline=preset, memoize=False)
    program.run(mod.inputs_for(*mod.TEST_DATASETS["small"]))
    # A second shape class, served by the kernels the first one built.
    program.run(mod.inputs_for(*mod.TEST_DATASETS["tiny"]))

    trace = program.compiled.trace
    found = [d for r in trace.records for d in r.declined.records]
    for stats in ("sc_stats", "fuse_stats", "reuse_stats"):
        st = getattr(program.compiled, stats)
        if st is not None:
            assert all(d in found for d in st.declined.records)
            if hasattr(st, "failures"):  # the sc and fuse views
                assert st.failures == st.declined.tallies
    cov = program.coverage()
    for m in cov["maps"].values():
        # Served by a lower tier exactly when a higher one said why.
        assert m["tier"] is not None
        below = m["tier"] != "native" and program._native_engine is not None
        assert below == any(d.layer == "native" for d in m["declined"])
        assert (m["tier"] == "interpreted") == any(
            d.layer == "vectorize" for d in m["declined"]
        )
        found += m["declined"]
    found += [c["declined"] for c in cov["classes"].values() if c["declined"]]
    found += program.declined.records
    found += [p.declined for p in program._vec_plans.values() if p.declined]

    for d in found:
        assert isinstance(d, Decision) and d.layer in LAYERS
        assert d.rule and d.site, d
        # A kernel's literal index components are constants of the
        # memory IR, not of the first request: no size contradicts them.
        assert d.layer != "launch", d
    sites = {s for d in found for s in d.site.split(" -> ")}
    assert all(" " not in s for s in sites), sites
