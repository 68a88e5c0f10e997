"""Pipeline presets: every preset compiles every benchmark verifier-clean.

This is the preset-level acceptance gate for the pass-manager refactor:
all six presets must (a) produce final IR that
:func:`repro.analysis.verifier.verify_fun` accepts, (b) execute the
exact ordered pass list that :func:`repro.pipeline.preset_pipeline`
builds, and (c) emit a :class:`repro.pipeline.PipelineTrace` whose JSON
is its ``to_dict``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.verifier import verify_fun
from repro.compiler import compile_fun
from repro.bench.programs import all_benchmarks
from repro.pipeline import PRESETS, preset_pipeline
from repro.pipeline.trace import KIND_ANALYSIS, KIND_PASS

BENCHMARKS = all_benchmarks()


def schedule(preset: str):
    """The ordered pass/analysis names a preset schedules."""
    return [p.name for p in preset_pipeline(preset)]


#: One compilation per (benchmark, preset), shared across the tests below.
_cache = {}


def compiled(name: str, preset: str):
    key = (name, preset)
    if key not in _cache:
        fun = BENCHMARKS[name].build()
        _cache[key] = compile_fun(fun, pipeline=preset)
    return _cache[key]


@pytest.mark.parametrize("preset", list(PRESETS))
@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_preset_compiles_verifier_clean(name, preset):
    c = compiled(name, preset)
    report = verify_fun(c.fun, stage=f"{name} [{preset}]")
    assert report.ok(), report.render()


@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_runs_advertised_pass_list(preset):
    """The trace's scheduled pass/analysis sequence is exactly the
    preset's advertised schedule -- no silent extra analysis re-runs."""
    expected = schedule(preset)
    for name in BENCHMARKS:
        c = compiled(name, preset)
        assert c.pipeline == preset
        scheduled = [
            r.name for r in c.trace.records
            if r.kind in (KIND_PASS, KIND_ANALYSIS)
        ]
        assert scheduled == expected, name
        executed = c.trace.executed_pass_names()
        assert [p for p in expected if p in executed]  # sanity: nonempty


@pytest.mark.parametrize("preset", list(PRESETS))
def test_trace_json_round_trip(preset):
    # nw declines nothing; lud (sc, with a witness) and hotspot (fuse,
    # with repeats) exercise the records' serialization.
    for name in ("nw", "lud", "hotspot"):
        trace = compiled(name, preset).trace
        d = trace.to_dict()
        assert json.loads(trace.to_json()) == d
        assert d["pipeline"] == preset
        assert d["compile_seconds"] == trace.compile_seconds
        assert [r["declined"] for r in d["records"]] == [
            r.declined.to_dict() for r in trace.records
        ]
        if name == "lud" and "short_circuit" in schedule(preset):
            (rec,) = [r for r in d["records"] if r["key"] == "short_circuit"]
            (why,) = rec["declined"]["records"]
            assert why["detail"].startswith("first points coincide")
            assert rec["declined"]["repeats"] == 3


#: preset -> the optional passes it schedules after ``last_use``.
OPTIONAL = {
    "unopt": [],
    "sc": ["short_circuit", "dead_allocs"],
    "sc+fuse": ["short_circuit", "dead_allocs", "fuse", "dead_allocs"],
    "full": ["short_circuit", "dead_allocs", "fuse", "dead_allocs",
             "reuse", "dead_allocs", "mem_frees"],
    "nosc": ["fuse", "dead_allocs", "reuse", "dead_allocs", "mem_frees"],
    "nofuse": ["short_circuit", "dead_allocs", "reuse", "dead_allocs",
               "mem_frees"],
}


def test_the_six_presets_build_verify_and_schedule_their_passes():
    assert list(PRESETS) == list(OPTIONAL)
    common = ["typecheck", "introduce_memory", "hoist", "last_use"]
    fun = BENCHMARKS["nn"].build()
    for preset, optional in OPTIONAL.items():
        assert schedule(preset) == common + optional
        c = compile_fun(fun, pipeline=preset, verify=True)
        assert c.verify_reports
        assert all(r.ok() for r in c.verify_reports.values()), preset
        assert c.short_circuited == ("short_circuit" in optional)
    with pytest.raises(TypeError, match="typecheck"):
        compile_fun(fun, **{"typecheck": False})


def test_unknown_preset_is_an_error():
    fun = BENCHMARKS["nn"].build()
    with pytest.raises(KeyError, match="unopt"):
        compile_fun(fun, pipeline="turbo")
