"""Pipeline presets: every preset compiles every benchmark verifier-clean.

This is the preset-level acceptance gate for the pass-manager refactor:
all six presets must (a) produce final IR that
:func:`repro.analysis.verifier.verify_fun` accepts, (b) execute the
exact ordered pass list that :func:`repro.pipeline.preset_pass_names`
advertises, and (c) emit a :class:`repro.pipeline.PipelineTrace` that
survives a JSON round-trip.
"""

from __future__ import annotations

import pytest

from repro.analysis.verifier import verify_fun
from repro.compiler import compile_fun
from repro.bench.programs import all_benchmarks
from repro.pipeline import (
    PRESETS,
    PipelineTrace,
    preset_pass_names,
)
from repro.pipeline.trace import KIND_ANALYSIS, KIND_PASS

BENCHMARKS = all_benchmarks()

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
    expected = preset_pass_names(preset)
    for name in BENCHMARKS:
        c = compiled(name, preset)
        assert c.pipeline == preset
        scheduled = c.trace.pass_names(kinds=(KIND_PASS, KIND_ANALYSIS))
        assert scheduled == expected, name
        executed = c.trace.executed_pass_names()
        assert [p for p in expected if p in executed]  # sanity: nonempty


@pytest.mark.parametrize("preset", list(PRESETS))
def test_trace_json_round_trip(preset):
    # nw declines nothing; lud (sc, with a witness) and hotspot (fuse,
    # with repeats) exercise the records' round trip.
    for name in ("nw", "lud", "hotspot"):
        trace = compiled(name, preset).trace
        back = PipelineTrace.from_json(trace.to_json())
        assert back.to_dict() == trace.to_dict()
        assert back.pipeline == preset
        assert back.stage_seconds() == trace.stage_seconds()
        assert back.compile_seconds == trace.compile_seconds
        assert [r.declined for r in back.records] == [
            r.declined for r in trace.records
        ]
        assert back.rejections() == trace.rejections()
        if name == "lud" and "short_circuit" in preset_pass_names(preset):
            log = back.record("short_circuit").declined
            (why,) = log.records
            assert why.detail.startswith("first points coincide")
            assert log.repeats == 3


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
        assert preset_pass_names(preset) == common + optional
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
