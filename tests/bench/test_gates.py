"""The bench CLI's regression gates (``repro.bench.gates.GATES``).

Each gate's ``check`` is exercised on a hand-built healthy measurement:
it passes the row it would itself record, passes a missing baseline,
and answers a regressed baseline row with the exact message the CLI has
always printed.  A round trip drives ``--write-baseline`` through
``main`` into a scratch cwd and reads the file back.
"""

import json
from pathlib import Path

import pytest

from repro.bench.__main__ import main
from repro.bench.gates import GATES

ROOT = Path(__file__).resolve().parents[2]

#: gate -> a measurement that passes, shaped like the harness produces it.
HEALTHY = {
    "footprint": {
        "dataset": [16, 16],
        "opt": {"peak_bytes": 1000, "naive_bytes": 2500},
        "unopt": {"peak_bytes": 1500},
    },
    "traffic": {
        "dry_dataset": [16, 16],
        "fused_traffic": 1200,
        "unfused_traffic": 1400,
    },
    "prover": {
        "structural": 18, "polyhedral": 2, "unknown": 1,
        "per_pass": {"short_circuit": {"structural": 18, "polyhedral": 2,
                                      "unknown": 1}},
    },
    "native": {
        "dataset": [16, 16], "native_hit_rate": 0.5, "native_launches": 31,
        "outputs_equal": True, "stats_equal": True, "footprint_equal": True,
    },
    "shard": {
        "benchmark": "hotspot", "dataset": [256, 3], "devices": 2,
        "outputs_identical": True, "halo_bytes": 6144,
        "halo_exchanges": 6, "efficiency": 0.38091,
    },
}

#: (gate, edits to the healthy measurement, edits to its own recorded
#: row, the message that has always been printed for it).
REGRESSED = [
    ("footprint", {}, {"opt_peak_bytes": 999},
     "FOOTPRINT REGRESSION: peak 1,000 exceeds baseline 999"),
    ("traffic", {}, {"opt_traffic_bytes": 1199},
     "TRAFFIC REGRESSION: 1,200 bytes exceeds baseline 1,199"),
    ("traffic", {"fused_traffic": 1400},
     {"opt_traffic_bytes": 1400, "unfused_traffic_bytes": 1600},
     "TRAFFIC REGRESSION: fusion win lost (1,400 >= 1,400 unfused; "
     "baseline won 200 bytes)"),
    ("prover", {}, {"structural": 19},
     "PROVER TIER REGRESSION: decided 20 (baseline 21), unknown 1 "
     "(baseline 1)"),
    ("prover", {}, {"unknown": 0},
     "PROVER TIER REGRESSION: decided 20 (baseline 20), unknown 1 "
     "(baseline 0)"),
    ("native", {"outputs_equal": False}, {},
     "NATIVE DIFFERENTIAL FAILED: {'dataset': [16, 16], 'native_hit_rate': "
     "0.5, 'native_launches': 31, 'outputs_equal': False, 'stats_equal': "
     "True, 'footprint_equal': True}"),
    ("native", {"native_hit_rate": 0.25}, {},
     "NATIVE COVERAGE REGRESSION: hit rate 0.25 below baseline 0.50"),
    ("native", {}, {"native_hit_rate": 1.0},
     "NATIVE COVERAGE REGRESSION: hit rate 0.50 below baseline 1.00"),
    ("shard", {}, {"efficiency": 0.5},
     "SHARD SCALING REGRESSION: hotspot efficiency 0.381 below baseline "
     "0.500"),
    ("shard", {"outputs_identical": False}, {},
     "SHARD DIFFERENTIAL FAILED: hotspot x2 output differs from the "
     "1-device run"),
    ("shard", {"halo_bytes": 0}, {},
     "SHARD HALO CHECK FAILED: hotspot x2 exchanged no cross-device bytes"),
]


def test_every_gate_has_a_case():
    assert set(HEALTHY) == set(GATES) == {g for g, *_ in REGRESSED}


@pytest.mark.parametrize("name", list(GATES))
def test_gate_passes_its_own_row_and_a_missing_baseline(name):
    gate, measured = GATES[name], HEALTHY[name]
    row = gate.row(measured)
    assert gate.check(measured, row) == []
    assert gate.check(measured, None) == []
    # What is recorded survives the baseline file's JSON round trip.
    assert json.loads(json.dumps(row)) == row
    # Baselines are exact: integer counts, and two ratios of such counts
    # (no wall clock anywhere).
    floats = {(name, k) for k, v in row.items() if isinstance(v, float)}
    assert floats <= {("shard", "efficiency"), ("native", "native_hit_rate")}


@pytest.mark.parametrize(
    "name,measured_edit,recorded_edit,message",
    REGRESSED,
    ids=[f"{g}-{i}" for i, (g, *_) in enumerate(REGRESSED)],
)
def test_gate_reports_its_historical_message(
    name, measured_edit, recorded_edit, message
):
    gate = GATES[name]
    recorded = {**gate.row(HEALTHY[name]), **recorded_edit}
    measured = {**HEALTHY[name], **measured_edit}
    assert gate.check(measured, recorded) == [message]


def test_native_gate_reports_differential_before_coverage():
    native = {**HEALTHY["native"], "stats_equal": False}
    msgs = GATES["native"].check(native, {"native_hit_rate": 1.0})
    assert [m.split(":")[0] for m in msgs] == [
        "NATIVE DIFFERENTIAL FAILED", "NATIVE COVERAGE REGRESSION",
    ]


def test_write_baseline_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["hotspot", "--quick", "--no-validate"]
    assert main(argv + ["--write-baseline", "prover", "traffic"]) == 0
    out = capsys.readouterr().out
    written = sorted(p.name for p in (tmp_path / "benchmarks/results").iterdir())
    assert written == ["prover_tier_baseline.json", "traffic_baseline.json"]
    for name in ("traffic", "prover"):
        path = GATES[name].path
        assert f"wrote {path}" in out
        # Byte-for-byte what is committed for this benchmark, key order
        # included (the committed files hold all seven).
        committed = json.loads((ROOT / path).read_text())["hotspot"]
        assert (tmp_path / path).read_text() == (
            json.dumps({"hotspot": committed}, indent=2) + "\n"
        )
    # Read back: the rows just written pass...
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    # ...and hand-regressed ones fail with their gate's message, and the
    # run closes with every failed label, not just the first.
    path = tmp_path / GATES["traffic"].path
    rows = json.loads(path.read_text())
    rows["hotspot"]["opt_traffic_bytes"] -= 1
    path.write_text(json.dumps(rows))
    prover_path = tmp_path / GATES["prover"].path
    tiers = json.loads(prover_path.read_text())
    tiers["hotspot"]["structural"] += 1
    prover_path.write_text(json.dumps(tiers))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("TRAFFIC REGRESSION: ")
    assert err[0].endswith(f"exceeds baseline {rows['hotspot']['opt_traffic_bytes']:,}")
    assert err[1].startswith("PROVER TIER REGRESSION: decided ")
    assert err[2:] == [
        "TRAFFIC REGRESSION: hotspot", "PROVER TIER REGRESSION: hotspot",
    ]


def test_unmeasured_gate_leaves_its_baseline_alone(tmp_path, monkeypatch, capsys):
    """Without a C compiler the native gate measures nothing; writing it
    must not replace the recorded table with an empty one."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("repro.backend.maybe_engine", lambda **kw: None)
    path = tmp_path / GATES["native"].path
    path.parent.mkdir(parents=True)
    recorded = json.dumps({"hotspot": GATES["native"].row(HEALTHY["native"])})
    path.write_text(recorded)
    argv = ["hotspot", "--quick", "--no-validate", "--write-baseline", "native"]
    assert main(argv) == 0
    assert path.read_text() == recorded
    captured = capsys.readouterr()
    assert f"wrote {GATES['native'].path}" not in captured.out
    assert captured.err == (
        f"{GATES['native'].path} left alone: the native gate took no "
        "measurement (no C compiler)\n"
    )


def test_old_write_flags_are_gone():
    for old in ("footprint", "traffic", "prover", "native", "shard"):
        with pytest.raises(SystemExit) as exc:
            main(["--list", f"--write-{old}-baseline"])
        assert exc.value.code == 2
