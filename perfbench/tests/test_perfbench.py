"""Self-tests of the benchmark itself.

Run explicitly (they start a dozen subprocesses and take a few minutes;
tier-1's ``testpaths`` does not include them)::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["wavefront", "stencil", "fallback", "serve-mix"]

END_TO_END = {
    "setup_s", "compile_cold_s", "first_call_s", "warm_round_p50_ms",
    "warm_round_p90_ms", "throughput_rps", "dry_run_s", "sim_opt_ms",
    "sim_impact", "sim_traffic_bytes", "peak_bytes", "generated_c_bytes",
    "peak_rss_mb",
}
COUNTS = ["sim_opt_ms", "sim_impact", "sim_traffic_bytes", "peak_bytes",
          "generated_c_bytes"]
PER_LAYER = {
    "ir": "build_ms typecheck_ms pretty_parse_ms stmts",
    "pipeline": "typecheck_ms introduce_memory_ms hoist_ms last_use_ms "
                "short_circuit_ms dead_allocs_ms fuse_ms reuse_ms mem_frees_ms "
                "manager_self_ms first_rep_s stmts_out allocs_out",
    "prover": "queries structural_decided polyhedral_decided audit_ms",
    "opt": "sc_committed sc_rejected fuse_committed fuse_rejected "
           "sc_traffic_ratio fuse_traffic_ratio",
    "reuse": "merged_blocks peak_ratio estimate_peak_ms",
    "analysis": "verify_ms findings",
    "exec": "launches host_self_ms materialize_ms interp_tiny_s dry_unopt_s "
            "dry_full_s",
    "vectorize": "round_ms launches hit_rate launch_us",
    "backend": "kernels rejected_stmts emit_s cc_s so_load_ms native_launches "
               "native_hit_rate fallback_launches launch_us launch_floor_us "
               "kernel_share",
    "runtime": "compile_mem_hit_us compile_disk_hit_ms program_overhead_ms "
               "memo_hit_us memo_miss_overhead_us memo_hit_rate pool_hit_rate "
               "pool_misses lease_us new_shape_penalty_ms",
    "serve": "rps_1c rps_2c scaling_2c",
    "shard": "run2_s halo_bytes efficiency_2dev",
    "trace": "overhead_pct",
}


def perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=900,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced smoke runs of all four workloads."""
    out = tmp_path_factory.mktemp("smoke")
    docs = []
    for tag in "ab":
        proc = perfbench("--smoke", "--json", str(out / f"{tag}.json"))
        assert proc.returncode == 0, proc.stderr[-2000:]
        docs.append(json.loads((out / f"{tag}.json").read_text()))
    return out, docs


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    """One traced smoke run of all four workloads."""
    out = tmp_path_factory.mktemp("trace")
    proc = perfbench("--smoke", "--trace", "1", "--json", str(out / "t.json"),
                     "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads((out / "t.json").read_text())
    return out, {w: r["metrics"] for w, r in doc["workloads"].items()}


# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_the_agreed_names():
    assert {m["name"] for m in BENCH["end_to_end"]} == END_TO_END
    want = {f"{mod}.{m}" for mod, ms in PER_LAYER.items() for m in ms.split()}
    assert len(want) == 70
    assert {m["name"] for m in BENCH["per_layer"]} == want
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS
    assert BENCH["paths"] == ["perfbench"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_emits_every_end_to_end_metric(smoke):
    _, (a, _b) = smoke
    assert a["smoke"] is True
    assert list(a["workloads"]) == WORKLOADS
    for name, result in a["workloads"].items():
        assert result["ops_failed"] == 0, result["failures"]
        assert result["ops_attempted"] > 0
        assert set(result["metrics"]) >= END_TO_END, name
        for metric in END_TO_END:
            assert result["metrics"][metric] > 0, (name, metric)


def test_counts_repeat_exactly(smoke):
    _, (a, b) = smoke
    for name in WORKLOADS:
        for metric in COUNTS:
            assert (
                a["workloads"][name]["metrics"][metric]
                == b["workloads"][name]["metrics"][metric]
            ), (name, metric)
        assert (
            a["workloads"][name]["ops_attempted"]
            == b["workloads"][name]["ops_attempted"]
        )


def test_compare_refuses_smoke_runs(smoke):
    out, _ = smoke
    proc = perfbench("compare", str(out / "a.json"), str(out / "b.json"))
    assert proc.returncode not in (0, 1)
    assert "smoke" in proc.stderr


def test_a_wrong_output_is_counted_and_fails_the_run():
    proc = perfbench("--workload", "fallback", "--smoke", "--inject-fault")
    assert proc.returncode != 0
    line = last_line(proc)
    assert line["correct"] is False and line["failed"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_no_result_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = perfbench("--workload", "stencil", "--seed", "1", "--seconds",
                     "20", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
def _doc(**metrics) -> dict:
    base = {m["name"]: 10.0 for m in BENCH["end_to_end"]}
    base.update(metrics)
    return {
        "smoke": False, "trace": False,
        "workloads": {"stencil": {"metrics": base, "ops_attempted": 3,
                                  "ops_failed": 0}},
    }


@pytest.mark.parametrize(
    "change, code, word",
    [
        ({}, 0, "all within bounds"),
        ({"throughput_rps": 10.5, "warm_round_p50_ms": 9.0}, 0, "all within"),
        ({"throughput_rps": 8.0, "warm_round_p50_ms": 12.0}, 0, "all within"),
        ({"warm_round_p50_ms": 13.0}, 1, "regressed"),
        ({"throughput_rps": 7.0}, 1, "regressed"),
        ({"peak_rss_mb": 10.6}, 1, "regressed"),
        ({"peak_bytes": 10.001}, 1, "exact-mismatch"),
        ({"peak_bytes": 9.0}, 1, "exact-mismatch"),
    ],
)
def test_compare_verdicts(tmp_path, change, code, word):
    (tmp_path / "a.json").write_text(json.dumps(_doc()))
    (tmp_path / "b.json").write_text(json.dumps(_doc(**change)))
    proc = perfbench("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert proc.returncode == code, proc.stdout
    assert word in proc.stdout


# ----------------------------------------------------------------------
def test_trace_emits_every_per_layer_metric(layers):
    out, metrics = layers
    want = {m["name"] for m in BENCH["per_layer"]}
    for name in WORKLOADS:
        assert set(metrics[name]) >= want, want - set(metrics[name])
        events = json.loads((out / f"{name}.trace.json").read_text())
        assert {"round", "runtime.run", "exec.run", "backend.launch",
                "compile", "pass.short_circuit"} <= {
            e["name"] for e in events["traceEvents"]}
        assert (out / f"{name}.layers.tsv").exists()
        assert metrics[name]["analysis.findings"] == 0


def test_workloads_separate_the_layers(layers, smoke):
    _, m = layers
    _, (e2e, _b) = smoke
    # launch path vs kernel body
    assert m["wavefront"]["backend.kernel_share"] < 0.65
    assert m["stencil"]["backend.kernel_share"] > 0.80
    assert (m["wavefront"]["backend.launch_us"]
            < 0.2 * m["stencil"]["backend.launch_us"])
    # native coverage
    assert m["fallback"]["backend.native_hit_rate"] <= 0.5
    assert m["fallback"]["vectorize.launches"] > 0
    assert m["wavefront"]["backend.native_hit_rate"] == 1.0
    assert m["stencil"]["backend.native_hit_rate"] == 1.0
    # recall beside production
    assert m["serve-mix"]["runtime.memo_hit_rate"] == 0.5
    for name in ("wavefront", "stencil", "fallback"):
        assert m[name]["runtime.memo_hit_rate"] == 0
    # prover-bound vs pipeline-overhead-only compiles
    def compile_s(name):
        return e2e["workloads"][name]["metrics"]["compile_cold_s"]

    assert (m["wavefront"]["pipeline.short_circuit_ms"] / 1e3
            > 0.5 * compile_s("wavefront"))
    assert (m["stencil"]["pipeline.short_circuit_ms"] / 1e3
            < 0.5 * compile_s("stencil"))
    for name in WORKLOADS:
        assert "trace.overhead_pct" in m[name]
