"""Command-line entry point: regenerate the paper's tables.

    python -m repro.bench                 # all seven tables (slow: dry-runs
                                          # at the paper's dataset sizes)
    python -m repro.bench nw hotspot      # a subset
    python -m repro.bench nw --quick      # scaled-down datasets (seconds)
    python -m repro.bench --quick --json  # + native-tier coverage, all
                                          # written to benchmarks/results/
    python -m repro.bench nw --explain    # per-pass pipeline trace
                                          # (timings, IR deltas) and the
                                          # decisions table: what every
                                          # layer declined, and why
    python -m repro.bench --devices 2     # shard hotspot across two
                                          # simulated devices: halo
                                          # traffic + scaling efficiency
    python -m repro.bench --quick --write-baseline footprint traffic
                                          # re-record regression baselines
                                          # (repro.bench.gates; "all" = all)
    python -m repro.bench --list          # available benchmarks
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
import sys
import time
import warnings
from pathlib import Path

from repro.bench.gates import GATES, load_baseline, write_baseline
from repro.decisions import render_table
from repro.bench.harness import (
    PERF_DATASETS,
    QUICK_DATASETS,
    compile_both,
    measure_engine,
    measure_footprint,
    measure_fusion,
    run_table,
)
from repro.bench.programs import all_benchmarks

# Tests locate the committed baseline through this.
PROVER_BASELINE = GATES["prover"].path

#: Datasets for the sharding simulation (hotspot is the one benchmark
#: with a decomposition).  Chosen so the per-device bands stay
#: interesting: nonzero halo traffic, efficiency well away from both 0
#: and 1.
SHARD_DATASETS = {"hotspot": (256, 3)}


def _prover_tiers(opt) -> dict:
    """Deciding-tier tallies summed over the optimized compile's passes."""
    total = {"structural": 0, "polyhedral": 0, "unknown": 0}
    per_pass = {}
    for label, st in (
        ("short_circuit", opt.sc_stats),
        ("fuse", opt.fuse_stats),
        ("reuse", opt.reuse_stats),
    ):
        tiers = dict(getattr(st, "tiers", None) or {})
        for k, v in tiers.items():
            total[k] = total.get(k, 0) + v
        if any(tiers.values()):
            # In ``total``'s fixed tier order: tallies arrive in the order
            # a pass first decides each tier, which is not stable.
            per_pass[label] = {k: tiers[k] for k in total if tiers.get(k)}
    total["per_pass"] = per_pass
    return total


def main(argv=None) -> int:
    warnings.filterwarnings("ignore")
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument("benchmarks", nargs="*", help="subset to run")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down datasets")
    parser.add_argument("--list", action="store_true",
                        help="list available benchmarks")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip the real-data validation run")
    parser.add_argument("--json", action="store_true",
                        help="measure native-tier coverage and write a "
                             "benchmarks/results/BENCH_<ts>.json report")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="simulate hotspot split across N devices "
                             "and report halo traffic and scaling "
                             "efficiency")
    parser.add_argument("--explain", action="store_true",
                        help="print each benchmark's optimized-pipeline "
                             "trace (per-pass timings, IR size/alloc "
                             "deltas) and its decisions table: what the "
                             "passes and the executor tiers declined, "
                             "where and why")
    parser.add_argument("--write-baseline", nargs="+", default=[],
                        metavar="NAME", choices=[*GATES, "all"],
                        help="record the current measurements as the "
                             "regression baseline of the named gate(s) "
                             f"({', '.join(GATES)}; 'all' = every one) "
                             "under benchmarks/results/")
    args = parser.parse_args(argv)

    registry = all_benchmarks()
    if args.list:
        for name in registry:
            print(name)
        return 0

    names = args.benchmarks or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    writes = set(GATES) if "all" in args.write_baseline else set(
        args.write_baseline
    )

    def wanted(gate_name: str) -> bool:
        """Does this run take the gate's measurement?"""
        needs = GATES[gate_name].needs
        return (
            gate_name in writes
            or needs == "always"
            or (needs == "json" and (args.json or args.explain))
            or (needs == "devices" and args.devices > 1)
        )

    baselines = {g.name: load_baseline(g) for g in GATES.values()}
    gate_rows = {gate_name: {} for gate_name in GATES}
    #: Gate -> why it took no measurement although it was wanted.
    unmeasured = {}
    # The run's closing "<label>: <benchmarks>" lines, in print order;
    # any non-empty one makes the run exit 1.
    failures = {
        label: []
        for label in (
            "VALIDATION FAILED", "FOOTPRINT REGRESSION",
            "FUSION DIFFERENTIAL FAILED", "TRAFFIC REGRESSION",
            "PROVER TIER REGRESSION", "NATIVE TIER REGRESSION",
            "SHARD CHECK FAILED",
        )
    }

    def gate(gate_name: str, name: str, measured: dict) -> None:
        """Check one measurement against its baseline row; keep its row."""
        g = GATES[gate_name]
        msgs = g.check(measured, baselines[gate_name].get(name))
        for msg in msgs:
            print(msg, file=sys.stderr)
        if msgs:
            failures[g.failed].append(name)
        gate_rows[gate_name][name] = g.row(measured)

    results = {}
    for name in names:
        module = registry[name]
        datasets = QUICK_DATASETS[name] if args.quick else None
        compiled = compile_both(module)
        report = run_table(
            module,
            datasets=datasets,
            do_validate=not args.no_validate,
            loop_sample=4,
            compiled=compiled,
        )
        print(report.render())
        print(f"validated: {report.validated}  "
              f"short-circuits: {report.sc_committed}  "
              f"dead-copy reuses: {report.sc_reused_copies}")
        trace = compiled[1].trace
        for r in trace.records:
            if r.rejections:
                rejected = ", ".join(
                    f"{rule} x{count}"
                    for rule, count in sorted(r.rejections.items())
                )
                print(f"{r.key} candidates declined: {rejected}")
        if report.validation_ran and not report.validated:
            failures["VALIDATION FAILED"].append(name)

        if args.explain:
            print(trace.render())

        footprint = measure_footprint(module, PERF_DATASETS[name], compiled)
        opt_fp = footprint["opt"]
        print(f"footprint (opt): peak {opt_fp['peak_bytes']:,} / "
              f"naive {opt_fp['naive_bytes']:,} bytes "
              f"({opt_fp['saving']:.0%} saved)")
        gate("footprint", name, footprint)

        fusion = measure_fusion(module, PERF_DATASETS[name], compiled[1])
        if fusion["committed"]:
            saved = fusion["unfused_traffic"] - fusion["fused_traffic"]
            pct = saved / fusion["unfused_traffic"] if fusion["unfused_traffic"] else 0
            print(f"fusion: {fusion['committed']} producer(s) inlined, "
                  f"traffic {fusion['fused_traffic']:,} vs "
                  f"{fusion['unfused_traffic']:,} unfused (-{pct:.0%}), "
                  f"outputs identical: {fusion['outputs_equal']}")
        if not fusion["ok"]:
            print(f"FUSION DIFFERENTIAL FAILED: {fusion}", file=sys.stderr)
            failures["FUSION DIFFERENTIAL FAILED"].append(name)
        gate("traffic", name, fusion)

        prover_tier = _prover_tiers(compiled[1])
        decided = prover_tier["structural"] + prover_tier["polyhedral"]
        if decided or prover_tier["unknown"]:
            print(f"prover tiers: structural {prover_tier['structural']} / "
                  f"polyhedral {prover_tier['polyhedral']} / "
                  f"unknown {prover_tier['unknown']}")
        gate("prover", name, prover_tier)

        native = None
        if wanted("native"):
            native = measure_engine(module, PERF_DATASETS[name], compiled)
            if native is None:
                unmeasured["native"] = "no C compiler"
            else:
                print(f"native: coverage {native['native_hit_rate']:.2f}, "
                      f"{native['native_launches']} launches")
                gate("native", name, native)

        # Compile-time layers from the optimized pipeline's trace,
        # run-time layers from the native gate's run (when it ran).
        declined = [d for r in trace.records for d in r.declined.records]
        declined += native.pop("declined") if native else []
        if args.explain:
            print("decisions:")
            print(render_table(declined))
            repeats = sum(r.declined.repeats for r in trace.records)
            if repeats:
                print(f"  ({repeats} repeat decision(s) at already-tallied "
                      f"sites not shown)")

        results[name] = {
            "fusion": fusion,
            "footprint": footprint,
            "validated": report.validated,
            "validation_ran": report.validation_ran,
            "compile_s": report.compile_seconds,
            "short_circuits": report.sc_committed,
            "dead_copy_reuses": report.sc_reused_copies,
            "rejections": [asdict(d) for d in declined],
            "prover_tier": prover_tier,
            "pipeline_trace": {
                label: trace.to_dict()
                for label, trace in report.traces.items()
            },
            "native": native,
            "rows": [
                {
                    "device": r.device,
                    "dataset": r.dataset,
                    "ref_ms": r.ref_ms,
                    "unopt_ms": r.unopt_ms,
                    "opt_ms": r.opt_ms,
                    "unopt_rel": r.unopt_rel,
                    "opt_rel": r.opt_rel,
                    "impact": r.impact,
                }
                for r in report.rows
            ],
        }
        print()

    shard_results = {}
    if wanted("shard"):
        from repro.shard import scaling_report

        devices = args.devices if args.devices > 1 else 2
        for name in names:
            if name not in SHARD_DATASETS:
                continue
            rep = scaling_report(name, SHARD_DATASETS[name], devices)
            shard_results[name] = rep
            print(f"shard ({name} x{devices}): "
                  f"identical {rep['outputs_identical']}  "
                  f"halo {rep['halo_bytes']:,} bytes / "
                  f"{rep['halo_exchanges']} exchanges  "
                  f"efficiency {rep['efficiency']:.3f} "
                  f"(speedup {rep['speedup']:.2f}x over 1 device)")
            gate("shard", name, rep)

    for g in GATES.values():
        if g.name not in writes:
            continue
        if gate_rows[g.name]:
            write_baseline(g, gate_rows[g.name])
        else:
            # An empty table would read back as "nothing is gated".
            why = unmeasured.get(g.name, "no selected benchmark has one")
            print(f"{g.path} left alone: the {g.name} gate took no "
                  f"measurement ({why})", file=sys.stderr)

    if args.json:
        ts = time.strftime("%Y%m%d-%H%M%S")
        out_dir = Path("benchmarks") / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"BENCH_{ts}.json"
        payload = {
            "timestamp": ts,
            "quick": args.quick,
            "benchmarks": results,
        }
        if shard_results:
            payload["sharding"] = shard_results
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out_path}")

    failed = {label: bad for label, bad in failures.items() if bad}
    for label, bad in failed.items():
        if label in ("NATIVE TIER REGRESSION", "SHARD CHECK FAILED"):
            bad = sorted(bad)  # these two lines list sorted names
        print(f"{label}: {', '.join(bad)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
