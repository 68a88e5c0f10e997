"""Command-line entry point: regenerate the paper's tables.

    python -m repro.bench                 # all seven tables (slow: dry-runs
                                          # at the paper's dataset sizes)
    python -m repro.bench nw hotspot      # a subset
    python -m repro.bench nw --quick      # scaled-down datasets (seconds)
    python -m repro.bench --filter hot    # names containing "hot"
    python -m repro.bench --quick --json  # + executor-tier wall clock,
                                          # written to benchmarks/results/
    python -m repro.bench nw --explain    # per-pass pipeline trace
                                          # (timings, IR deltas,
                                          # rejection diagnostics,
                                          # per-space peaks)
    python -m repro.bench --devices 2     # shard hotspot/lbm/nw across
                                          # two simulated devices: halo
                                          # traffic + scaling efficiency
    python -m repro.bench --json --out p  # write the JSON report to p
    python -m repro.bench --list          # available benchmarks
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

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

#: Committed reference for the peak-footprint regression gate: CI fails
#: when a benchmark's optimized-pipeline peak (static estimate at the
#: PERF_DATASETS size) exceeds the recorded value.  Regenerate with
#: ``python -m repro.bench --write-footprint-baseline`` after a change
#: that legitimately alters the footprint.
FOOTPRINT_BASELINE = Path("benchmarks") / "results" / "footprint_baseline.json"

#: Committed reference for the traffic regression gate: CI fails when the
#: optimized pipeline's dry-run traffic (bytes read + written at the
#: PERF_DATASETS size) exceeds the recorded value -- e.g. when a fusion
#: or short-circuit opportunity is lost.  Regenerate with
#: ``python -m repro.bench --write-traffic-baseline``.
TRAFFIC_BASELINE = Path("benchmarks") / "results" / "traffic_baseline.json"

#: Committed reference for the prover-tier regression gate: CI fails
#: when the optimized pipeline *decides* (structural + polyhedral) fewer
#: disjointness/size queries than recorded, or leaves more undecided --
#: e.g. when a prover change silently demotes polyhedral recoveries back
#: to ``unknown``.  Regenerate with
#: ``python -m repro.bench --write-prover-baseline``.
PROVER_BASELINE = Path("benchmarks") / "results" / "prover_tier_baseline.json"

#: Committed reference for the serving regression gate: CI fails when a
#: benchmark's warm/cold amortization ratio reaches 0.25 (the acceptance
#: bar: 100 warm calls must cost under a quarter of 100 cold
#: compile+run calls) or its pool hit rate falls materially below the
#: recorded value.  Regenerate with
#: ``python -m repro.bench --write-serve-baseline``.
SERVE_BASELINE = Path("benchmarks") / "results" / "serve_baseline.json"

#: Committed reference for the native-tier regression gate: CI fails
#: when a benchmark's native kernel coverage (fraction of real-mode map
#: dispatches served by compiled C) falls below the recorded value, or
#: when fewer benchmarks beat the vectorized tier's warm wall clock than
#: recorded.  Skipped entirely when no C compiler is available.
#: Regenerate with ``python -m repro.bench --write-native-baseline``.
NATIVE_BASELINE = Path("benchmarks") / "results" / "native_baseline.json"

#: Committed reference for the sharding regression gate: CI fails when a
#: sharded benchmark's 2-device run stops producing bit-identical output,
#: stops exchanging halos, or its scaling efficiency falls below the
#: recorded value.  The simulation is deterministic, so only a small
#: slack (0.02) absorbs cost-model retuning.  Regenerate with
#: ``python -m repro.bench --write-shard-baseline``.
SHARD_BASELINE = Path("benchmarks") / "results" / "shard_baseline.json"

#: Datasets for the sharding simulation.  Chosen so the per-device slabs
#: stay interesting (nonzero halo traffic, efficiency well away from
#: both 0 and 1) while the wavefront benchmarks finish in under a
#: second -- NW's diagonal sweep at the PERF size takes half a minute.
SHARD_DATASETS = {"hotspot": (256, 3), "lbm": (128, 4), "nw": (8, 16)}


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
        if any(tiers.values()):
            per_pass[label] = {k: v for k, v in tiers.items() if v}
        for k, v in tiers.items():
            total[k] = total.get(k, 0) + v
    total["per_pass"] = per_pass
    return total


def main(argv=None) -> int:
    warnings.filterwarnings("ignore")
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument("benchmarks", nargs="*", help="subset to run")
    parser.add_argument("--filter", metavar="NAME",
                        help="run only benchmarks whose name contains NAME")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down datasets")
    parser.add_argument("--list", action="store_true",
                        help="list available benchmarks")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip the real-data validation run")
    parser.add_argument("--json", action="store_true",
                        help="measure executor tiers and write a "
                             "benchmarks/results/BENCH_<ts>.json report")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the --json report to PATH instead of "
                             "benchmarks/results/BENCH_<ts>.json")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="simulate the sharded benchmarks (hotspot, "
                             "lbm, nw) split across N devices and report "
                             "halo traffic and scaling efficiency")
    parser.add_argument("--explain", action="store_true",
                        help="print each benchmark's optimized-pipeline "
                             "trace: per-pass timings, IR size/alloc "
                             "deltas, and rejection diagnostics")
    parser.add_argument("--write-footprint-baseline", action="store_true",
                        help="record current peak footprints as the "
                             "regression baseline "
                             "(benchmarks/results/footprint_baseline.json)")
    parser.add_argument("--write-traffic-baseline", action="store_true",
                        help="record current optimized-pipeline traffic as "
                             "the regression baseline "
                             "(benchmarks/results/traffic_baseline.json)")
    parser.add_argument("--write-prover-baseline", action="store_true",
                        help="record current deciding-tier tallies as the "
                             "regression baseline "
                             "(benchmarks/results/prover_tier_baseline.json)")
    parser.add_argument("--write-serve-baseline", action="store_true",
                        help="record current serving metrics as the "
                             "regression baseline "
                             "(benchmarks/results/serve_baseline.json)")
    parser.add_argument("--write-shard-baseline", action="store_true",
                        help="record current 2-device scaling efficiency "
                             "and halo traffic as the regression baseline "
                             "(benchmarks/results/shard_baseline.json)")
    parser.add_argument("--write-native-baseline", action="store_true",
                        help="record per-benchmark native-tier coverage "
                             "and wall-clock wins as the regression "
                             "baseline "
                             "(benchmarks/results/native_baseline.json)")
    parser.add_argument("--serve-requests", type=int, default=100,
                        metavar="N",
                        help="warm requests per benchmark in the serve "
                             "measurement (default 100)")
    parser.add_argument("--serve-workers", type=int, default=4, metavar="N",
                        help="concurrent serving workers (default 4)")
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
    if args.filter:
        names = [n for n in names if args.filter in n]
        if not names:
            print(f"no benchmark matches --filter {args.filter!r}",
                  file=sys.stderr)
            return 2

    failed = []
    tier_failed = []
    footprint_failed = []
    fusion_failed = []
    traffic_failed = []
    baseline = {}
    if FOOTPRINT_BASELINE.exists():
        baseline = json.loads(FOOTPRINT_BASELINE.read_text())
    traffic_baseline = {}
    if TRAFFIC_BASELINE.exists():
        traffic_baseline = json.loads(TRAFFIC_BASELINE.read_text())
    prover_failed = []
    prover_baseline = {}
    if PROVER_BASELINE.exists():
        prover_baseline = json.loads(PROVER_BASELINE.read_text())
    serve_failed = []
    serve_baseline = {}
    if SERVE_BASELINE.exists():
        serve_baseline = json.loads(SERVE_BASELINE.read_text())
    native_failed = []
    native_baseline = {}
    if NATIVE_BASELINE.exists():
        native_baseline = json.loads(NATIVE_BASELINE.read_text())
    shard_failed = []
    shard_baseline = {}
    if SHARD_BASELINE.exists():
        shard_baseline = json.loads(SHARD_BASELINE.read_text())
    native_wins = 0
    native_measured = 0
    results = {}
    for name in names:
        module = registry[name]
        datasets = QUICK_DATASETS[name] if args.quick else None
        compiled = compile_both(module)
        t0 = time.perf_counter()
        report = run_table(
            module,
            datasets=datasets,
            do_validate=not args.no_validate,
            loop_sample=4,
            compiled=compiled,
        )
        table_s = time.perf_counter() - t0
        print(report.render())
        print(f"validated: {report.validated}  "
              f"short-circuits: {report.sc_committed}  "
              f"dead-copy reuses: {report.sc_reused_copies}")
        if report.sc_failures:
            rejected = ", ".join(
                f"{rule} x{count}"
                for rule, count in sorted(report.sc_failures.items())
            )
            print(f"sc candidates rejected: {rejected}")
        if report.validation_ran and not report.validated:
            failed.append(name)

        fst = compiled[1].fuse_stats
        if fst.failures:
            rejected = ", ".join(
                f"{rule} x{count}"
                for rule, count in sorted(fst.failures.items())
            )
            print(f"fuse candidates rejected: {rejected}")

        if args.explain:
            print(report.traces["opt"].render())
            if report.sc_failure_records:
                print("sc rejections (optimized pipeline):")
                for r in report.sc_failure_records:
                    print(f"  {r.render()}")
            if fst.failure_records:
                print("fuse rejections (optimized pipeline):")
                rows = [
                    (r.rule, r.producer or "-", r.consumer or "-", r.location)
                    for r in fst.failure_records
                ]
                widths = [
                    max(len(h), *(len(row[i]) for row in rows))
                    for i, h in enumerate(("rule", "producer", "consumer"))
                ]
                hdr = (f"  {'rule':<{widths[0]}}  {'producer':<{widths[1]}}  "
                       f"{'consumer':<{widths[2]}}  location")
                print(hdr)
                print("  " + "-" * (len(hdr) - 2))
                for rule, prod, cons, loc in rows:
                    print(f"  {rule:<{widths[0]}}  {prod:<{widths[1]}}  "
                          f"{cons:<{widths[2]}}  {loc}")
                if fst.repeat_failures:
                    print(f"  ({fst.repeat_failures} repeat rejection(s) of "
                          f"already-tallied sites suppressed)")

        footprint = measure_footprint(module, PERF_DATASETS[name], compiled)
        opt_fp = footprint["opt"]
        print(f"footprint (opt): peak {opt_fp['peak_bytes']:,} / "
              f"naive {opt_fp['naive_bytes']:,} bytes "
              f"({opt_fp['saving']:.0%} saved)")
        if args.explain:
            for label in ("unopt", "opt"):
                peaks = footprint[label].get("space_peaks") or {}
                per_space = "  ".join(
                    f"{sp} {peaks[sp]:,}" for sp in sorted(peaks)
                )
                print(f"  space peaks ({label}): {per_space or 'hbm 0'}")
        recorded = baseline.get(name, {}).get("opt_peak_bytes")
        if recorded is not None and opt_fp["peak_bytes"] > recorded:
            print(f"FOOTPRINT REGRESSION: peak {opt_fp['peak_bytes']:,} "
                  f"exceeds baseline {recorded:,}", file=sys.stderr)
            footprint_failed.append(name)

        fusion = measure_fusion(
            module, PERF_DATASETS[name], PERF_DATASETS[name], compiled[1]
        )
        if fusion["committed"]:
            saved = fusion["unfused_traffic"] - fusion["fused_traffic"]
            pct = saved / fusion["unfused_traffic"] if fusion["unfused_traffic"] else 0
            print(f"fusion: {fusion['committed']} producer(s) inlined, "
                  f"traffic {fusion['fused_traffic']:,} vs "
                  f"{fusion['unfused_traffic']:,} unfused (-{pct:.0%}), "
                  f"outputs identical: {fusion['outputs_equal']}")
        if not fusion["ok"]:
            print(f"FUSION DIFFERENTIAL FAILED: {fusion}", file=sys.stderr)
            fusion_failed.append(name)

        recorded_traffic = traffic_baseline.get(name, {}).get("opt_traffic_bytes")
        recorded_unfused = traffic_baseline.get(name, {}).get("unfused_traffic_bytes")
        if recorded_traffic is not None and fusion["fused_traffic"] > recorded_traffic:
            print(f"TRAFFIC REGRESSION: {fusion['fused_traffic']:,} bytes "
                  f"exceeds baseline {recorded_traffic:,}", file=sys.stderr)
            traffic_failed.append(name)
        elif (recorded_traffic is not None and recorded_unfused is not None
              and recorded_traffic < recorded_unfused
              and fusion["fused_traffic"] >= fusion["unfused_traffic"]):
            # Tighter than the absolute ceiling: where the baseline records
            # a strict fusion win, losing it (fusion silently no longer
            # committing) fails even if traffic stays under the ceiling.
            print(f"TRAFFIC REGRESSION: fusion win lost "
                  f"({fusion['fused_traffic']:,} >= "
                  f"{fusion['unfused_traffic']:,} unfused; baseline won "
                  f"{recorded_unfused - recorded_traffic:,} bytes)",
                  file=sys.stderr)
            traffic_failed.append(name)

        prover_tier = _prover_tiers(compiled[1])
        decided = prover_tier["structural"] + prover_tier["polyhedral"]
        if decided or prover_tier["unknown"]:
            print(f"prover tiers: structural {prover_tier['structural']} / "
                  f"polyhedral {prover_tier['polyhedral']} / "
                  f"unknown {prover_tier['unknown']}")
        rec_tiers = prover_baseline.get(name)
        if rec_tiers is not None:
            rec_decided = rec_tiers["structural"] + rec_tiers["polyhedral"]
            if decided < rec_decided or prover_tier["unknown"] > rec_tiers["unknown"]:
                print(f"PROVER TIER REGRESSION: decided {decided} "
                      f"(baseline {rec_decided}), unknown "
                      f"{prover_tier['unknown']} (baseline "
                      f"{rec_tiers['unknown']})", file=sys.stderr)
                prover_failed.append(name)

        engine = None
        if args.json or args.write_native_baseline:
            engine = measure_engine(module, PERF_DATASETS[name], compiled)
            print(f"engine: interp {engine['interp_s']:.2f}s / "
                  f"vec {engine['vec_s']:.2f}s = "
                  f"{engine['speedup']:.1f}x  "
                  f"(hit rate {engine['vec_hit_rate']:.2f})")
            if not (engine["outputs_equal"] and engine["stats_equal"]
                    and engine["vec_hit_rate"] > 0
                    and engine["footprint_equal"]):
                tier_failed.append(name)
            native = engine["native"]
            if native is not None:
                native_measured += 1
                if native["native_speedup"] > 1.0:
                    native_wins += 1
                print(f"native: {native['native_s'] * 1000:.2f}ms warm = "
                      f"{native['native_speedup']:.1f}x over vec  "
                      f"(coverage {native['native_hit_rate']:.2f}, "
                      f"{native['native_launches']} launches, "
                      f"codegen {native['codegen_s']:.2f}s)")
                if not (native["outputs_equal"] and native["stats_equal"]
                        and native["footprint_equal"]):
                    print(f"NATIVE DIFFERENTIAL FAILED: {native}",
                          file=sys.stderr)
                    native_failed.append(name)
                rec = native_baseline.get(name, {}).get("native_hit_rate")
                if rec is not None and native["native_hit_rate"] < rec:
                    print(f"NATIVE COVERAGE REGRESSION: hit rate "
                          f"{native['native_hit_rate']:.2f} below baseline "
                          f"{rec:.2f}", file=sys.stderr)
                    native_failed.append(name)

        serve = None
        if args.json or args.write_serve_baseline:
            from repro.runtime.serve import measure_serve

            serve = measure_serve(
                module, PERF_DATASETS[name],
                requests=args.serve_requests, workers=args.serve_workers,
            )
            print(f"serve: {serve['throughput_rps']:.0f} req/s "
                  f"(p50 {serve['p50_ms']:.2f}ms / p99 "
                  f"{serve['p99_ms']:.2f}ms, {serve['workers']} workers)  "
                  f"warm/cold {serve['warm_cold_ratio']:.3f}  "
                  f"pool hit rate {serve['pool_hit_rate']:.2f}  "
                  f"cache {serve['cache_state']}")
            if not serve["ok"]:
                print(f"SERVE DIFFERENTIAL FAILED: {serve}", file=sys.stderr)
                serve_failed.append(name)
            elif serve["warm_cold_ratio"] >= 0.25:
                print(f"SERVE AMORTIZATION REGRESSION: warm/cold "
                      f"{serve['warm_cold_ratio']:.3f} >= 0.25 "
                      f"(100 warm calls {serve['warm_100_s']:.2f}s vs "
                      f"100 cold {serve['cold_100_s']:.2f}s)",
                      file=sys.stderr)
                serve_failed.append(name)
            else:
                rec = serve_baseline.get(name, {}).get("pool_hit_rate")
                # 0.05 slack: hit rates depend on worker interleaving.
                if rec is not None and serve["pool_hit_rate"] < rec - 0.05:
                    print(f"SERVE POOL REGRESSION: hit rate "
                          f"{serve['pool_hit_rate']:.2f} below baseline "
                          f"{rec:.2f}", file=sys.stderr)
                    serve_failed.append(name)

        results[name] = {
            "fusion": fusion,
            "footprint": footprint,
            "validated": report.validated,
            "validation_ran": report.validation_ran,
            "table_wall_s": table_s,
            "compile_s": report.compile_seconds,
            "short_circuits": report.sc_committed,
            "dead_copy_reuses": report.sc_reused_copies,
            "sc_rejected": dict(report.sc_failures),
            "sc_rejection_records": [
                {"rule": r.rule, "location": r.location, "witness": r.witness}
                for r in report.sc_failure_records
            ],
            "fuse_rejections": {
                "counts": dict(fst.failures),
                "repeat_suppressed": fst.repeat_failures,
                "records": [
                    {
                        "rule": r.rule,
                        "location": r.location,
                        "producer": r.producer,
                        "consumer": r.consumer,
                    }
                    for r in fst.failure_records
                ],
            },
            "prover_tier": prover_tier,
            "pipeline_trace": {
                label: trace.to_dict()
                for label, trace in report.traces.items()
            },
            "engine": engine,
            "serve": serve,
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
    if args.devices > 1 or args.write_shard_baseline:
        from repro.shard import scaling_report

        devices = args.devices if args.devices > 1 else 2
        for name in names:
            if name not in SHARD_DATASETS:
                continue
            dataset = SHARD_DATASETS[name]
            t0 = time.perf_counter()
            rep = scaling_report(name, dataset, devices)
            rep["wall_s"] = time.perf_counter() - t0
            shard_results[name] = rep
            print(f"shard ({name} x{devices}): "
                  f"identical {rep['outputs_identical']}  "
                  f"halo {rep['halo_bytes']:,} bytes / "
                  f"{rep['halo_exchanges']} exchanges  "
                  f"efficiency {rep['efficiency']:.3f} "
                  f"(speedup {rep['speedup']:.2f}x over 1 device)")
            if not rep["outputs_identical"]:
                print(f"SHARD DIFFERENTIAL FAILED: {name} x{devices} "
                      f"output differs from the 1-device run",
                      file=sys.stderr)
                shard_failed.append(name)
            elif rep["halo_bytes"] <= 0:
                print(f"SHARD HALO CHECK FAILED: {name} x{devices} "
                      f"exchanged no cross-device bytes", file=sys.stderr)
                shard_failed.append(name)
            rec = shard_baseline.get(name)
            if rec is not None and devices == rec.get("devices"):
                # Deterministic simulation: 0.02 slack only absorbs
                # deliberate cost-model retuning, not lost overlap.
                if rep["efficiency"] < rec["efficiency"] - 0.02:
                    print(f"SHARD SCALING REGRESSION: {name} efficiency "
                          f"{rep['efficiency']:.3f} below baseline "
                          f"{rec['efficiency']:.3f}", file=sys.stderr)
                    shard_failed.append(name)

    if args.write_shard_baseline:
        SHARD_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {
                "dataset": shard_results[name]["dataset"],
                "devices": shard_results[name]["devices"],
                "halo_bytes": shard_results[name]["halo_bytes"],
                "halo_exchanges": shard_results[name]["halo_exchanges"],
                "efficiency": round(shard_results[name]["efficiency"], 4),
            }
            for name in shard_results
        }
        SHARD_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {SHARD_BASELINE}")

    if args.write_footprint_baseline:
        FOOTPRINT_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {
                "dataset": results[name]["footprint"]["dataset"],
                "opt_peak_bytes": results[name]["footprint"]["opt"]["peak_bytes"],
                "opt_naive_bytes": results[name]["footprint"]["opt"]["naive_bytes"],
                "unopt_peak_bytes": results[name]["footprint"]["unopt"]["peak_bytes"],
            }
            for name in results
        }
        FOOTPRINT_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {FOOTPRINT_BASELINE}")

    if args.write_traffic_baseline:
        TRAFFIC_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {
                "dataset": results[name]["fusion"]["dry_dataset"],
                "opt_traffic_bytes": results[name]["fusion"]["fused_traffic"],
                "unfused_traffic_bytes": results[name]["fusion"]["unfused_traffic"],
            }
            for name in results
        }
        TRAFFIC_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {TRAFFIC_BASELINE}")

    if args.write_prover_baseline:
        PROVER_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: results[name]["prover_tier"] for name in results
        }
        PROVER_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {PROVER_BASELINE}")

    if args.write_native_baseline:
        NATIVE_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {
                "dataset": results[name]["engine"]["dataset"],
                "native_hit_rate":
                    results[name]["engine"]["native"]["native_hit_rate"],
                "native_launches":
                    results[name]["engine"]["native"]["native_launches"],
                "native_speedup_over_vec":
                    results[name]["engine"]["native"]["native_speedup"],
            }
            for name in results
            if (results[name]["engine"] or {}).get("native") is not None
        }
        payload["_wins_over_vec"] = native_wins
        NATIVE_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {NATIVE_BASELINE}")

    if args.write_serve_baseline:
        SERVE_BASELINE.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            name: {
                "dataset": results[name]["serve"]["dataset"],
                "requests": results[name]["serve"]["requests"],
                "workers": results[name]["serve"]["workers"],
                "warm_cold_ratio": results[name]["serve"]["warm_cold_ratio"],
                "pool_hit_rate": results[name]["serve"]["pool_hit_rate"],
                "throughput_rps": results[name]["serve"]["throughput_rps"],
            }
            for name in results
            if results[name]["serve"] is not None
        }
        SERVE_BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {SERVE_BASELINE}")

    if args.json:
        ts = time.strftime("%Y%m%d-%H%M%S")
        if args.out:
            out_path = Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
        else:
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

    if failed:
        print(f"VALIDATION FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    if tier_failed:
        print(f"EXECUTOR TIER CHECK FAILED: {', '.join(tier_failed)}",
              file=sys.stderr)
        return 1
    if footprint_failed:
        print(f"FOOTPRINT REGRESSION: {', '.join(footprint_failed)}",
              file=sys.stderr)
        return 1
    if fusion_failed:
        print(f"FUSION DIFFERENTIAL FAILED: {', '.join(fusion_failed)}",
              file=sys.stderr)
        return 1
    if traffic_failed:
        print(f"TRAFFIC REGRESSION: {', '.join(traffic_failed)}",
              file=sys.stderr)
        return 1
    if prover_failed:
        print(f"PROVER TIER REGRESSION: {', '.join(prover_failed)}",
              file=sys.stderr)
        return 1
    if serve_failed:
        print(f"SERVE REGRESSION: {', '.join(serve_failed)}",
              file=sys.stderr)
        return 1
    if native_failed:
        print(f"NATIVE TIER REGRESSION: {', '.join(sorted(set(native_failed)))}",
              file=sys.stderr)
        return 1
    if shard_failed:
        print(f"SHARD CHECK FAILED: {', '.join(sorted(set(shard_failed)))}",
              file=sys.stderr)
        return 1
    rec_wins = native_baseline.get("_wins_over_vec")
    if (rec_wins is not None and native_measured >= len(registry)
            and native_wins < min(rec_wins, 3)):
        print(f"NATIVE WALL-CLOCK REGRESSION: only {native_wins} of "
              f"{native_measured} benchmarks beat the vectorized tier "
              f"(baseline {rec_wins})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
