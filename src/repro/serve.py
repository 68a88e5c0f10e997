"""Command-line serving harness: compile once, serve many.

    python -m repro.serve                      # serve all seven benchmarks
    python -m repro.serve nw lud               # a subset
    python -m repro.serve nw --requests 500    # heavier traffic
    python -m repro.serve nw --workers 8       # wider worker pool
    python -m repro.serve nw --pipeline sc     # a different preset
    python -m repro.serve --json               # machine-readable report

Each benchmark is compiled into a :class:`repro.runtime.Program` (hitting
the persistent program cache), provisioned with pooled buffers, and
served by a pool of worker threads draining a request queue.  The report
carries throughput, p50/p99 latency, warm-vs-cold amortization (mean
warm call vs mean cold compile+run, extrapolated to the 100-call
windows), pool hit rate, the launch-tape state of each shape class
served (captured and replayed, or off with the reason), and the
correctness verdicts (pooled outputs
and ``ExecStats`` signatures must match a fresh uncached run on both
executor tiers).  Exit status is nonzero if any benchmark fails the
correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from repro.bench.harness import PERF_DATASETS
from repro.bench.programs import all_benchmarks
from repro.runtime.serve import measure_serve


def main(argv=None) -> int:
    warnings.filterwarnings("ignore")
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("benchmarks", nargs="*", help="subset to serve")
    parser.add_argument("--requests", type=int, default=100, metavar="N",
                        help="warm requests per benchmark (default 100)")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="concurrent worker threads (default 4)")
    parser.add_argument("--cold-samples", type=int, default=3, metavar="N",
                        help="cold compile+run samples for the "
                             "amortization baseline (default 3)")
    parser.add_argument("--pipeline", default="full",
                        choices=("unopt", "sc", "sc+fuse", "full"),
                        help="pipeline preset to serve (default full)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--list", action="store_true",
                        help="list available benchmarks")
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

    report = {}
    failed = []
    for name in names:
        serve = measure_serve(
            registry[name],
            PERF_DATASETS[name],
            requests=args.requests,
            workers=args.workers,
            cold_samples=args.cold_samples,
            pipeline=args.pipeline,
        )
        report[name] = serve
        if not args.json:
            print(f"== {name} ({serve['pipeline']}, cache "
                  f"{serve['cache_state']}) ==")
            print(f"  throughput : {serve['throughput_rps']:10.1f} req/s "
                  f"({serve['requests']} requests, "
                  f"{serve['workers']} workers)")
            print(f"  latency    : p50 {serve['p50_ms']:.2f}ms / "
                  f"p99 {serve['p99_ms']:.2f}ms / "
                  f"mean {serve['mean_ms']:.2f}ms")
            print(f"  amortize   : warm {serve['warm_call_s'] * 1e3:.2f}ms "
                  f"vs cold {serve['cold_call_s'] * 1e3:.2f}ms per call "
                  f"-> 100 warm = {serve['warm_cold_ratio']:.1%} "
                  f"of 100 cold")
            print(f"  pool       : {serve['pool_hits_total']} hits / "
                  f"{serve['pool_misses_total']} misses over the "
                  f"program lifetime (rate {serve['pool_hit_rate']:.2f})")
            print(f"  memo       : {serve['memo_hits']} responses "
                  f"recalled (rate {serve['memo_hit_rate']:.2f})")
            for entry in serve["tape"].values():
                what = (
                    f"off: {entry['reason']}" if entry["state"] == "off"
                    else f"{entry['state']}, {entry['launches']} launches "
                         f"a request, {entry['replays']} replays"
                )
                print(f"  tape       : {what}")
            print(f"  identical  : {serve['ok']}")
        if not serve["ok"]:
            failed.append(name)

    if args.json:
        print(json.dumps(report, indent=2))
    if failed:
        print(f"SERVE CORRECTNESS FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
