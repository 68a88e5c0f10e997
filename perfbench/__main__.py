"""``python -m perfbench``: run workloads, print every metric, check outputs.

Each selected workload runs in its own fresh subprocess
(:mod:`perfbench.worker`), one after another, isolated from the checkout:
working directory, ``REPRO_NATIVE_CACHE`` and ``TMPDIR`` sit in a scratch
directory (``.perfbench_work/``, removed on exit), ``PYTHONPATH`` is
absolute, and ``git status --porcelain`` must read the same before and
after.  The last line on stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last) workload.

``python -m perfbench compare A.json B.json`` compares two ``--json``
files; see :mod:`perfbench.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: One workload must end within 180 s; leave room to print.
DEADLINE_S = 170.0

#: Settings of the program under test that would change what is measured.
SCRUBBED_ENV = ("REPRO_NATIVE", "REPRO_PROGCACHE", "REPRO_CC", "REPRO_PRINT_AFTER")


def isolation_env(root: Path, work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([inherited] if inherited else [])
    )
    env["REPRO_NATIVE_CACHE"] = str(work / "nativecache")
    env["TMPDIR"] = str(work / "tmp")
    # One BLAS/OpenMP thread per Python thread: with at most nproc
    # clients, no run has more threads than cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_status(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=root, capture_output=True,
            text=True, timeout=60,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_workload(name: str, args, root: Path, work: Path) -> dict:
    """Setup probes, then the worker; returns the worker's result with
    ``setup_s`` replaced by the median over all set-ups of this run."""
    from perfbench.spec import WORKLOADS, reps_for

    t_start = time.monotonic()
    for sub in ("tmp", "cwd"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    env = isolation_env(root, work)
    base = [
        sys.executable, "-m", "perfbench.worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])

    def worker(extra: List[str], **kw) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.monotonic() - t_start)
        # subprocess.run kills the child and waits for it on timeout
        return subprocess.run(
            base + extra, env=env, cwd=work / "cwd", timeout=max(1.0, left),
            check=True, **kw,
        )

    reps = reps_for(WORKLOADS[name], args.seconds, args.smoke, bool(args.trace))
    setups, raw = [], []
    for _ in range(reps.setup - 1):
        out = worker(["--setup-only"], stdout=subprocess.PIPE, text=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        setups.append(probe["setup_s"])
        raw.append(probe["raw"])
    result_file = work / f"{name}.json"
    extra = ["--result", str(result_file), "--out", str(args.out)]
    if args.inject_fault:
        extra.append("--inject-fault")
    worker(extra, stdout=sys.stderr)
    result = json.loads(result_file.read_text())
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_s_reps"] = len(setups)
    result["raw"]["setup_s"] += raw
    return result


def print_table(result: dict, registry: Dict[str, dict]) -> None:
    tag = " SMOKE (not a measurement)" if result["smoke"] else ""
    print(
        f"== {result['workload']}: seed {result['seed']}, "
        f"{result['seconds']:g} s, ops {result['ops_attempted']} attempted / "
        f"{result['ops_failed']} failed{tag} =="
    )
    print(f"{'metric':32s} {'value':>18s} {'unit':12s} {'better':7s} bound")
    for name, spec in registry.items():
        bound = f"{spec['bound']:g}" if "bound" in spec else "-"
        print(
            f"{name:32s} {result['metrics'][name]:18.6g} {spec['unit']:12s} "
            f"{spec['better']:7s} {bound}"
        )
    print("samples:", json.dumps(result["samples"], sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {root / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import compare
    from perfbench.spec import END_TO_END, NOMINAL_SECONDS, PER_LAYER, WORKLOADS

    if argv and argv[0] == "compare":
        return compare.main(argv[1:])

    ap = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                    help="measuring time the repetition counts are scaled to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the span-recording run, per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="minimum repetitions; exercises the code, measures nothing")
    ap.add_argument("--json", type=Path, help="write all results here")
    ap.add_argument("--out", type=Path,
                    help="keep Chrome traces and per-layer tables here")
    ap.add_argument("--inject-fault", action="store_true",
                    help="self-test: perturb one reference; must fail")
    args = ap.parse_args(argv)

    registry = PER_LAYER if args.trace else END_TO_END
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    keep_out = args.out is not None
    args.out = (args.out if keep_out else work / "out").resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    before = git_status(root)
    results: Dict[str, dict] = {}
    try:
        for name in args.workload or list(WORKLOADS):
            results[name] = run_workload(name, args, root, work)
            print_table(results[name], registry)
            if args.trace and keep_out:
                lines = [
                    f"{k}\t{results[name]['metrics'][k]!r}\t{v['unit']}"
                    for k, v in registry.items()
                ]
                (args.out / f"{name}.layers.tsv").write_text("\n".join(lines) + "\n")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: worker did not finish: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass
    if git_status(root) != before:
        print("perfbench: the run changed `git status`; it must leave the "
              "checkout as it found it", file=sys.stderr)
        return 1

    if args.json:
        args.json.write_text(json.dumps({
            "schema": 1, "smoke": args.smoke, "trace": bool(args.trace),
            "seed": args.seed, "seconds": args.seconds, "workloads": results,
        }, indent=1))
    failed = 0
    for r in results.values():
        failed += r["ops_failed"]
        for line in r["failures"]:
            print(f"FAILED [{r['workload']}]: {line}", file=sys.stderr)
        print(json.dumps({
            "correct": r["ops_failed"] == 0,
            "attempted": r["ops_attempted"],
            "failed": r["ops_failed"],
            "metrics": {
                k: {"value": r["metrics"][k], "unit": v["unit"]}
                for k, v in registry.items()
            },
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
