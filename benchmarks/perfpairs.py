"""Paired perfbench runs of this checkout against its parent revision.

    python benchmarks/perfpairs.py OUT.json [--parent REV]

Run it from the checkout root.  The parent (default ``HEAD~1``; pass
``--parent HEAD`` to measure uncommitted changes) is cloned into a
temporary directory.  For each of :data:`PAIRS` pairs and every workload
of ``BENCHMARK.json``, ``python3 -m perfbench --workload W --seed i
--json F`` runs once in each tree, one after the other: odd pairs run
the parent first, even pairs the checkout first, so a drift of the
machine's speed falls on both sides alike.  Every run writes a file of
its own; a run that leaves none (a worker crashed, or the run changed
``git status``) stops the script with exit status 1 and no
``OUT.json``.  perfbench requires that a run leave ``git status`` as it
found it, so this script writes nothing until every run has finished.
Then it writes ``OUT.json`` and appends one line per workload to
``benchmarks/results/perf_history.jsonl``: the checkout's sha, its
median of every end-to-end metric, and the line count of ``src/``.

``OUT.json`` has one schema.  Per workload, the ``[failed, attempted]``
operations of every run, and per end-to-end metric of
``BENCHMARK.json``: every run's value on each side, both medians, the
parent's quartiles, how many pairs the checkout won, whether every run of
both sides gave the same value (``byte_equal``: the exact metrics must),
and the ``verdict`` under the metric's bound, the benchmark's rule:

* ``worse``: the checkout's median is worse than the parent's by more
  than the bound;
* ``gain``: the checkout won at least nine of ten pairs (a tie counts
  for neither side) and its median is better by more than the parent's
  interquartile spread;
* ``unresolved``: the parent's interquartile spread is wider than the
  bound, and not every checkout run beats every parent run;
* ``within bound`` otherwise.

On a two-core x86 box ten pairs of the four workloads take about 35
minutes.  The exit status is 1 when any run failed an operation or any
metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: Pairs per workload: the benchmark rule compares ten.
PAIRS = 10


def git(*args: str, cwd: Path = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd or ROOT, check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def quartiles(values: Sequence[float]) -> List[float]:
    """The 25th and 75th percentiles (inclusive method)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(spec: dict, parent: List[float], change: List[float]) -> dict:
    """One metric's runs, medians, parent quartiles, wins and verdict."""
    lower = spec["better"] == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    worse_by = (mc - mp) if lower else (mp - mc)
    rel = worse_by / abs(mp) if mp else (0.0 if worse_by <= 0 else float("inf"))
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    if rel > spec["bound"]:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and -worse_by > spread:
        verdict = "gain"
    elif spread > spec["bound"] * abs(mp) and not all(
        beats(c, p) for c in change for p in parent
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "parent_median": mp,
        "change_median": mc,
        "parent_quartiles": [q1, q3],
        "change_wins": wins,
        "byte_equal": len(set(map(repr, parent + change))) == 1,
        "verdict": verdict,
    }


def src_lines(tree: Path) -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in (tree / "src").rglob("*.py")
    )


def append_history(report: dict, lines: int) -> None:
    """One line per workload: the change, its medians, ``src/`` lines."""
    path = ROOT / "benchmarks" / "results" / "perf_history.jsonl"
    with path.open("a") as f:
        for w, entry in report["workloads"].items():
            f.write(json.dumps({
                "sha": report["change"], "workload": w,
                "medians": {
                    name: m["change_median"]
                    for name, m in entry["metrics"].items()
                },
                "src_lines": lines,
            }) + "\n")


def run_perfbench(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One ``perfbench`` run of ``workload`` in ``tree``; its result.

    perfbench exits 1 both when an operation failed (it still writes
    ``out``, whose counts say so) and when it wrote nothing; the second
    raises :class:`RuntimeError`."""
    out.unlink(missing_ok=True)
    rc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload,
         "--seed", str(seed), "--json", str(out)],
        cwd=tree, check=False, stdout=subprocess.DEVNULL,
    ).returncode
    if not out.exists():
        raise RuntimeError(
            f"perfbench --workload {workload} --seed {seed} in {tree} "
            f"exited {rc} and wrote no result"
        )
    return json.loads(out.read_text())["workloads"][workload]


def main(argv: Sequence[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--parent", default="HEAD~1")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    parent = git("rev-parse", args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    runs: Dict[str, Dict[str, List[dict]]] = {
        w: {side: [] for side in SIDES} for w in workloads
    }
    with tempfile.TemporaryDirectory(prefix="perfpairs-") as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "parent"
        git("clone", "--quiet", "--no-checkout", str(ROOT), str(parent_tree))
        git("checkout", "--quiet", "--detach", parent, cwd=parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(1, PAIRS + 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    try:
                        res = run_perfbench(
                            trees[side], w, i, tmp / f"{side}-{w}-{i}.json"
                        )
                    except RuntimeError as e:
                        print(f"perfpairs: {e}", file=sys.stderr)
                        return 1
                    runs[w][side].append(res)
                    print(f"pair {i} {w} {side}: {res['ops_failed']} of "
                          f"{res['ops_attempted']} ops failed",
                          file=sys.stderr, flush=True)

    report = {
        "schema": 1,
        "what": "python3 -m perfbench --workload W --seed i, alternating "
        "parent/change per pair (odd pairs parent first); values as "
        "perfbench reports them",
        "parent": parent,
        "change": head + (" + uncommitted changes" if dirty else ""),
        "pairs": PAIRS,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    bad = False
    for w in workloads:
        failed = {
            side: [[r["ops_failed"], r["ops_attempted"]] for r in runs[w][side]]
            for side in SIDES
        }
        metrics = {
            name: summarize(
                spec,
                [r["metrics"][name] for r in runs[w]["parent"]],
                [r["metrics"][name] for r in runs[w]["change"]],
            )
            for name, spec in specs.items()
        }
        report["workloads"][w] = {"failed": failed, "metrics": metrics}
        bad |= any(f for side in SIDES for f, _ in failed[side])
        bad |= any(m["verdict"] == "worse" for m in metrics.values())
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    append_history(report, src_lines(ROOT))
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:10s} {name:20s} {m['parent_median']:14.6g} "
                  f"{m['change_median']:14.6g}  {m['verdict']}"
                  + ("  byte-equal" if m["byte_equal"] else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
