"""``python -m perfbench compare A.json B.json``.

Per workload and end-to-end metric: both values, the relative change in
the metric's *bad* direction, the bound, and a verdict.  ``B`` regresses
when it is worse than ``A`` by more than the bound; the five counts made
by the compiler must be identical (``exact-mismatch`` otherwise).  This
is the tool the repeatability criterion is checked with: two sets of runs
of one commit must compare clean.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from perfbench.spec import END_TO_END, EXACT


def load(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    for flag, why in (
        ("smoke", "a --smoke run measures nothing"),
        ("trace", "end-to-end metrics come from the untraced run"),
    ):
        if doc.get(flag):
            print(f"{path}: {why}; refusing to compare", file=sys.stderr)
            raise SystemExit(2)
    return doc


def worsening(spec: dict, a: float, b: float) -> float:
    """Relative change from ``a`` to ``b``, positive when ``b`` is worse."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    delta = (b - a) / abs(a)
    return delta if spec["better"] == "lower" else -delta


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m perfbench compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (load(p) for p in argv)
    bad = 0
    head = (
        f"{'workload':10s} {'metric':20s} {'A':>16s} {'B':>16s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict"
    )
    print(head)
    print("-" * len(head))
    for wl, ra in a["workloads"].items():
        rb = b["workloads"].get(wl)
        if rb is None:
            print(f"{wl:10s} missing from B")
            bad += 1
            continue
        for name, spec in END_TO_END.items():
            va, vb = ra["metrics"][name], rb["metrics"][name]
            worse = worsening(spec, va, vb)
            if name in EXACT:
                verdict = "ok" if va == vb else "exact-mismatch"
            else:
                verdict = "regressed" if worse > spec["bound"] else "ok"
            bad += verdict != "ok"
            print(
                f"{wl:10s} {name:20s} {va:16.6g} {vb:16.6g} "
                f"{worse:+9.1%} {spec['bound']:6.3f}  {verdict}"
            )
        for side, r in (("A", ra), ("B", rb)):
            if r["ops_failed"]:
                print(f"{wl:10s} {side}: {r['ops_failed']} of "
                      f"{r['ops_attempted']} ops failed")
                bad += 1
    print(f"{bad} problem(s)" if bad else "all within bounds")
    return 1 if bad else 0
