"""Overlap audit: replay logged disjointness queries through both tiers.

Every disjointness query the compiler's passes issue goes through a
pooled :class:`~repro.lmad.overlap.TieredChecker`, which records the
query (operand LMADs, assumption context, deciding tier, result) in the
pool's ``query_log``.  The audit re-decides each logged query from
scratch with an independent structural checker and an independent
polyhedral engine and cross-examines the answers:

* **soundness**: the structural tier claiming *disjoint* while the
  relation engine proves the intersection ``NONEMPTY`` (or vice versa:
  a polyhedral EMPTY on a pair the structural tier can refute with a
  concrete shared point) is a prover bug -- the two tiers decide the
  same mathematical question and exact answers may never contradict;
* **reproducibility**: the recorded result must match the replayed
  tiered result -- the pool memos must not change answers.

Used by ``python -m repro.analysis --overlap-audit`` (wired into CI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.isl.emptiness import Verdict
from repro.isl.engine import PolyEngine
from repro.lmad.overlap import NonOverlapChecker, ProverPool
from repro.symbolic import Prover


@dataclass
class AuditResult:
    """Replay outcome for one compilation's query log."""

    name: str
    preset: str
    queries: int = 0
    dropped: int = 0
    structural: int = 0
    polyhedral: int = 0
    unknown: int = 0
    disagreements: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.disagreements

    def render(self) -> str:
        status = "ok" if self.ok() else "DISAGREEMENT"
        line = (
            f"[{status}] {self.name}/{self.preset}: {self.queries} queries "
            f"(structural {self.structural}, polyhedral {self.polyhedral}, "
            f"unknown {self.unknown}"
            + (f", {self.dropped} dropped from log" if self.dropped else "")
            + ")"
        )
        return "\n".join([line] + [f"    {d}" for d in self.disagreements])


def audit_pool(pool: ProverPool, name: str, preset: str) -> AuditResult:
    """Replay ``pool.query_log`` through fresh instances of both tiers."""
    res = AuditResult(name=name, preset=preset, dropped=pool.log_dropped)
    for rec in pool.query_log:
        res.queries += 1
        prover = Prover(rec.ctx)
        structural = NonOverlapChecker(prover).check(rec.l1, rec.l2)
        verdict = PolyEngine(prover).accesses_disjoint(rec.l1, rec.l2)
        if structural:
            res.structural += 1
        elif verdict is Verdict.EMPTY:
            res.polyhedral += 1
        else:
            res.unknown += 1

        if structural and verdict is Verdict.NONEMPTY:
            res.disagreements.append(
                f"structural=disjoint but polyhedral=NONEMPTY for "
                f"{rec.l1} vs {rec.l2} (client {rec.client})"
            )
        replayed = structural or verdict is Verdict.EMPTY
        if replayed != rec.result:
            res.disagreements.append(
                f"recorded {rec.result} (tier {rec.tier}) but replay gives "
                f"{replayed} for {rec.l1} vs {rec.l2} (client {rec.client})"
            )
    return res


def audit_compilation(fun, name: str, preset: str) -> AuditResult:
    """Compile ``fun`` under ``preset`` and audit the pool it used."""
    from repro.pipeline import CompileContext, PassManager, preset_pipeline

    ctx = CompileContext(source=fun)
    PassManager(preset_pipeline(preset), name=preset).run(ctx)
    return audit_pool(ctx.provers, name, preset)
