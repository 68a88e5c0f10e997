"""One record for every "no": what a layer declined to do, where and why.

Every optimization and every fast path here is opportunistic: a
short-circuit candidate whose safety conditions cannot be proved keeps
its copy, a producer that cannot be inlined stays materialized, a map
the C emitter cannot express runs vectorized, a launch whose structure
changed falls back for that launch, a request whose host schedule
depends on data is not taped.  Each of those layers raises
:class:`Declined` where it gives up, and its driver records one
:class:`Decision` in a :class:`DecisionLog` at the site it was working
on.  The verifier's *findings* (:mod:`repro.analysis.diagnostics`) are
deliberately a different type: it shares nothing with what it audits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional


class Declined(Exception):
    """A layer gives up: ``rule`` identifies the condition that failed,
    ``detail`` says why when the layer knows (an overlap it can point
    at, the construct it cannot express)."""

    def __init__(self, rule: str, detail: str = ""):
        super().__init__(f"{rule}: {detail}" if detail else rule)
        self.rule = rule
        self.detail = detail


@dataclass(frozen=True)
class Decision:
    """``layer`` declined ``site`` under ``rule``.

    ``site`` is the program-unique binding name of the statement the
    layer was working on (``t_63``), or two joined by ``->`` where the
    decision is about a pair (candidate and destination block, producer
    and consumer, block and donor)."""

    layer: str
    rule: str
    site: str
    detail: str = ""

    def __str__(self) -> str:
        out = f"{self.layer} {self.rule} @ {self.site}"
        return f"{out} ({self.detail})" if self.detail else out


@dataclass
class DecisionLog:
    """Decisions in the order they were first made.

    One site, one tally: fixpoint rounds re-attempt every candidate and
    every request re-dispatches every statement, so a site declined
    again (possibly under another rule, the program having changed
    around it) only counts in ``repeats``; the rule that first decided
    it stands."""

    records: List[Decision] = field(default_factory=list)
    repeats: int = 0

    def add(self, layer: str, rule: str, site: str, detail: str = "") -> Decision:
        """Record a decision; returns the one that stands for the site."""
        standing = self.at(layer, site)
        if standing is not None:
            self.repeats += 1
            return standing
        self.records.append(Decision(layer, rule, site, detail))
        return self.records[-1]

    def at(self, layer: str, site: str) -> Optional[Decision]:
        for r in self.records:
            if r.site == site and r.layer == layer:
                return r
        return None

    @property
    def tallies(self) -> Dict[str, int]:
        """rule -> number of sites it decided (first-seen order)."""
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.rule] = out.get(r.rule, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "records": [asdict(r) for r in self.records],
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "DecisionLog":
        return cls([Decision(**r) for r in d["records"]], d["repeats"])


def render_table(decisions: Iterable[Decision]) -> str:
    """The ``decisions`` table of ``python -m repro.bench --explain``."""
    head = ("layer", "rule", "site", "detail")
    rows = [head] + [(d.layer, d.rule, d.site, d.detail) for d in decisions]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = [
        "  " + "  ".join(
            [c.ljust(w) for c, w in zip(r, widths)] + [r[3]]
        ).rstrip()
        for r in rows
    ]
    lines.insert(1, "  " + "-" * (len(lines[0]) - 2))
    return "\n".join(lines)
