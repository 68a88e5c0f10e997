"""Structured diagnostics for the memory-IR verifier.

A :class:`Diagnostic` is one finding: a rule id, a severity, a statement
location (a ``body[i].loop.body[j]``-style path plus the pretty-printed
statement head), a message, and the rule's registered *suggested cause* --
which pass most likely regressed when the rule fires on pipeline output.

A :class:`Report` collects the findings of one verification run together
with a count of the individual proof obligations discharged, so "clean"
can be distinguished from "checked nothing".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    ERROR = "error"  # a proven violation, or an unproven safety obligation
    WARNING = "warning"  # suspicious but not proven wrong
    NOTE = "note"  # informational (e.g. a check was skipped as unprovable)

    def __str__(self) -> str:
        return self.value


#: Rule registry: id -> (summary, suggested cause when seen on pipeline
#: output).  The CLI prints the cause with each finding.
RULES = {
    "WF01": (
        "array pattern lacks a memory binding",
        "memory introduction did not run, or a pass dropped an annotation",
    ),
    "WF02": (
        "binding references a memory block that is never bound",
        "a rebase installed a binding whose block does not exist",
    ),
    "WF03": (
        "alloc size is provably negative",
        "a size expression was built from the wrong shape arithmetic",
    ),
    "WF04": (
        "if-existential return does not anti-unify with its branches",
        "memory introduction's anti-unification regressed",
    ),
    "WF05": (
        "pattern type shape disagrees with the binding's index function",
        "a rebase installed an index function of the wrong shape",
    ),
    "WF06": (
        "loop array parameter lacks a memory binding",
        "a pass rebuilt a loop without carrying its parameters' bindings",
    ),
    "B01": (
        "index-function image escapes its memory block",
        "an offset/stride was miscomputed, or an alloc was shrunk",
    ),
    "B02": (
        "index-function image could not be proven in bounds",
        "symbolic proof and concrete fallback were both inconclusive",
    ),
    "L01": (
        "name marked lastly-used is still observed afterwards",
        "last-use analysis is stale (program mutated after it ran)",
    ),
    "L02": (
        "memory block referenced before its alloc statement",
        "allocation hoisting moved or dropped an alloc",
    ),
    "R01": (
        "read observes an earlier overlapping write through an "
        "independent array",
        "an unsafe short-circuit rebase (overlap check regression)",
    ),
    "R02": (
        "map threads' accesses to shared memory are not provably disjoint",
        "a rebase into per-thread regions violates the V-B conditions",
    ),
    "R03": (
        "loop iterations' accesses are not provably disjoint",
        "a rebase violates the cross-iteration condition",
    ),
    "R04": (
        "access region unknown (composed index function) on a shared block",
        "a reshape produced a composed index function in shared memory",
    ),
    "F01": (
        "memory block freed while still used later or reachable",
        "stale mem_frees annotations (program mutated after annotate_frees)",
    ),
    "F02": (
        "memory block freed outside its allocation scope",
        "lifetime annotation attached to the wrong block",
    ),
    "FU01": (
        "elided intermediate of a fused kernel is still referenced",
        "fusion deleted the producer but a binding/alloc of the "
        "intermediate survived (dead-allocation sweep did not run?)",
    ),
    "FU02": (
        "fused kernel's write set disagrees with its provenance records",
        "fusion changed what the pair writes, or a later pass re-homed "
        "the consumer without rewriting the FusedRecord",
    ),
    "MS01": (
        "allocation does not fit its memory space's capacity",
        "placement chose a bounded on-chip space for a block that only "
        "fits in DRAM",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    severity: Severity
    location: str  # e.g. "body[3].loop.body[1]: let (A2 : ...) = ..."
    message: str

    @property
    def cause(self) -> str:
        return RULES.get(self.rule, ("", "unknown rule"))[1]

    def render(self) -> str:
        head = f"{self.severity.value.upper()} {self.rule} at {self.location}"
        lines = [head]
        lines.append(f"  {self.message}")
        lines.append(f"  suggested cause: {self.cause}")
        return "\n".join(lines)


@dataclass
class Report:
    """Findings of one verification run over one function."""

    fun_name: str
    stage: Optional[str] = None  # pipeline stage label, when applicable
    diagnostics: List[Diagnostic] = field(default_factory=list)
    checks: int = 0  # proof obligations discharged
    #: Deciding-tier tallies of the race checker's disjointness proofs
    #: (``structural`` / ``polyhedral`` / ``unknown``).
    tiers: Dict[str, int] = field(default_factory=dict)

    def add(
        self,
        rule: str,
        severity: Severity,
        location: str,
        message: str,
    ) -> None:
        self.diagnostics.append(Diagnostic(rule, severity, location, message))

    def count(self, n: int = 1) -> None:
        self.checks += n

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def notes(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.NOTE]

    def ok(self) -> bool:
        """No errors or warnings (notes are tolerated)."""
        return not self.errors and not self.warnings

    def render(self, show_notes: bool = False) -> str:
        label = self.fun_name + (f" [{self.stage}]" if self.stage else "")
        shown = [
            d
            for d in self.diagnostics
            if show_notes or d.severity is not Severity.NOTE
        ]
        if not shown:
            hidden = len(self.diagnostics)
            tail = f", {hidden} note(s) hidden" if hidden else ""
            return f"== {label} ==\n  OK ({self.checks} checks{tail})"
        lines = [
            f"== {label} ==",
            f"  {len(shown)} finding(s), {self.checks} checks",
        ]
        for d in shown:
            lines.extend("  " + ln for ln in d.render().splitlines())
        return "\n".join(lines)


class VerificationError(Exception):
    """Raised by ``compile_fun(..., verify=True)`` when a stage fails."""

    def __init__(self, stage: str, report: Report):
        self.stage = stage
        self.report = report
        rules = ", ".join(sorted({d.rule for d in report.diagnostics}))
        super().__init__(
            f"verification failed after {stage}: {rules}\n"
            + report.render(show_notes=True)
        )
