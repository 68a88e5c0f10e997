"""Structured per-compilation observability: the :class:`PipelineTrace`.

The :class:`~repro.pipeline.PassManager` appends one :class:`PassRecord`
per event it runs -- optimization passes, auto-scheduled analysis
(re-)runs, and verifier checkpoints -- carrying wall-clock time and the
IR size / allocation-count deltas the pass produced, plus the pass's own
log of declined candidates (:class:`repro.decisions.DecisionLog`, the
very object its ``ShortCircuitStats`` / ``FuseStats`` / ``ReuseStats``
holds).

The whole trace is JSON-serializable (:meth:`PipelineTrace.to_dict` /
:meth:`from_dict` round-trip losslessly) and is surfaced by
``python -m repro.bench --json`` for the perf trajectory and by
``python -m repro.bench --explain`` as a human-readable table
(:meth:`PipelineTrace.render`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.decisions import DecisionLog


#: Record kinds, in the order they typically appear.
KIND_PASS = "pass"
KIND_ANALYSIS = "analysis"
KIND_VERIFY = "verify"


@dataclass
class PassRecord:
    """One pipeline event: a pass run, an analysis run, or a verify stop.

    ``key`` is the unique stage key (``dead_allocs``, ``dead_allocs#2``,
    ...): a pass that runs several times gets one record -- and one
    timing -- per occurrence, so the sum of all record timings is the
    exact compile time (no occurrence silently overwrites another).
    """

    kind: str  # "pass" | "analysis" | "verify"
    name: str  # the pass / analysis / verify-label name
    key: str  # unique stage key within the trace
    seconds: float = 0.0
    #: Did the pass change the IR?  (False for analyses and verify runs.)
    changed: bool = False
    #: True when the occurrence was scheduled but its condition held it off
    #: (e.g. the dead-alloc sweep after a fusion round that committed
    #: nothing).
    skipped: bool = False
    #: IR statement count before/after (mutating passes only; -1 = n/a).
    stmts_before: int = -1
    stmts_after: int = -1
    #: Alloc statement count before/after (mutating passes only; -1 = n/a).
    allocs_before: int = -1
    allocs_after: int = -1
    #: Pass-specific counters (committed, merged, checks, errors, ...).
    detail: Dict[str, object] = field(default_factory=dict)
    #: What the pass declined to do, site by site, and why.
    declined: DecisionLog = field(default_factory=DecisionLog)

    @property
    def rejections(self) -> Dict[str, int]:
        """Per-rule tallies of ``declined``."""
        return self.declined.tallies

    @property
    def stmts_delta(self) -> int:
        if self.stmts_before < 0 or self.stmts_after < 0:
            return 0
        return self.stmts_after - self.stmts_before

    @property
    def allocs_delta(self) -> int:
        if self.allocs_before < 0 or self.allocs_after < 0:
            return 0
        return self.allocs_after - self.allocs_before

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "key": self.key,
            "seconds": self.seconds,
            "changed": self.changed,
            "skipped": self.skipped,
            "stmts_before": self.stmts_before,
            "stmts_after": self.stmts_after,
            "allocs_before": self.allocs_before,
            "allocs_after": self.allocs_after,
            "detail": dict(self.detail),
            "rejections": self.rejections,
            "declined": self.declined.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PassRecord":
        d = dict(d, declined=DecisionLog.from_dict(d["declined"]))
        del d["rejections"]  # derived from the log
        return cls(**d)  # type: ignore[arg-type]


@dataclass
class PipelineTrace:
    """Everything one :class:`~repro.pipeline.PassManager` run observed."""

    pipeline: str  # preset name, or a hand-built PassManager's own
    fun_name: str = ""
    records: List[PassRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def compile_seconds(self) -> float:
        """Exact total: every occurrence of every stage, once each."""
        return sum(r.seconds for r in self.records)

    def stage_seconds(self) -> Dict[str, float]:
        """Unique stage key -> seconds (insertion-ordered)."""
        return {r.key: r.seconds for r in self.records}

    def pass_names(self, kinds=(KIND_PASS,)) -> List[str]:
        """Ordered names of the records of the given kinds (occurrences
        included, skipped ones too -- the *scheduled* pipeline)."""
        return [r.name for r in self.records if r.kind in kinds]

    def executed_pass_names(self) -> List[str]:
        """Ordered names of pass records that actually ran."""
        return [
            r.name
            for r in self.records
            if r.kind == KIND_PASS and not r.skipped
        ]

    def record(self, key: str) -> Optional[PassRecord]:
        for r in self.records:
            if r.key == key:
                return r
        return None

    def rejections(self) -> Dict[str, Dict[str, int]]:
        """Pass name -> per-rule rejection tallies, aggregated over
        occurrences (the structured diagnostics of --explain)."""
        out: Dict[str, Dict[str, int]] = {}
        for r in self.records:
            if not r.rejections:
                continue
            tally = out.setdefault(r.name, {})
            for rule, count in r.rejections.items():
                tally[rule] = tally.get(rule, 0) + count
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "fun_name": self.fun_name,
            "compile_seconds": self.compile_seconds,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "PipelineTrace":
        return cls(
            pipeline=str(d["pipeline"]),
            fun_name=str(d.get("fun_name", "")),
            records=[
                PassRecord.from_dict(r) for r in d.get("records", [])
            ],  # type: ignore[union-attr]
        )

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_json(cls, s: str) -> "PipelineTrace":
        return cls.from_dict(json.loads(s))

    # ------------------------------------------------------------------
    # Pretty-printing (--explain)
    # ------------------------------------------------------------------
    def render(self) -> str:
        head = (
            f"{'key':<24s} {'kind':<8s} {'ms':>8s} "
            f"{'Δstmts':>7s} {'Δallocs':>8s}  notes"
        )
        lines = [
            f"== pipeline {self.pipeline!r} on {self.fun_name or '?'} -- "
            f"{self.compile_seconds * 1e3:.2f}ms, "
            f"{len([r for r in self.records if r.kind == KIND_PASS])} passes, "
            f"{len([r for r in self.records if r.kind == KIND_ANALYSIS])} "
            f"analyses, "
            f"{len([r for r in self.records if r.kind == KIND_VERIFY])} "
            f"verify points ==",
            head,
            "-" * len(head),
        ]
        for r in self.records:
            if r.skipped:
                note = "(skipped)"
            else:
                bits = [
                    f"{k}={v}"
                    for k, v in r.detail.items()
                    if not isinstance(v, (dict, list))
                ]
                if r.rejections:
                    bits.append(f"rejected={sum(r.rejections.values())}")
                note = " ".join(bits)
            ds = f"{r.stmts_delta:+d}" if r.stmts_before >= 0 else ""
            da = f"{r.allocs_delta:+d}" if r.allocs_before >= 0 else ""
            lines.append(
                f"{r.key:<24s} {r.kind:<8s} {r.seconds * 1e3:8.2f} "
                f"{ds:>7s} {da:>8s}  {note}"
            )
        rej = self.rejections()
        if rej:
            lines.append("rejections:")
            for name, tally in sorted(rej.items()):
                rendered = ", ".join(
                    f"{rule} x{count}" for rule, count in sorted(tally.items())
                )
                lines.append(f"  {name}: {rendered}")
        return "\n".join(lines)
