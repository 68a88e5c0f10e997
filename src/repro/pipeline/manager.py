"""The :class:`PassManager`: runs a pipeline of passes over one
:class:`~repro.pipeline.CompileContext`.

Responsibilities:

* **Scheduling** -- run the pass list in order, exactly as given (the
  derived analyses are entries of the list like any other pass); an
  occurrence whose ``condition`` says no is recorded as skipped (with
  its verify checkpoint still honored).
* **Verification** -- with ``verify=True`` on the context, run the
  :mod:`repro.analysis` verifier at every pass that declares a
  ``verify_label`` and raise :class:`repro.analysis.VerificationError`
  naming the offending stage on the first report with errors.
* **Observability** -- emit one uniquely-keyed, individually timed
  :class:`~repro.pipeline.trace.PassRecord` per event (a pass that runs
  three times gets three keys: ``dead_allocs``, ``dead_allocs#2``,
  ``dead_allocs#3``), with IR statement / allocation deltas for mutating
  passes, collected into a :class:`~repro.pipeline.PipelineTrace`.
* **Snapshots** -- when the ``REPRO_PRINT_AFTER`` environment variable
  names a pass (by name or unique key; ``all`` matches everything), the
  pretty-printed IR is dumped to stderr right after that pass runs.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.pipeline.context import CompileContext
from repro.pipeline.passes import Pass
from repro.pipeline.trace import KIND_VERIFY, PassRecord, PipelineTrace

#: Environment variable: comma-separated pass names/keys (or ``all``)
#: after which to dump the IR to stderr.
PRINT_AFTER_ENV = "REPRO_PRINT_AFTER"


class PassManager:
    """Run ``passes`` in order against a compile context."""

    def __init__(self, passes: Sequence[Pass], name: str = "custom"):
        self.passes: List[Pass] = list(passes)
        self.name = name

    # ------------------------------------------------------------------
    def run(self, ctx: CompileContext) -> PipelineTrace:
        trace = PipelineTrace(pipeline=self.name, fun_name=ctx.source.name)
        used_keys: Dict[str, int] = {}
        print_after = self._print_after_tokens()

        for p in self.passes:
            self._execute(p, ctx, trace, used_keys, print_after)
        return trace

    # ------------------------------------------------------------------
    def _execute(
        self,
        p: Pass,
        ctx: CompileContext,
        trace: PipelineTrace,
        used_keys: Dict[str, int],
        print_after,
    ) -> None:
        from repro.pipeline.passes import _count_stmts

        if p.condition is not None and not p.condition(ctx):
            rec = PassRecord(kind=p.kind, name=p.name, key="", skipped=True)
            rec.key = self._unique_key(p.name, used_keys)
            trace.records.append(rec)
        else:
            measure = p.mutates_ir and ctx.mfun is not None
            before = _count_stmts(ctx.mfun) if measure else (-1, -1)
            t0 = time.perf_counter()
            rec = p.run(ctx, ctx.mfun if ctx.mfun is not None else ctx.source)
            rec.seconds = time.perf_counter() - t0
            rec.key = self._unique_key(p.name, used_keys)
            if p.mutates_ir and ctx.mfun is not None:
                after = _count_stmts(ctx.mfun)
                rec.stmts_before, rec.allocs_before = before
                rec.stmts_after, rec.allocs_after = after
            trace.records.append(rec)
            self._maybe_print(p, rec, ctx, print_after)
        if p.verify_label is not None and ctx.verify:
            self._verify(p.verify_label, ctx, trace, used_keys)

    # ------------------------------------------------------------------
    def _verify(
        self,
        label: str,
        ctx: CompileContext,
        trace: PipelineTrace,
        used_keys: Dict[str, int],
    ) -> None:
        from repro.analysis import VerificationError, verify_fun

        t0 = time.perf_counter()
        report = verify_fun(ctx.mfun, stage=label, pool=ctx.provers)
        seconds = time.perf_counter() - t0
        ctx.verify_reports[label] = report
        name = f"verify[{label}]"
        detail = {
            "checks": report.checks,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "notes": len(report.notes),
        }
        if report.tiers:
            detail["tiers"] = dict(report.tiers)
        rec = PassRecord(
            kind=KIND_VERIFY,
            name=name,
            key=self._unique_key(name, used_keys),
            seconds=seconds,
            detail=detail,
        )
        trace.records.append(rec)
        if not report.ok():
            raise VerificationError(label, report)

    # ------------------------------------------------------------------
    @staticmethod
    def _unique_key(name: str, used: Dict[str, int]) -> str:
        n = used.get(name, 0) + 1
        used[name] = n
        return name if n == 1 else f"{name}#{n}"

    # ------------------------------------------------------------------
    @staticmethod
    def _print_after_tokens() -> Optional[set]:
        raw = os.environ.get(PRINT_AFTER_ENV, "").strip()
        if not raw:
            return None
        return {tok.strip() for tok in raw.split(",") if tok.strip()}

    def _maybe_print(self, p: Pass, rec: PassRecord, ctx, tokens) -> None:
        if not tokens or ctx.mfun is None:
            return
        if not ({"all", p.name, rec.key} & tokens):
            return
        from repro.ir.pretty import pretty_fun

        print(
            f"-- IR after {rec.key} ({self.name} pipeline, "
            f"fun {ctx.source.name}) --",
            file=sys.stderr,
        )
        print(pretty_fun(ctx.mfun), file=sys.stderr)
