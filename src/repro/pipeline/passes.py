"""The :class:`Pass` protocol and the concrete pipeline passes.

A pass declares, besides its ``run`` method, a ``name``, a ``kind``
(``"pass"`` or ``"analysis"``) and ``mutates_ir`` -- whether it can
change the memory IR (the manager measures IR-size deltas only for
these).  A preset *is* its pass list: the derived analyses (``last_use``,
``mem_frees``) are scheduled explicitly as :class:`AnalysisPass`
occurrences, and the optimization passes that need fresher last-use
information than the scheduled one recompute it themselves, every round
of their fixpoint loops.

``run(ctx, fun)`` returns a :class:`PassStats` (changed flag, structured
detail counters, the pass's log of declined candidates); the manager
fills in the unique stage key, wall-clock time and IR deltas.

The stage *callables* (``introduce_memory``, ``hoist_allocations``, ...)
are looked up in :mod:`repro.compiler`'s namespace at run time: that is
the seam a test patches to sabotage one stage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.decisions import DecisionLog
from repro.pipeline.context import CompileContext
from repro.pipeline.trace import KIND_ANALYSIS, KIND_PASS, PassRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir import ast as A

#: Passes return a :class:`~repro.pipeline.trace.PassRecord`; the alias
#: is the name the Pass protocol uses for it.
PassStats = PassRecord


def _compiler():
    """The :mod:`repro.compiler` module, resolved late (import cycle +
    monkeypatch seam)."""
    import repro.compiler as compiler

    return compiler


def _pool_detail(ctx: CompileContext, tiers: Dict[str, int]) -> Dict[str, object]:
    """PassRecord detail entries for the prover pool's deciding-tier
    tallies and its (cumulative) counters: pooled-object and
    verdict-table hits/misses, and queries refuted by a shared point."""
    detail: Dict[str, object] = {}
    if any(tiers.values()):
        detail["tiers"] = {k: v for k, v in tiers.items() if v}
    pool = getattr(ctx, "provers", None)
    if pool is not None:
        detail["pool_hits"] = pool.hits
        detail["pool_misses"] = pool.misses
        detail["verdict_hits"] = pool.verdict_hits
        detail["verdict_misses"] = pool.verdict_misses
        detail["refuted_by_shared_point"] = pool.refuted_by_shared_point
    return detail


def _count_stmts(fun: Optional["A.Fun"]) -> Tuple[int, int]:
    """(total statements, alloc statements) of a memory function."""
    if fun is None:
        return -1, -1
    from repro.ir import ast as A
    from repro.mem.memir import iter_stmts

    total = allocs = 0
    for stmt in iter_stmts(fun.body):
        total += 1
        if isinstance(stmt.exp, A.Alloc):
            allocs += 1
    return total, allocs


class Pass:
    """Base pass: subclasses override the class attributes and ``run``."""

    name: str = "?"
    kind: str = KIND_PASS
    mutates_ir: bool = True

    def __init__(
        self,
        verify_label: Optional[str] = None,
        condition: Optional[Callable[[CompileContext], bool]] = None,
    ):
        #: Verifier checkpoint label; the manager verifies the IR under
        #: this label right after the pass (even when its condition
        #: skipped it) when compiling with ``verify=True``.
        self.verify_label = verify_label
        #: Occurrence gate: when it returns False the occurrence is
        #: recorded as skipped (e.g. the dead-alloc sweep after a fusion
        #: round that committed nothing).
        self.condition = condition

    def stats(
        self, changed: bool, declined: Optional[DecisionLog] = None, **detail
    ) -> PassStats:
        return PassRecord(
            kind=self.kind, name=self.name, key="", changed=changed,
            detail=detail,
            declined=DecisionLog() if declined is None else declined,
        )

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Concrete passes, in pipeline order
# ----------------------------------------------------------------------
class TypecheckPass(Pass):
    """Type/uniqueness checking of the *source* function (pure check)."""

    name = "typecheck"
    mutates_ir = False

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        _compiler().typecheck_fun(ctx.source)
        return self.stats(changed=False)


class IntroduceMemoryPass(Pass):
    """Memory introduction: source IR -> memory-annotated deep copy."""

    name = "introduce_memory"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        ctx.mfun = _compiler().introduce_memory(ctx.source)
        return self.stats(changed=True)


class HoistPass(Pass):
    """Hoist allocations upward within their blocks."""

    name = "hoist"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        moved = _compiler().hoist_allocations(fun)
        return self.stats(changed=moved > 0, moved=moved)


class AnalysisPass(Pass):
    """Scheduled run of a derived analysis: ``last_use`` (annotates
    every statement's last uses) or ``mem_frees`` (annotates where each
    block's lifetime ends)."""

    kind = KIND_ANALYSIS
    mutates_ir = False

    def __init__(self, analysis: str, **kw):
        super().__init__(**kw)
        if analysis not in ("last_use", "mem_frees"):
            raise ValueError(f"unknown analysis {analysis!r}")
        self.name = analysis

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        if self.name == "last_use":
            _compiler().analyze_last_uses(fun)
            return self.stats(changed=False)
        from repro.reuse import annotate_frees

        return self.stats(changed=False, annotations=annotate_frees(fun))


class ShortCircuitPass(Pass):
    """Array short-circuiting (paper section V)."""

    name = "short_circuit"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        from repro.opt.shortcircuit import short_circuit_fun

        st = short_circuit_fun(fun, ctx, ctx.enable_splitting)
        ctx.results[self.name] = st
        return self.stats(
            changed=st.committed > 0 or st.reused_copies > 0,
            declined=st.declined,
            attempted=st.attempted,
            committed=st.committed,
            reused_copies=st.reused_copies,
            rounds=st.rounds,
            **_pool_detail(ctx, st.tiers),
        )


class DeadAllocsPass(Pass):
    """Drop allocations no binding references any more."""

    name = "dead_allocs"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        removed = _compiler().remove_dead_allocations(fun)
        return self.stats(changed=removed > 0, removed=removed)


class FusePass(Pass):
    """Producer-consumer kernel fusion (inline sole-last-use producers)."""

    name = "fuse"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        from repro.opt.fuse import fuse_fun

        st = fuse_fun(fun, ctx)
        ctx.results[self.name] = st
        return self.stats(
            changed=st.committed > 0,
            declined=st.declined,
            attempted=st.attempted,
            committed=st.committed,
            rounds=st.rounds,
            duplicated=st.duplicated,
            chained=st.chained,
            **_pool_detail(ctx, st.tiers),
        )


class ReusePass(Pass):
    """Allocation coalescing: merge provably disjoint live ranges."""

    name = "reuse"

    def run(self, ctx: CompileContext, fun: "A.Fun") -> PassStats:
        from repro.reuse import reuse_allocations

        st = reuse_allocations(fun, ctx)
        ctx.results[self.name] = st
        return self.stats(
            changed=bool(st.mapping),
            declined=st.declined,
            merged=st.merged,
            widened=st.widened,
            **_pool_detail(ctx, st.tiers),
        )
