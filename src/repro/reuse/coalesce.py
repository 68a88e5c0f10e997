"""Linear-scan coalescing of non-interfering memory blocks.

Walks every IR block and, for each allocation in first-touch order, tries
to re-home it into an earlier allocation of the same block whose live
range has already ended (no interference-graph edge).  The size relation
must be *provable* with :class:`repro.symbolic.Prover` under the block's
context (function assumptions + enclosing loop/map index ranges + local
scalar definitions):

* candidate <= survivor: the block simply fits;
* survivor <= candidate: the surviving ``alloc`` is widened to the
  candidate's size -- the max of the two, made explicit in the IR -- but
  only when every free variable of the new size is in scope at the
  surviving alloc's position;
* neither provable: the merge is rejected (``size`` in the stats), even
  if the sizes happen to coincide at run time.

Merging never crosses a block boundary, so per-iteration loop buffers
stay distinct (same soundness argument as :mod:`repro.mem.hoist`).  The
pass records a ``candidate -> survivor`` mapping and rewrites every
binding through :func:`repro.mem.hoist.rewrite_mem_bindings`; the
orphaned ``alloc`` statements are dropped by a following
``remove_dead_allocations`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.decisions import DecisionLog
from repro.ir import ast as A
from repro.lmad import ProverPool
from repro.mem.hoist import rewrite_mem_bindings
from repro.reuse.interference import AllocNode, InterferenceGraph
from repro.reuse.liveranges import LiveRanges
from repro.symbolic import Context, Prover, sym


@dataclass
class ReuseStats:
    """What the coalescer did, and why candidates were passed over."""

    merged: int = 0
    widened: int = 0
    #: Deciding-tier tallies for this pass's size proofs (``structural``
    #: / ``polyhedral`` / ``unknown``), from the pool.
    tiers: Dict[str, int] = field(default_factory=dict)
    #: Blocks passed over: one record per ``block -> donor`` a size or
    #: dtype relation ruled out, one per block (``interference``) that
    #: found every earlier block still live.
    declined: DecisionLog = field(default_factory=DecisionLog)
    #: (survivor, candidate, "equal" | "fits" | "widened")
    records: List[Tuple[str, str, str]] = field(default_factory=list)
    #: candidate -> survivor, after chain resolution
    mapping: Dict[str, str] = field(default_factory=dict)


class _Coalescer:
    def __init__(self, fun: A.Fun, shared):
        self.fun = fun
        #: Per-compilation shared state (duck-typed; see
        #: :class:`repro.pipeline.CompileContext`): supplies the shared
        #: root assumption context and the Prover memo pool the earlier
        #: passes already warmed up.
        self.shared = shared
        self._pool: ProverPool = shared.provers
        self.ranges = LiveRanges(fun)
        self.stats = ReuseStats()
        self._engine = None

    def run(self) -> ReuseStats:
        with self._pool.client("reuse") as self.stats.tiers:
            self._block(
                self.fun.body,
                self.shared.root_context(),
                {p.name for p in self.fun.params},
            )
        if self.stats.mapping:
            rewrite_mem_bindings(self.fun, self.stats.mapping)
        return self.stats

    # ------------------------------------------------------------------
    def _block(self, block: A.Block, ctx: Context, outer: Set[str]) -> None:
        self._coalesce_block(block, ctx, outer)
        defined = set(outer)
        for stmt in block.stmts:
            for blk, binder in A.sub_scopes(stmt.exp):
                self._block(
                    blk,
                    A.scope_context(ctx, blk, binder),
                    defined | A.bound_names(binder),
                )
            defined |= set(stmt.names)

    # ------------------------------------------------------------------
    def _coalesce_block(
        self, block: A.Block, ctx: Context, outer: Set[str]
    ) -> None:
        graph = InterferenceGraph(
            block, self.ranges.of_block(block)
        )
        scan = graph.ordered()
        if len(scan) < 2:
            return
        prover = self._pool.prover_for(ctx)
        self._engine = self._pool.engine_for(ctx)
        # Names defined before each statement, for the widening scope check.
        prefix: List[Set[str]] = []
        defined = set(outer)
        for stmt in block.stmts:
            prefix.append(set(defined))
            defined |= set(stmt.names)

        pool: List[AllocNode] = []
        for node in scan:
            donor = self._find_donor(node, pool, prover, prefix)
            if donor is None:
                pool.append(node)
                continue
            self.stats.mapping[node.mem] = donor.mem
            # The survivor inherits the candidate's remaining lifetime.
            donor.end = node.end

    def _find_donor(
        self,
        node: AllocNode,
        pool: List[AllocNode],
        prover: Prover,
        prefix: List[Set[str]],
    ) -> Optional[AllocNode]:
        saw_free = False
        for donor in sorted(pool, key=lambda n: n.pos):
            if InterferenceGraph.interferes(donor, node):
                continue
            saw_free = True
            pair = f"{node.mem} -> {donor.mem}"
            if donor.dtype != node.dtype:
                self.stats.declined.add("reuse", "dtype", pair)
                continue
            mode = self._size_mode(donor, node, prover, prefix)
            if mode is None:
                self.stats.declined.add("reuse", "size", pair)
                continue
            if mode == "widened":
                donor.stmt.exp = A.Alloc(node.size, donor.dtype)
                self.stats.widened += 1
            self.stats.merged += 1
            self.stats.records.append((donor.mem, node.mem, mode))
            return donor
        if pool and not saw_free:
            self.stats.declined.add("reuse", "interference", node.mem)
        return None

    def _size_mode(
        self,
        donor: AllocNode,
        node: AllocNode,
        prover: Prover,
        prefix: List[Set[str]],
    ) -> Optional[str]:
        widen_ok = node.size.free_vars() <= prefix[donor.pos]
        if prover.eq(node.size, donor.size):
            self._pool.record_tier("structural")
            return "equal"
        if prover.le(node.size, donor.size):
            self._pool.record_tier("structural")
            return "fits"
        if widen_ok and prover.le(donor.size, node.size):
            # max(donor, candidate) == candidate, provably: widening the
            # surviving alloc to the candidate's size covers both.
            self._pool.record_tier("structural")
            return "widened"
        # Polyhedral fallback: re-ask each inequality as the emptiness
        # of its negation (Fourier-Motzkin chains symbolic bounds the
        # interval prover's substitution strategies miss).
        if self._engine is not None:
            if self._engine.entails_nonneg(
                sym(donor.size) - sym(node.size)
            ):
                self._pool.record_tier("polyhedral")
                return "fits"
            if widen_ok and self._engine.entails_nonneg(
                sym(node.size) - sym(donor.size)
            ):
                self._pool.record_tier("polyhedral")
                return "widened"
        self._pool.record_tier("unknown")
        return None


def reuse_allocations(fun: A.Fun, shared) -> ReuseStats:
    """Coalesce provably non-overlapping allocations of ``fun`` in place.

    ``shared`` is the compilation's shared state (see
    :class:`repro.pipeline.CompileContext`): the root assumption context
    and the Prover memo pool are reused across the whole pipeline instead
    of rebuilt per pass.
    """
    return _Coalescer(fun, shared).run()
