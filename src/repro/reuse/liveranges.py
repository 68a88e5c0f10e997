"""Live ranges of memory blocks, from the bindings alone.

A block's lifetime starts at its first *touch* -- the first statement
whose pattern bindings, nested bindings, or used arrays reference it --
and ends at its last.  The ``alloc`` statement itself is not a touch
(nothing reads or writes the block there), which is what gives the
coalescer room between hoisted allocations and their first use.

Existential memory (``emem``/``lmem``/``rmem``) is an indirection the
executor resolves at run time; a touch through an existential name counts
as a touch of every ground block it can stand for.  The expansion is
re-derived here from the bindings (the same model as the race checker's,
but implemented independently: :mod:`repro.analysis` verifies this
package's output and must not share its code).

Blocks reachable from a block's results *escape*: their lifetime extends
to the end of the enclosing block (for a loop body, into the next
iteration -- the double-buffering case the executor's per-iteration
freshness exists for).  Escaping blocks never get a free annotation; the
executor retires their per-iteration instances by reachability from the
carried state instead.

:func:`annotate_frees` writes each non-escaping block's last-touch
position into ``Let.mem_frees``.  The executor (and so the footprint
estimate, a dry-mode run of it) applies these only at host level
(outside kernels): blocks allocated inside a ``map`` die wholesale when
the kernel ends.  A run on a pool lease returns a block's buffer where
it dies, so the footprint is what the run holds, not only what it
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import ast as A
from repro.mem.memir import (
    MemBinding,
    array_bindings,
    binders,
    binding_of,
    entry_bindings,
    iter_stmts,
)


# ----------------------------------------------------------------------
# Existential indirection
# ----------------------------------------------------------------------
def build_indirection(fun: A.Fun) -> Dict[str, Tuple[str, ...]]:
    """Existential block name -> ground blocks it may stand for at run
    time (an ``if`` branch's block, a loop initializer's, or wherever the
    loop body left its result)."""
    indirect: Dict[str, Set[str]] = {}

    def register(mem: str, under: Set[str]) -> None:
        under.discard(mem)
        if under:
            indirect.setdefault(mem, set()).update(under)

    def block(blk: A.Block, parent: Dict[str, MemBinding]) -> Dict[str, MemBinding]:
        bindings = dict(parent)
        for stmt in blk.stmts:
            exp = stmt.exp
            if isinstance(exp, A.Loop):
                lb = dict(bindings)
                for prm, _init in exp.carried:
                    if prm.mem is not None:
                        lb[prm.name] = prm.mem
                child = block(exp.body, lb)
                for k, (prm, init) in enumerate(exp.carried):
                    if prm.mem is None:
                        continue
                    under: Set[str] = set()
                    ib = bindings.get(init)
                    if ib is not None:
                        under.add(ib.mem)
                    rb = child.get(exp.body.result[k])
                    if rb is not None:
                        under.add(rb.mem)
                    register(prm.mem.mem, under)
                for k, pe in enumerate(stmt.pattern):
                    if not pe.is_array() or pe.mem is None:
                        continue
                    under = set()
                    if k < len(exp.body.result):
                        rb = child.get(exp.body.result[k])
                        if rb is not None:
                            under.add(rb.mem)
                    if k < len(exp.carried):
                        ib = bindings.get(exp.carried[k][1])
                        if ib is not None:
                            under.add(ib.mem)  # zero-trip: result is init
                    register(binding_of(pe).mem, under)
            elif isinstance(exp, A.Map):
                block(exp.lam.body, bindings)
            elif isinstance(exp, A.If):
                branches = [
                    block(sub, bindings)
                    for sub in (exp.then_block, exp.else_block)
                ]
                for k, pe in enumerate(stmt.pattern):
                    if not pe.is_array() or pe.mem is None:
                        continue
                    under = set()
                    for bb, sub in zip(
                        branches, (exp.then_block, exp.else_block)
                    ):
                        if k < len(sub.result):
                            rb = bb.get(sub.result[k])
                            if rb is not None:
                                under.add(rb.mem)
                    register(binding_of(pe).mem, under)
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    bindings[pe.name] = binding_of(pe)
        return bindings

    block(fun.body, entry_bindings(fun))
    # Only names never bound by an alloc are true indirections.
    allocated = {
        s.names[0] for s in iter_stmts(fun.body) if isinstance(s.exp, A.Alloc)
    }
    return {
        m: tuple(sorted(t))
        for m, t in indirect.items()
        if m not in allocated
    }


def expand_mem(
    mem: str,
    indirect: Dict[str, Tuple[str, ...]],
    _seen: Tuple[str, ...] = (),
) -> Tuple[str, ...]:
    """Ground blocks a (possibly existential) name can resolve to."""
    if mem in _seen:
        return ()
    targets = indirect.get(mem)
    if targets is None:
        return (mem,)
    out: Dict[str, None] = {}
    for t in targets:
        for m in expand_mem(t, indirect, _seen + (mem,)):
            out[m] = None
    return tuple(out)


# ----------------------------------------------------------------------
# Per-block live ranges
# ----------------------------------------------------------------------
@dataclass
class BlockLiveness:
    """Lifetimes of allocated blocks as seen from one IR block."""

    block: A.Block
    #: blocks allocated by a statement of this block: mem -> stmt index
    alloc_at: Dict[str, int] = field(default_factory=dict)
    #: blocks allocated anywhere in this block's subtree
    subtree_allocs: Set[str] = field(default_factory=set)
    #: first / last statement (index in this block) touching each block
    first: Dict[str, int] = field(default_factory=dict)
    last: Dict[str, int] = field(default_factory=dict)
    #: subtree blocks reachable from this block's results
    escaping: Set[str] = field(default_factory=set)

    def end_of(self, mem: str) -> Optional[int]:
        """Last live position, or None when live to the block's end."""
        if mem in self.escaping:
            return None
        return self.last.get(mem, self.alloc_at.get(mem))


class LiveRanges:
    """Whole-function live-range analysis over memory blocks."""

    def __init__(self, fun: A.Fun):
        self.fun = fun
        self.indirect = build_indirection(fun)
        self.bindings = array_bindings(fun)
        self.alloc_names: Set[str] = {
            s.names[0]
            for s in iter_stmts(fun.body)
            if isinstance(s.exp, A.Alloc)
        }
        self.per_block: Dict[int, BlockLiveness] = {}
        self._walk(fun.body)

    def of_block(self, block: A.Block) -> BlockLiveness:
        return self.per_block[id(block)]

    # ------------------------------------------------------------------
    def _ground(self, mems) -> Set[str]:
        out: Set[str] = set()
        for m in mems:
            for g in expand_mem(m, self.indirect):
                if g in self.alloc_names:
                    out.add(g)
        return out

    def _stmt_mems(self, stmt: A.Let) -> Set[str]:
        """Every block name a statement touches (before expansion)."""
        mems: Set[str] = set()

        def of_stmt(s: A.Let) -> None:
            mems.update(pe.mem.mem for pe in binders(s) if pe.mem is not None)
            for blk in A.sub_blocks(s.exp):
                # Existential memory flows through results by name.
                mems.update(r for r in blk.result if r not in self.bindings)
                for sub in blk.stmts:
                    of_stmt(sub)

        if isinstance(stmt.exp, A.Alloc):
            return mems  # the definition is not a touch
        of_stmt(stmt)
        for used in A.exp_uses(stmt.exp):
            b = self.bindings.get(used)
            if b is not None:
                mems.add(b.mem)
        return mems

    def _walk(self, block: A.Block) -> Set[str]:
        bl = BlockLiveness(block)
        for i, stmt in enumerate(block.stmts):
            if isinstance(stmt.exp, A.Alloc):
                bl.alloc_at[stmt.names[0]] = i
                bl.subtree_allocs.add(stmt.names[0])
            for sub in A.sub_blocks(stmt.exp):
                bl.subtree_allocs |= self._walk(sub)
            for m in self._ground(self._stmt_mems(stmt)):
                bl.first.setdefault(m, i)
                bl.last[m] = i
        result_mems: Set[str] = set()
        for r in block.result:
            b = self.bindings.get(r)
            result_mems.add(b.mem if b is not None else r)
        bl.escaping = self._ground(result_mems) & bl.subtree_allocs
        self.per_block[id(block)] = bl
        return bl.subtree_allocs


# ----------------------------------------------------------------------
# Free annotations
# ----------------------------------------------------------------------
def annotate_frees(fun: A.Fun) -> int:
    """Write last-touch positions into ``Let.mem_frees``; returns how many
    annotations were placed.

    A block is annotated at every scope level of its subtree where it is
    touched (an inner-loop block's current instance dies at its last use
    inside the body; whatever instances survive the loop die at the loop
    statement's own last-touch position in the enclosing block).  The
    executor pops the block from its live set there, and a run on a
    pool lease hands the block's buffer back.
    """
    ranges = LiveRanges(fun)
    placed = 0
    for bl in ranges.per_block.values():
        by_stmt: Dict[int, List[str]] = {}
        for m in bl.subtree_allocs:
            if m in bl.escaping:
                continue
            pos = bl.last.get(m)
            if pos is None:
                # Never touched at this level: an alloc here is dead on
                # arrival (free it where it was made); deeper allocs were
                # already handled at their own level.
                pos = bl.alloc_at.get(m)
                if pos is None:
                    continue
            by_stmt.setdefault(pos, []).append(m)
        for i, stmt in enumerate(bl.block.stmts):
            frees = tuple(sorted(by_stmt.get(i, ())))
            stmt.mem_frees = frees
            placed += len(frees)
    return placed
