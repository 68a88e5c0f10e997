"""Allocation hoisting and dead-allocation elimination.

Short-circuiting's property (2) requires the destination memory block to be
in scope (already allocated) at the definition point of the candidate's
fresh array (paper section V).  This pass hoists each ``alloc`` statement
as early in its block as its size expression allows -- i.e. just after the
last statement defining one of the size's free variables.

Hoisting never crosses block boundaries: moving an allocation out of a
``loop`` body would merge per-iteration buffers, which is unsound for
double-buffered loops (each iteration must write a block distinct from the
one the carried value still occupies).

``remove_dead_allocations`` drops ``alloc`` statements whose block is no
longer referenced by any memory binding -- the usual cleanup after
short-circuiting re-homes arrays into their destination memory.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set

from repro.ir import ast as A
from repro.mem.memir import MemBinding, binders, iter_stmts


def hoist_allocations(fun: A.Fun) -> int:
    """Hoist allocs within their blocks; returns how many statements moved."""
    moved = 0

    def process(block: A.Block, outer_defined: Set[str]) -> None:
        nonlocal moved
        defined_at: List[Set[str]] = []
        defined: Set[str] = set(outer_defined)
        for stmt in block.stmts:
            defined_at.append(set(defined))
            defined |= set(stmt.names)
            for blk, binder in A.sub_scopes(stmt.exp):
                process(blk, defined | A.bound_names(binder))

        new_order: List[A.Let] = []
        for idx, stmt in enumerate(block.stmts):
            if not isinstance(stmt.exp, A.Alloc):
                new_order.append(stmt)
                continue
            needed = stmt.exp.size.free_vars()
            # Earliest position where all size variables are defined.
            pos = 0
            for j in range(len(new_order), 0, -1):
                prior = new_order[j - 1]
                if needed & set(prior.names):
                    pos = j
                    break
            if pos < len(new_order):
                moved += 1
            new_order.insert(pos, stmt)
        block.stmts = new_order

    process(fun.body, {p.name for p in fun.params})
    return moved


def rewrite_mem_bindings(fun: A.Fun, mapping: Dict[str, str]) -> int:
    """Re-home every binding on a merged-away block to its survivor.

    Coalescing (``repro.reuse``) replaces blocks wholesale, so a stale
    ``MemBinding`` naming a merged-away block would read memory nothing
    allocates.  This rewrites every binder's binding and the block
    results that carry existential memory by name; returns how
    many references changed.  Chains in ``mapping`` are resolved.
    """

    def resolve(m: str) -> str:
        seen: Set[str] = set()
        while m in mapping and m not in seen:
            seen.add(m)
            m = mapping[m]
        return m

    changed = 0
    for stmt in iter_stmts(fun.body):
        for pe in binders(stmt):
            b = pe.mem
            if b is not None and b.mem in mapping:
                pe.mem = MemBinding(resolve(b.mem), b.ixfn)
                changed += 1
        if stmt.fused and any(
            r.mem in mapping or set(r.write_mems) & mapping.keys()
            for r in stmt.fused
        ):
            # Fusion provenance names memory blocks too (the verifier's
            # FU rules compare them against live bindings) and must track
            # coalescing renames like any binding.  Only the block names
            # change; duplication/chain/hash provenance rides along.
            stmt.fused = tuple(
                replace(
                    r,
                    mem=resolve(r.mem),
                    write_mems=tuple(resolve(m) for m in r.write_mems),
                )
                for r in stmt.fused
            )
            changed += 1

    def fix_results(block: A.Block) -> None:
        nonlocal changed
        if any(r in mapping for r in block.result):
            block.result = tuple(resolve(r) for r in block.result)
            changed += 1
        for stmt in block.stmts:
            for blk in A.sub_blocks(stmt.exp):
                fix_results(blk)

    fix_results(fun.body)
    return changed


def remove_dead_allocations(fun: A.Fun) -> int:
    """Drop allocs whose memory block no binding references; returns count."""
    live: Set[str] = set()
    for stmt in iter_stmts(fun.body):
        live |= {pe.mem.mem for pe in binders(stmt) if pe.mem is not None}
        # Existential memory flows through block results by name.
        for blk in A.sub_blocks(stmt.exp):
            live |= set(blk.result)

    removed = 0

    def process(block: A.Block) -> None:
        nonlocal removed
        kept = []
        for stmt in block.stmts:
            if isinstance(stmt.exp, A.Alloc) and stmt.names[0] not in live:
                removed += 1
                continue
            for blk in A.sub_blocks(stmt.exp):
                process(blk)
            kept.append(stmt)
        block.stmts = kept

    process(fun.body)
    return removed
