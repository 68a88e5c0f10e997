"""Access summaries for the short-circuiting index analysis (section V-B).

An :class:`AccessSet` is a union of LMADs over one memory block, in
disjunctive form -- emptiness of intersections is checked pairwise with the
non-overlap test, so no LMAD subtraction or intersection is ever needed
(the simplification over classic parallelization analyses that the paper's
related-work section highlights).

:func:`collect_dst_uses` computes, for one statement, the set of memory
locations of a given destination block that the statement may touch
(reading *or* writing), recursing into nested blocks and aggregating
``map``/``loop`` bodies over their index variable by LMAD dimension
promotion.  A failure to aggregate yields the conservative *unknown* set,
which defeats every later disjointness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from repro.lmad import IndexFn, NonOverlapChecker, aggregate_over_loop
from repro.lmad.lmad import Lmad
from repro.symbolic import Prover, SymExpr

from repro.ir import ast as A
from repro.mem.memir import MemBinding, binding_of


@dataclass
class AccessSet:
    """A union of LMAD access sets; ``unknown`` is the conservative top."""

    lmads: List[Lmad] = field(default_factory=list)
    unknown: bool = False

    def add_lmad(self, lmad: Lmad) -> None:
        self.lmads.append(lmad)

    def add_ixfn(self, ixfn: IndexFn) -> None:
        """Abstract set of an index function (paper footnote 26: composed
        index functions over-approximate to the unknown set)."""
        single = ixfn.as_single()
        if single is None:
            self.unknown = True
        else:
            self.lmads.append(single)

    def add_all(self, other: "AccessSet") -> None:
        self.unknown = self.unknown or other.unknown
        self.lmads.extend(other.lmads)

    def is_empty(self) -> bool:
        return not self.unknown and not self.lmads

    def substitute(self, mapping) -> "AccessSet":
        return AccessSet(
            [l.substitute(mapping) for l in self.lmads], self.unknown
        )

    def aggregated(
        self, var: str, count: SymExpr, prover: Prover
    ) -> "AccessSet":
        """Union over ``var = 0..count-1`` by dimension promotion."""
        if self.unknown:
            return AccessSet(unknown=True)
        out = AccessSet()
        for l in self.lmads:
            if var in l.free_vars():
                agg = aggregate_over_loop(l, var, count, prover)
                if agg is None:
                    return AccessSet(unknown=True)
                out.add_lmad(agg)
            else:
                out.add_lmad(l)
        return out

    def disjoint_from(
        self, other: "AccessSet", checker: NonOverlapChecker
    ) -> bool:
        """Provably empty intersection (pairwise non-overlap)."""
        if self.is_empty() or other.is_empty():
            return True
        if self.unknown or other.unknown:
            return False
        return all(
            checker.check(a, b) for a in self.lmads for b in other.lmads
        )

    def __str__(self) -> str:
        if self.unknown:
            return "<unknown>"
        return " u ".join(str(l) for l in self.lmads) if self.lmads else "{}"


def _ixfn_region_of_update(
    binding: MemBinding, spec: A.IndexSpec
) -> IndexFn:
    if isinstance(spec, A.PointSpec):
        f = binding.ixfn
        for k, idx in enumerate(spec.indices):
            f = f.fix_dim(0, idx)
        return f
    if isinstance(spec, A.TripletSpec):
        return binding.ixfn.slice_triplets(spec.triplets)
    assert isinstance(spec, A.LmadSpec)
    return binding.ixfn.lmad_slice(spec.lmad)


def collect_dst_uses(
    stmt: A.Let,
    dst_mem: str,
    bindings: Dict[str, MemBinding],
    prover: Prover,
    skip_vars: FrozenSet[str] = frozenset(),
) -> AccessSet:
    """All locations of ``dst_mem`` the statement may read or write.

    Precision matters here: an element read ``diag[i]`` contributes the
    *point* ``ixfn(i)``, not the whole slice -- this is what lets the
    per-thread conditions of section V-B prove fig. 1 (left) legal.  Pure
    change-of-layout statements touch no memory at all.

    ``bindings`` maps array variables in scope to their (current) memory
    bindings; ``skip_vars`` excludes the candidate's own aliases (their
    accesses are tracked separately as the write summary).
    """
    out = AccessSet()

    def full_use(name: str) -> None:
        if name in skip_vars:
            return
        b = bindings.get(name)
        if b is not None and b.mem == dst_mem:
            out.add_ixfn(b.ixfn)

    exp = stmt.exp

    # Pure views and scalar computations: no memory traffic.
    if isinstance(
        exp,
        (
            A.SliceT,
            A.LmadSlice,
            A.Rearrange,
            A.Reshape,
            A.Reverse,
            A.VarRef,
            A.Lit,
            A.ScalarE,
            A.BinOp,
            A.UnOp,
            A.Alloc,
            A.Iota,
            A.Replicate,
            A.Scratch,
        ),
    ):
        # Fresh fills write their (fresh) destination; it can only be the
        # destination block if a previous round rebased them -- then their
        # pattern binding says so.
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None and pe.name not in skip_vars:
                b = binding_of(pe)
                if b.mem == dst_mem and not isinstance(
                    exp, (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.VarRef, A.Scratch)
                ):
                    out.add_ixfn(b.ixfn)
        return out

    if isinstance(exp, A.Index):
        if exp.src not in skip_vars:
            b = bindings.get(exp.src)
            if b is not None and b.mem == dst_mem:
                single = b.ixfn.as_single()
                if single is None:
                    out.unknown = True
                else:
                    out.add_lmad(Lmad(single.apply(exp.indices), ()))
        return out

    if isinstance(exp, (A.Copy, A.Reduce, A.ArgMin)):
        full_use(exp.src)
        # A copy's write side is its result binding.
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None and pe.name not in skip_vars:
                b = binding_of(pe)
                if b.mem == dst_mem:
                    out.add_ixfn(b.ixfn)
        return out

    if isinstance(exp, A.Concat):
        for s in exp.srcs:
            full_use(s)
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None and pe.name not in skip_vars:
                b = binding_of(pe)
                if b.mem == dst_mem:
                    out.add_ixfn(b.ixfn)
        return out

    if isinstance(exp, A.Update):
        if isinstance(exp.value, str):
            full_use(exp.value)
        if exp.src not in skip_vars and stmt.names[0] not in skip_vars:
            b = bindings.get(exp.src)
            if b is not None and b.mem == dst_mem:
                out.add_ixfn(_ixfn_region_of_update(b, exp.spec))
        return out

    # Nested blocks: aggregate over the index variable.
    for blk, binder in A.sub_scopes(exp):
        if binder is None:
            out.add_all(
                collect_block_dst_uses(blk, dst_mem, bindings, prover, skip_vars)
            )
            continue
        body_bindings = dict(bindings)
        body_bindings.update(
            (p.name, p.mem) for p in binder.params if p.mem is not None
        )
        inner = collect_block_dst_uses(
            blk, dst_mem, body_bindings, prover, skip_vars
        )
        out.add_all(inner.aggregated(binder.var, binder.extent, prover))
    if isinstance(exp, A.Map):
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None and pe.name not in skip_vars:
                b = binding_of(pe)
                if b.mem == dst_mem:
                    out.add_ixfn(b.ixfn)
    return out


def collect_block_dst_uses(
    block: A.Block,
    dst_mem: str,
    bindings: Dict[str, MemBinding],
    prover: Prover,
    skip_vars: FrozenSet[str] = frozenset(),
) -> AccessSet:
    out = AccessSet()
    local = dict(bindings)
    for stmt in block.stmts:
        out.add_all(collect_dst_uses(stmt, dst_mem, local, prover, skip_vars))
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None:
                local[pe.name] = binding_of(pe)
    return out
