"""The array short-circuiting pass (paper section V).

Entry point: :func:`short_circuit_fun`, run on a memory-annotated function
(after introduction, hoisting and last-use analysis).  The pass only ever
*changes memory annotations* -- re-homing candidate arrays (and all their
aliases) into the destination memory of a circuit point -- so the executor's
single elision rule turns the circuit-point copy into a no-op.

Circuit points (detected bottom-up per block):

1. ``let xss[W] = b_lu``      -- slice updates whose value is lastly used;
2. ``let x = concat a b_lu``  -- concatenations (per lastly-used operand);
3. the implicit ``xss[i] = r`` of every mapnest result (paper fig. 6b).

For each candidate the analysis walks from the circuit point up to the
creation of the candidate's fresh array, maintaining the two summaries of
section V-B (``U_xss``: uses of destination memory below the current
statement; ``W_bs``: writes through the rebased candidate), checking every
new write against the uses with the LMAD non-overlap test, rebasing
change-of-layout chains through operation inverses, translating index
functions through the scalar symbol table, and recursing into ``if``/
``loop`` bodies with the cross-iteration conditions.  Transitive chains
(fig. 6a) resolve across fixpoint rounds.

Every check failure is recorded with a reason and simply keeps the copy --
the failure mode is a 1.1-2x slowdown, never incorrectness (paper III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.decisions import DecisionLog, Declined
from repro.lmad import IndexFn, NonOverlapChecker, ProverPool
from repro.symbolic import Context, Prover, SymExpr, sym

from repro.ir import ast as A
from repro.ir.lastuse import analyze_last_uses
from repro.ir.types import ArrayType
from repro.mem.memir import MemBinding, binding_of, entry_bindings
from repro.opt.rebase import inverse_rebase, translate_ixfn, widened_slice_inverse
from repro.opt.summaries import (
    AccessSet,
    collect_block_dst_uses,
    collect_dst_uses,
    _ixfn_region_of_update,
)


@dataclass
class ShortCircuitStats:
    """Outcome counters plus per-reason failure tallies."""

    attempted: int = 0
    committed: int = 0
    #: Copies of dead sources whose result was re-homed into the source's
    #: memory block (the paper's "semantically different arrays in the same
    #: memory block" footprint optimization; drives the NN benchmark).
    reused_copies: int = 0
    rounds: int = 0
    #: Candidates committed only thanks to a widened slice inverse (the
    #: polyhedral leftover-region obligation proved); a strict subset of
    #: ``committed``.
    widened_candidates: int = 0
    #: Rebased writes classified as provable no-ops (value already present
    #: at the target address) and thereby exempted from the leftover check.
    noop_writes: int = 0
    #: Deciding-tier tallies for this pass's disjointness queries
    #: (``structural`` / ``polyhedral`` / ``unknown``), from the pool.
    tiers: Dict[str, int] = field(default_factory=dict)
    #: Abandoned candidates, one record per ``root -> destination block``.
    declined: DecisionLog = field(default_factory=DecisionLog)
    committed_roots: List[str] = field(default_factory=list)

    @property
    def failures(self) -> Dict[str, int]:
        """Per-rule tallies of the abandoned candidates."""
        return self.declined.tallies


@dataclass
class _Scope:
    """Static per-block information for the analysis."""

    ctx: Context
    bindings: Dict[str, MemBinding]
    outer_names: Set[str]
    block: A.Block
    # names defined by stmts[0..i-1], per index i (filled lazily)
    defs_prefix: List[Set[str]] = field(default_factory=list)
    allocs_here: Dict[str, int] = field(default_factory=dict)

    @property
    def symtab(self) -> Dict[str, SymExpr]:
        """The scalar symbol table for index-function translation (paper
        V-A-b): the equalities this block's context holds."""
        return self.ctx.all_equalities()

    def build_prefixes(self) -> None:
        self.defs_prefix = []
        seen: Set[str] = set()
        for i, stmt in enumerate(self.block.stmts):
            self.defs_prefix.append(set(seen))
            seen |= set(stmt.names)
            if isinstance(stmt.exp, A.Alloc):
                self.allocs_here[stmt.names[0]] = i

    def available_at(self, idx: int) -> Set[str]:
        return self.outer_names | self.defs_prefix[idx]


class _Candidate:
    """State of one in-flight short-circuiting attempt."""

    def __init__(self, root: str, root_ixfn: IndexFn, dst_mem: str):
        self.root = root
        self.dst_mem = dst_mem
        self.pending: Dict[str, IndexFn] = {root: root_ixfn}
        self.names: Set[str] = {root}
        #: Binders (pattern elements and loop parameters) to re-home.
        self.planned: List[Tuple[A.PatElem, MemBinding]] = []
        self.uses = AccessSet()  # U_xss
        self.writes = AccessSet()  # W_bs
        #: Statement index the walk is currently at (for ordering checks).
        self.walk_pos: int = -1
        #: Smallest statement index at which a candidate write occurs.
        self.first_write_pos: Optional[int] = None
        #: Boundary names (loop params) the chain was closed against.
        self.boundary_used: Set[str] = set()
        #: Leftover regions of widened slice inverses (IntSets of address
        #: space); non-empty iff some link of the chain was widened.  Every
        #: real write above that link must be proven disjoint from these.
        self.extra_sets: List = []
        #: Count of writes classified as provable no-ops.
        self.noops: int = 0


_CREATORS = (A.Copy, A.Iota, A.Replicate, A.Scratch, A.Concat, A.Map)
_LAYOUT = (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.VarRef)


#: Fixpoint rounds of the whole-function walk (a commit can expose a new
#: circuit point).
_MAX_ROUNDS = 4


class _ShortCircuiter:
    def __init__(self, fun: A.Fun, shared, enable_splitting: bool = True):
        self.fun = fun
        self.enable_splitting = enable_splitting
        #: The compilation's shared state (duck-typed: a
        #: :class:`repro.pipeline.CompileContext` or anything with a
        #: ``provers`` :class:`repro.lmad.ProverPool` and a
        #: ``root_context()``).  Prover/NonOverlapChecker memos are
        #: pooled there and survive this pass, so fusion and reuse
        #: queries against the same contexts start warm.
        self.shared = shared
        self.stats = ShortCircuitStats()
        self._rebased: Set[str] = set()
        #: One Prover (and its tiered NonOverlapChecker) per assumption
        #: context, shared across every non-overlap query issued against
        #: that context, so the prover's memo table amortizes over all
        #: circuit points of a block instead of being rebuilt per query
        #: batch (paper section V-D), and across passes.
        self._pool: ProverPool = shared.provers

    def _prover_for(self, ctx: Context) -> Tuple[Prover, NonOverlapChecker]:
        return self._pool.pair_for(ctx, self.enable_splitting)

    # ==================================================================
    def run(self) -> ShortCircuitStats:
        from repro.mem.introduce import refresh_derived_bindings

        with self._pool.client("sc") as self.stats.tiers:
            for _ in range(_MAX_ROUNDS):
                analyze_last_uses(self.fun)
                self.stats.rounds += 1
                # Per-round contexts are rebuilt (and may gain equalities)
                # every round.  The pool needs no clearing: rebuilt
                # contexts are new objects with fresh (LRU-bounded)
                # entries, and a question already answered under equal
                # facts is answered from the pool's verdict table.
                root_scope = self._root_scope()
                changed = self._process_block(self.fun.body, root_scope)
                # Views and update results derived from rebased arrays
                # must follow their sources into the new memory.
                refresh_derived_bindings(self.fun)
                if not changed:
                    break
        return self.stats

    def _root_scope(self) -> _Scope:
        ctx = self.shared.root_context()
        bindings = entry_bindings(self.fun)
        outer: Set[str] = {b.mem for b in bindings.values()}
        for p in self.fun.params:
            outer.add(p.name)
            if isinstance(p.type, ArrayType):
                # Shape variables are implicitly in scope everywhere.
                for s in p.type.shape:
                    outer |= s.free_vars()
        for _, var, expr in self.fun.assumptions:
            outer.add(var)
            outer |= expr.free_vars()
        return _Scope(ctx, bindings, outer, self.fun.body)

    # ==================================================================
    # Scope construction
    # ==================================================================
    def _child_scope(
        self,
        block: A.Block,
        parent: _Scope,
        parent_idx: int,
        binder: Optional[A.Binder] = None,
    ) -> _Scope:
        bindings = dict(parent.bindings)
        if binder is not None:
            bindings.update(
                (p.name, p.mem) for p in binder.params if p.mem is not None
            )
        # A scalar the parent's context defines can be substituted away,
        # so it counts as available wherever it is bound.
        outer = parent.available_at(parent_idx) | set(parent.symtab)
        outer |= parent.outer_names | A.bound_names(binder)
        ctx = A.scope_context(parent.ctx, block, binder)
        return _Scope(ctx, bindings, outer, block)

    def _body_scope(self, exp: A.Exp, parent: _Scope, parent_idx: int) -> _Scope:
        """The scope of a ``map``'s or ``loop``'s one body."""
        ((body, binder),) = A.sub_scopes(exp)
        return self._child_scope(body, parent, parent_idx, binder)

    def _populate_scope(self, scope: _Scope) -> None:
        """Record the block's bindings as they stand now."""
        scope.build_prefixes()
        for stmt in scope.block.stmts:
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    scope.bindings[pe.name] = binding_of(pe)

    # ==================================================================
    # Recursive driver
    # ==================================================================
    def _process_block(self, block: A.Block, scope: _Scope) -> bool:
        self._populate_scope(scope)
        changed = False

        # Recurse into nested blocks first (inner circuit points commit
        # before outer ones look at their statements this round).
        for idx, stmt in enumerate(block.stmts):
            for blk, binder in A.sub_scopes(stmt.exp):
                child = self._child_scope(blk, scope, idx, binder)
                changed |= self._process_block(blk, child)

        # This block's circuit points, bottom-up.
        self._populate_scope(scope)  # refresh after child commits
        for idx in range(len(block.stmts) - 1, -1, -1):
            stmt = block.stmts[idx]
            exp = stmt.exp
            if isinstance(exp, A.Update) and isinstance(exp.value, str):
                changed |= self._circuit_update(block, scope, idx, stmt, exp)
            elif isinstance(exp, A.Concat):
                changed |= self._circuit_concat(block, scope, idx, stmt, exp)
            elif isinstance(exp, A.Map):
                changed |= self._circuit_map_implicit(block, scope, idx, stmt, exp)
            elif isinstance(exp, A.Copy):
                done = self._circuit_copy(block, scope, idx, stmt, exp)
                if not done:
                    done = self._circuit_copy_reuse(scope, stmt, exp)
                changed |= done
        return changed

    def _circuit_copy(self, block, scope, idx, stmt, exp: A.Copy) -> bool:
        """``let x = copy b_lu`` as a full circuit point (concat of one)."""
        if exp.src not in stmt.last_uses:
            return False
        dst = binding_of(stmt.pattern[0])
        src = scope.bindings.get(exp.src)
        if dst is None or src is None:
            return False
        if src.mem == dst.mem and src.ixfn == dst.ixfn:
            return False  # already a no-op
        cand = _Candidate(exp.src, dst.ixfn, dst.mem)
        return self._attempt(block, scope, idx, cand)

    def _circuit_copy_reuse(self, scope: _Scope, stmt: A.Let, exp: A.Copy) -> bool:
        """``let x = copy b_lu``: reuse the dead source's memory for ``x``.

        When the copied array (with all its aliases) is dead, the copy's
        result can simply be re-homed into the source's block, making the
        copy a no-op -- provided the source occupies its block exactly
        (whole-buffer row-major), so that later in-place updates of ``x``
        land on dead data only.  This is the memory-footprint half of the
        paper's introduction (distinct arrays sharing one block) and the
        mechanism behind the NN benchmark's eliminated per-iteration copy.
        """
        if exp.src not in stmt.last_uses:
            return False
        sb = scope.bindings.get(exp.src)
        if sb is None:
            return False
        pe = stmt.pattern[0]
        if pe.name in self._rebased:
            return False  # a full short-circuit already re-homed this copy
        cur = binding_of(pe)
        if cur is not None and cur.mem == sb.mem:
            return False  # already reused
        prover, _ = self._prover_for(scope.ctx)
        if not sb.ixfn.is_direct(prover):
            return False
        pe.mem = sb
        scope.bindings[pe.name] = pe.mem
        self.stats.reused_copies += 1
        return True

    # ==================================================================
    # Circuit-point detection
    # ==================================================================
    def _circuit_update(self, block, scope, idx, stmt, exp: A.Update) -> bool:
        value = exp.value
        if value not in stmt.last_uses:
            return False
        src_binding = scope.bindings.get(exp.src)
        val_binding = scope.bindings.get(value)
        if src_binding is None or val_binding is None:
            return False
        region = _ixfn_region_of_update(src_binding, exp.spec)
        if val_binding.mem == src_binding.mem and val_binding.ixfn == region:
            return False  # already short-circuited
        cand = _Candidate(value, region, src_binding.mem)
        return self._attempt(block, scope, idx, cand)

    def _circuit_concat(self, block, scope, idx, stmt, exp: A.Concat) -> bool:
        dst_binding = binding_of(stmt.pattern[0])
        if dst_binding is None:
            return False
        changed = False
        offset: SymExpr = sym(0)
        rest_dims = list(dst_binding.ixfn.shape[1:])
        seen: Set[str] = set()
        for o in exp.srcs:
            ob = scope.bindings.get(o)
            if ob is None:
                continue
            rows = ob.ixfn.shape[0]
            # A duplicated operand can fill at most one segment without a
            # copy (paper footnote 17): only its first occurrence chains.
            if o in stmt.last_uses and o not in seen:
                seen.add(o)
                region = dst_binding.ixfn.slice_triplets(
                    [(offset, rows, sym(1))]
                    + [(sym(0), d, sym(1)) for d in rest_dims]
                )
                if not (ob.mem == dst_binding.mem and ob.ixfn == region):
                    cand = _Candidate(o, region, dst_binding.mem)
                    changed |= self._attempt(block, scope, idx, cand)
            offset = offset + rows
        return changed

    def _circuit_map_implicit(self, block, scope, idx, stmt, exp: A.Map) -> bool:
        """The implicit ``xss[i] = r`` of each array result (fig. 6b)."""
        changed = False
        body = exp.lam.body
        tvar = exp.lam.params[0]
        free = A.block_free_vars(body)
        for k, pe in enumerate(stmt.pattern):
            if not pe.is_array():
                continue
            r = body.result[k]
            if r in free or r == tvar:
                continue  # not created inside the body
            dstb = binding_of(pe)
            if dstb is None:
                continue
            region = dstb.ixfn.fix_dim(0, SymExpr.var(tvar))
            child = self._body_scope(exp, scope, idx)
            self._populate_scope(child)
            rb = child.bindings.get(r)
            if rb is None or (rb.mem == dstb.mem and rb.ixfn == region):
                continue
            cand = _Candidate(r, region, dstb.mem)
            ok = self._attempt(
                body,
                child,
                len(body.stmts),
                cand,
                cross_iteration=(tvar, exp.width, True),
            )
            changed |= ok
        return changed

    # ==================================================================
    # The bottom-up candidate walk
    # ==================================================================
    def _attempt(
        self,
        block: A.Block,
        scope: _Scope,
        circuit_idx: int,
        cand: _Candidate,
        cross_iteration: Optional[Tuple[str, SymExpr, bool]] = None,
    ) -> bool:
        self.stats.attempted += 1
        prover, checker = self._prover_for(scope.ctx)
        try:
            self._walk(block, scope, circuit_idx, cand, prover, checker)
            if cand.pending:
                raise Declined("creation-not-found")
            if cross_iteration is not None:
                var, count, both = cross_iteration
                self._check_cross_iteration(
                    cand.writes, cand.uses, var, count, both, scope
                )
        except Declined as why:
            self.stats.declined.add(
                "sc", why.rule, f"{cand.root} -> {cand.dst_mem}", why.detail
            )
            return False
        if all(pe.mem == b for pe, b in cand.planned):
            # An earlier round installed exactly these bindings; the
            # circuit point only *spells* the region differently (through
            # a scalar translate_ixfn substituted away).  Not a commit.
            return False
        # Commit.
        for pe, binding in cand.planned:
            pe.mem = binding
            scope.bindings[pe.name] = binding
            self._rebased.add(pe.name)
        self.stats.committed += 1
        self.stats.committed_roots.append(cand.root)
        if cand.extra_sets:
            self.stats.widened_candidates += 1
        self.stats.noop_writes += cand.noops
        return True

    def _walk(
        self,
        block: A.Block,
        scope: _Scope,
        from_idx: int,
        cand: _Candidate,
        prover: Prover,
        checker: NonOverlapChecker,
        boundary_ok: Optional[Dict[str, IndexFn]] = None,
    ) -> None:
        for j in range(from_idx - 1, -1, -1):
            stmt = block.stmts[j]
            cand.walk_pos = j
            hit = set(stmt.names) & set(cand.pending)
            if hit:
                before = (len(cand.writes.lmads), cand.writes.unknown)
                self._handle_definition(stmt, j, block, scope, cand, prover, checker)
                if (len(cand.writes.lmads), cand.writes.unknown) != before:
                    cand.first_write_pos = j
                if not cand.pending:
                    return
            else:
                uses = collect_dst_uses(
                    stmt,
                    cand.dst_mem,
                    scope.bindings,
                    prover,
                    skip_vars=frozenset(cand.names),
                )
                cand.uses.add_all(uses)
        # End of block: only boundary names may remain pending.
        if boundary_ok:
            for v in list(cand.pending):
                if v in boundary_ok and cand.pending[v] == boundary_ok[v]:
                    del cand.pending[v]
                    cand.boundary_used.add(v)

    # ------------------------------------------------------------------
    def _check_write(
        self,
        region: IndexFn,
        cand: _Candidate,
        checker: NonOverlapChecker,
        what: str,
        extra_uses: Optional[AccessSet] = None,
    ) -> None:
        w = AccessSet()
        w.add_ixfn(region)
        if w.unknown:
            raise Declined(f"{what}:composed-write-region")
        if not w.disjoint_from(cand.uses, checker):
            raise Declined(f"{what}:write-overlaps-uses")
        if extra_uses is not None and not w.disjoint_from(extra_uses, checker):
            raise Declined(f"{what}:write-overlaps-kernel-reads")
        if cand.extra_sets:
            self._check_extra_obligation(w, cand, checker, what)
        cand.writes.add_all(w)

    def _check_extra_obligation(
        self,
        w: AccessSet,
        cand: _Candidate,
        checker: NonOverlapChecker,
        what: str,
    ) -> None:
        """Real writes above a widened slice link must stay inside the
        slice box: prove each write disjoint from every leftover region
        (a relation-emptiness query -- there is no structural form)."""
        engine = getattr(checker, "engine", None)
        if engine is None:
            raise Declined(f"{what}:widened-extra-unverifiable")
        from repro.isl.emptiness import Verdict

        for extra in cand.extra_sets:
            for l in w.lmads:
                if engine.disjoint_from_extra(l, extra) is not Verdict.EMPTY:
                    self._pool.record_tier("unknown")
                    raise Declined(f"{what}:widened-extra-clobbered")
                self._pool.record_tier("polyhedral")

    def _is_noop_write(
        self,
        j: int,
        block: A.Block,
        scope: _Scope,
        exp: A.Update,
        region: IndexFn,
        prover: Prover,
        cand: _Candidate,
    ) -> bool:
        """Is this rebased point write provably a no-op?

        The boundary fills of a widened candidate (e.g. NW's first row /
        first column, paper fig. 9) read a destination-memory element and
        -- under the widened layout -- store it back at the very same
        address.  Conditions: the stored value is defined by an ``Index``
        of a non-chain array bound to the destination block, no statement
        between the read and the write can touch memory, and the read
        address provably equals the write address.
        """
        if not isinstance(exp.spec, A.PointSpec):
            return False
        if not isinstance(exp.value, str):
            return False
        single = region.as_single()
        if single is None or single.dims:
            return False
        def_idx = None
        for i in range(j - 1, -1, -1):
            if exp.value in block.stmts[i].names:
                def_idx = i
                break
        if def_idx is None:
            return False
        vdef = block.stmts[def_idx].exp
        if not isinstance(vdef, A.Index) or vdef.src in cand.names:
            return False
        vb = scope.bindings.get(vdef.src)
        if vb is None or vb.mem != cand.dst_mem:
            return False
        vsingle = vb.ixfn.as_single()
        if vsingle is None:
            return False
        for i in range(def_idx + 1, j):
            mid = block.stmts[i].exp
            if not isinstance(
                mid,
                (
                    A.ScalarE,
                    A.Lit,
                    A.Index,
                    A.BinOp,
                    A.UnOp,
                    A.SliceT,
                    A.LmadSlice,
                    A.Rearrange,
                    A.Reshape,
                    A.Reverse,
                    A.VarRef,
                ),
            ):
                return False
        return prover.eq(vsingle.apply(vdef.indices), single.offset)

    def _translated(
        self, F: IndexFn, scope: _Scope, j: int
    ) -> IndexFn:
        out = translate_ixfn(F, scope.available_at(j), scope.symtab)
        if out is None:
            raise Declined("untranslatable-ixfn")
        return out

    def _require_dst_in_scope(self, scope: _Scope, j: int, dst_mem: str) -> None:
        pos = scope.allocs_here.get(dst_mem)
        if pos is not None and pos > j:
            raise Declined("dst-memory-not-in-scope")

    # ------------------------------------------------------------------
    def _handle_definition(
        self,
        stmt: A.Let,
        j: int,
        block: A.Block,
        scope: _Scope,
        cand: _Candidate,
        prover: Prover,
        checker: NonOverlapChecker,
    ) -> None:
        exp = stmt.exp
        for pe in stmt.pattern:
            if pe.name not in cand.pending:
                continue
            F = cand.pending.pop(pe.name)
            Ft = self._translated(F, scope, j)

            if isinstance(exp, _CREATORS):
                self._require_dst_in_scope(scope, j, cand.dst_mem)
                if isinstance(exp, A.Map):
                    self._validate_creating_map(stmt, j, exp, Ft, scope, cand, prover, checker)
                elif not isinstance(exp, A.Scratch):
                    self._check_write(Ft, cand, checker, type(exp).__name__.lower())
                cand.planned.append((pe, MemBinding(cand.dst_mem, Ft)))
                if isinstance(exp, A.Concat):
                    self._chain_concat_operands(stmt, exp, Ft, scope, cand)
                continue

            if isinstance(exp, _LAYOUT):
                src = exp.src if not isinstance(exp, A.VarRef) else exp.name
                src_b = scope.bindings.get(src)
                if src_b is None:
                    raise Declined("layout-src-unbound")
                inv = inverse_rebase(exp, Ft, src_b.ixfn.shape, prover)
                if inv is None:
                    # Polyhedral tier: a unit-step triplet slice has a
                    # *widened* inverse covering the full source shape.
                    # The widened layout claims extra destination
                    # addresses (the box faces outside the slice); every
                    # real write above this link must be proven disjoint
                    # from that leftover region (see _check_write).
                    wide = widened_slice_inverse(
                        exp, Ft, src_b.ixfn.shape, prover
                    )
                    if wide is None:
                        raise Declined("non-invertible-layout")
                    from repro.isl.bridge import slice_box_difference

                    inv, starts, counts = wide
                    cand.extra_sets.append(
                        slice_box_difference(inv.as_single(), starts, counts)
                    )
                cand.planned.append((pe, MemBinding(cand.dst_mem, Ft)))
                cand.pending[src] = inv
                cand.names.add(src)
                continue

            if isinstance(exp, A.Update):
                region = _ixfn_region_of_update(
                    MemBinding(cand.dst_mem, Ft), exp.spec
                )
                if cand.extra_sets and self._is_noop_write(
                    j, block, scope, exp, region, prover, cand
                ):
                    # The write provably stores the value already present
                    # at its (widened) address: it does not change memory,
                    # so it is exempt from the write checks -- while its
                    # defining read stays in the use summary, keeping the
                    # cross-thread conditions intact.
                    cand.noops += 1
                else:
                    # If the written value itself reads destination
                    # memory, the read and the (simultaneous) write must
                    # not overlap.
                    extra = None
                    if (
                        isinstance(exp.value, str)
                        and exp.value not in cand.names
                    ):
                        vb = scope.bindings.get(exp.value)
                        if vb is not None and vb.mem == cand.dst_mem:
                            extra = AccessSet()
                            extra.add_ixfn(vb.ixfn)
                    self._check_write(region, cand, checker, "update", extra)
                cand.planned.append((pe, MemBinding(cand.dst_mem, Ft)))
                cand.pending[exp.src] = Ft
                cand.names.add(exp.src)
                continue

            if isinstance(exp, A.If):
                self._handle_if_definition(stmt, j, exp, pe, Ft, scope, cand, prover, checker)
                continue

            if isinstance(exp, A.Loop):
                self._handle_loop_definition(stmt, j, exp, pe, Ft, scope, cand, prover, checker)
                continue

            raise Declined(f"unsupported-definition:{type(exp).__name__}")

    # ------------------------------------------------------------------
    def _validate_creating_map(
        self,
        stmt: A.Let,
        j: int,
        exp: A.Map,
        Ft,
        scope: _Scope,
        cand: _Candidate,
        prover: Prover,
        checker: NonOverlapChecker,
    ) -> None:
        """Per-thread safety for the candidate-creating mapnest (V-B).

        Thread ``i`` writes the slice ``Ft[i]``; its writes must not overlap
        any *other* thread's destination uses (threads execute out of
        order), and the map's total writes must not overlap the uses
        accumulated below the map.  Same-thread reads precede the implicit
        result write, so fig. 1 (left) -- thread i reading exactly the
        diagonal element it replaces -- is accepted.
        """
        tvar = exp.lam.params[0]
        # Total write vs. everything used after the map.
        self._check_write(Ft, cand, checker, "map")
        # Per-thread body uses (kept parametric in the thread index).
        child = self._body_scope(exp, scope, j)
        self._populate_scope(child)
        body_uses = collect_block_dst_uses(
            exp.lam.body, cand.dst_mem, child.bindings, prover, frozenset(cand.names)
        )
        if body_uses.is_empty():
            return
        if body_uses.unknown:
            raise Declined("map-body-uses-unknown")
        w_thread = AccessSet()
        single = Ft.fix_dim(0, SymExpr.var(tvar)).as_single()
        if single is None:
            raise Declined("map:composed-write-region")
        w_thread.add_lmad(single)
        self._check_cross_iteration(
            w_thread, body_uses, tvar, exp.width, True, child
        )
        agg = body_uses.aggregated(tvar, exp.width, prover)
        cand.uses.add_all(agg)

    # ------------------------------------------------------------------
    def _chain_concat_operands(
        self, stmt: A.Let, exp: A.Concat, Ft: IndexFn, scope: _Scope, cand: _Candidate
    ) -> None:
        """Rebase lastly-used concat operands into their segments."""
        offset: SymExpr = sym(0)
        rest_dims = list(Ft.shape[1:])
        for o in exp.srcs:
            ob = scope.bindings.get(o)
            if ob is None:
                continue
            rows = ob.ixfn.shape[0]
            if o in stmt.last_uses and o not in cand.names:
                region = Ft.slice_triplets(
                    [(offset, rows, sym(1))]
                    + [(sym(0), d, sym(1)) for d in rest_dims]
                )
                cand.pending[o] = region
                cand.names.add(o)
            offset = offset + rows

    # ------------------------------------------------------------------
    def _handle_if_definition(
        self, stmt, j, exp: A.If, pe, Ft, scope, cand, prover, checker
    ) -> None:
        """Fig. 5a: recurse into both branches."""
        k = stmt.names.index(pe.name)
        cand.planned.append((pe, MemBinding(cand.dst_mem, Ft)))
        for blk in (exp.then_block, exp.else_block):
            res = blk.result[k]
            child = self._child_scope(blk, scope, j)
            self._populate_scope(child)
            sub = _Candidate(res, Ft, cand.dst_mem)
            sub.names |= cand.names
            sub.extra_sets = cand.extra_sets
            sub.uses.add_all(cand.uses)
            self._walk(blk, child, len(blk.stmts), sub, prover, checker)
            if sub.pending:
                raise Declined("if-branch-creation-not-found")
            cand.planned.extend(sub.planned)
            cand.writes.add_all(sub.writes)
            cand.uses.add_all(sub.uses)
            cand.names |= sub.names
            cand.noops += sub.noops

    # ------------------------------------------------------------------
    def _handle_loop_definition(
        self, stmt, j, exp: A.Loop, pe, Ft, scope, cand, prover, checker
    ) -> None:
        """Fig. 5b: rebase loop result, body result, param and initializer."""
        if exp.index in Ft.free_vars():
            raise Declined("loop-variant-target-ixfn")
        k = stmt.names.index(pe.name)
        prm, init = exp.carried[k]
        body_res = exp.body.result[k]
        if prm.mem is None:
            raise Declined("loop-without-param-bindings")

        child = self._body_scope(exp, scope, j)
        self._populate_scope(child)

        body_prover, body_checker = self._prover_for(child.ctx)
        sub = _Candidate(body_res, Ft, cand.dst_mem)
        sub.names |= cand.names
        sub.extra_sets = cand.extra_sets
        self._walk(
            exp.body,
            child,
            len(exp.body.stmts),
            sub,
            body_prover,
            body_checker,
            boundary_ok={prm.name: Ft},
        )
        if sub.pending:
            raise Declined("loop-body-creation-not-found")

        # Fig. 5b condition (3).  The iteration input `as` is an alias of
        # the candidate (its rebased memory is the same region), so its
        # reads are not "uses of xss"; instead, when the body produces a
        # *fresh* result each iteration (double buffering, collapsed into
        # one region by the rebase), every read of the input must happen
        # before the first write through the candidate chain.  Strictly
        # in-place chains (the result is an update of the input itself,
        # recognized by the boundary match) need no check: the rebase does
        # not change their single-buffer behaviour.
        if prm.name not in sub.boundary_used:
            last_read = _last_use_position(exp.body, prm.name)
            if last_read is not None and (
                sub.first_write_pos is None
                or sub.first_write_pos <= last_read
            ):
                raise Declined("loop-input-live-past-first-write")

        # Cross-iteration safety (paper fig. 7b): writes of iteration i must
        # not overlap uses of any later iteration, and the loop's total
        # writes must not overlap the uses accumulated below the loop.
        self._check_cross_iteration(
            sub.writes, sub.uses, exp.index, exp.count, False, child
        )
        w_loop = sub.writes.aggregated(exp.index, exp.count, prover)
        u_loop = sub.uses.aggregated(exp.index, exp.count, prover)
        if not w_loop.disjoint_from(cand.uses, checker):
            raise Declined("loop-writes-overlap-later-uses")

        cand.planned.append((pe, MemBinding(cand.dst_mem, Ft)))
        cand.planned.extend(sub.planned)
        cand.planned.append((prm, MemBinding(cand.dst_mem, Ft)))
        cand.writes.add_all(w_loop)
        cand.uses.add_all(u_loop)
        cand.names |= sub.names
        cand.noops += sub.noops
        # Fig. 5b condition (4): the initializer is rebased too.
        cand.pending[init] = Ft
        cand.names.add(init)

    # ------------------------------------------------------------------
    def _check_cross_iteration(
        self,
        writes: AccessSet,
        uses: AccessSet,
        var: str,
        count: SymExpr,
        both_directions: bool,
        scope: _Scope,
    ) -> None:
        """``W_i`` disjoint from ``U_j`` for j > i (and j < i for maps,
        whose iterations execute out of order -- paper section V-B)."""
        if uses.is_empty() or writes.is_empty():
            return
        if uses.unknown or writes.unknown:
            raise Declined("cross-iteration-unknown-sets")
        jvar = f"{var}_other"
        directions = [(SymExpr.var(var) + 1, count - 1)]
        if both_directions:
            directions.append((sym(0), SymExpr.var(var) - 1))
        for lo, hi in directions:
            ctx = scope.ctx.extended()
            ctx.assume_range(jvar, lo, hi)
            checker = self._pool.checker_for(ctx, self.enable_splitting)
            shifted = uses.substitute({var: SymExpr.var(jvar)})
            if not writes.disjoint_from(shifted, checker):
                raise Declined("cross-iteration-overlap", checker.witness)


def _last_use_position(block: A.Block, name: str) -> Optional[int]:
    """Index of the last statement using ``name`` or a view derived from it."""
    derived = {name}
    last: Optional[int] = None
    for i, stmt in enumerate(block.stmts):
        if A.exp_uses(stmt.exp) & derived:
            last = i
        exp = stmt.exp
        src = None
        if isinstance(exp, A.VarRef):
            src = exp.name
        elif isinstance(exp, (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse)):
            src = exp.src
        if src in derived:
            derived |= set(stmt.names)
    if name in block.result:
        last = len(block.stmts)
    return last


def short_circuit_fun(
    fun: A.Fun, shared, enable_splitting: bool = True
) -> ShortCircuitStats:
    """Run array short-circuiting on a memory-annotated function in place.

    ``shared`` is the compilation's shared state (see
    :class:`repro.pipeline.CompileContext`): the root assumption context
    and all Prover/NonOverlapChecker memos are pooled there and carried
    into the later pipeline passes.
    """
    return _ShortCircuiter(fun, shared, enable_splitting).run()
