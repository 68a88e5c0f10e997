"""Race detection over memory annotations (R rules).

The checker re-derives, independently of the short-circuiting pass, the
paper's section V-B/V-C safety conditions from the *output* program: it
walks every block collecting read/write **events** -- (memory block, LMAD
region, variable name) triples -- and demands a non-overlap proof
(:class:`repro.lmad.NonOverlapChecker`, including the Fig. 8 dimension
splitting) for every pair that the program's own dataflow does not order:

* **sequential clobbers** (R01): a read must not overlap any earlier
  write through a value-flow-independent name -- the exact situation an
  unsafe rebase creates, where an array's bytes are silently overwritten
  while a live unrelated array still points at them (a write that
  precedes a definition writing the read's whole array is dead to it);
* **map cross-thread** (R02): threads execute in unspecified order, so
  every pair of events on a shared (non-thread-private) block, one of
  them a write, must be provably disjoint for distinct thread indices --
  with *no* dataflow exemption;
* **loop cross-iteration** (R03): a later iteration's access must not
  overlap an earlier iteration's write unless the value legitimately
  flows there (the carried-dependence chain).  The dataflow exemption is
  *not* wholesale: a dependent read is the flow itself (RAW, ordered by
  sequential execution), but a dependent write is exempt only under
  distance-vector reasoning on the LMADs -- both regions must provably
  shift by the same offset per iteration with index-invariant strides,
  otherwise the pair falls through to the ordinary disjointness proof.

Accesses whose region cannot be expressed as a single LMAD (composed
index functions) are reported as R04 on shared blocks: the checker cannot
reason about them, mirroring the paper's footnote that the unknown set
defeats all later disjointness checks.

Existential memory (``emem``/``lmem``/``rmem``) is an *indirection* the
executor resolves at run time to a real block -- the ``if`` branch's, the
loop initializer's, or wherever the loop body left its result.  Events on
an existential block are expanded to every block it can stand for (all
the index functions involved are whole-buffer row-major by the introduce
pass's normalization, so offsets transfer verbatim), which lets the
thread-privacy analysis see through them: a per-thread scratch buffer
carried through a sequential in-thread loop stays private.  Blocks
allocated inside a loop or map body are fresh per iteration/thread (the
executor enforces this), so events on them are exempt from the cross
checks and invisible to enclosing scopes.  The one case the expansion
cannot name -- a double-buffered loop whose parameter aliases the
*previous* iteration's body-local allocation -- is dropped rather than
flagged, so the checker can miss (never falsely report) races there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import (
    Downstream,
    enter_scope,
    existential_targets,
    expand_block,
    learn_scalar,
    stmt_location,
)
from repro.ir import ast as A
from repro.lmad import IndexFn, ProverPool, aggregate_over_loop
from repro.lmad.lmad import Lmad, LmadDim
from repro.mem.memir import MemBinding, binding_of, entry_bindings
from repro.symbolic import Context, Prover, SymExpr


#: Expressions whose results are written whole by their definition
#: (an update, a scratch array or a view writes part or nothing).
_WHOLE_WRITES = (A.Map, A.Copy, A.Concat, A.Iota, A.Replicate)


@dataclass(frozen=True)
class Event:
    kind: str  # "r" | "w"
    mem: str
    lmad: Optional[Lmad]  # None: unknown region (composed index function)
    name: str  # variable the access goes through
    pos: int  # statement index in the current block
    loc: str  # statement location
    #: Provable no-op: the write stores the value already present at its
    #: address (the widened-rebase boundary fills).  No-op writes cannot
    #: clobber anything, so they are exempt vs. reads and other no-ops.
    noop: bool = False
    #: The full index function behind the region, kept when ``lmad`` is
    #: None so the polyhedral tier can still reason about composed
    #: accesses (R04 fallback).
    ixfn: Optional[IndexFn] = None

    def describe(self) -> str:
        what = "write" if self.kind == "w" else "read"
        region = "<unknown region>" if self.lmad is None else str(self.lmad)
        return f"{what} through {self.name!r} of {self.mem}:{region}"


def _norm_lmad(l: Lmad, ctx: Context) -> Lmad:
    """Rewrite with the context's equalities so locally-defined scalars
    (e.g. ``g = r*b + 1``) are expressed in loop indices -- required for
    aggregation over those indices to see the dependence."""
    return Lmad(
        ctx.normalize(l.offset),
        tuple(
            LmadDim(ctx.normalize(d.shape), ctx.normalize(d.stride))
            for d in l.dims
        ),
    )


def _update_region(binding: MemBinding, spec: A.IndexSpec) -> IndexFn:
    """The index function of the region an in-place update writes.

    (Independent reimplementation of the executor's region computation --
    the verifier must not import the pass it is checking.)
    """
    if isinstance(spec, A.PointSpec):
        f = binding.ixfn
        for idx in spec.indices:
            f = f.fix_dim(0, idx)
        return f
    if isinstance(spec, A.TripletSpec):
        return binding.ixfn.slice_triplets(spec.triplets)
    assert isinstance(spec, A.LmadSpec)
    return binding.ixfn.lmad_slice(spec.lmad)


class RaceChecker:
    def __init__(
        self, fun: A.Fun, report: Report, pool: Optional[ProverPool] = None
    ):
        self.fun = fun
        self.report = report
        self.down = Downstream(fun)
        #: Prover/checker/engine pool: every disjointness obligation goes
        #: through a tiered checker (structural test, then relation
        #: emptiness), and the deciding tiers tally under "races".
        self.pool = pool if pool is not None else ProverPool()
        #: existential block -> blocks it may stand for at run time
        self._targets = existential_targets(fun)
        #: the entries of ``_targets`` whose defining ``if``/loop the
        #: walk has left: an event collected inside a loop body keeps
        #: the loop's own existentials until the loop aggregates it
        self._indirect: Dict[str, Tuple[str, ...]] = {}
        self._unknown_flagged: Set[Tuple[str, str]] = set()

    def run(self) -> None:
        with self.pool.client("races") as tiers:
            ctx = self.fun.build_context()
            self._block(self.fun.body, ctx, entry_bindings(self.fun), "body")
        for k, delta in tiers.items():
            if delta:
                self.report.tiers[k] = self.report.tiers.get(k, 0) + delta

    # ==================================================================
    # Existential indirection
    # ==================================================================
    def _reveal(self, mems) -> None:
        """Resolve the existentials a statement just walked defines."""
        for m in mems:
            if m in self._targets:
                self._indirect.setdefault(m, self._targets[m])

    def _expand_events(self, events: List[Event]) -> List[Event]:
        out: List[Event] = []
        for e in events:
            expanded = expand_block(self._indirect, e.mem)
            if expanded == (e.mem,):
                out.append(e)
            else:
                out.extend(replace(e, mem=m) for m in expanded)
        return out

    # ==================================================================
    # Block walk: sequential (program-order) checking
    # ==================================================================
    def _block(
        self,
        block: A.Block,
        parent_ctx: Context,
        parent_bindings: Dict[str, MemBinding],
        path: str,
    ) -> Tuple[List[Event], Set[str], Dict[str, MemBinding]]:
        """Returns (events, locally-allocated blocks, final bindings).

        ``local`` includes allocations of nested sub-blocks.  Events on
        locally-allocated blocks are dropped from the returned summary:
        the block is re-created by every execution of this block, so no
        enclosing scope can share it.
        """
        ctx = parent_ctx.extended()
        bindings = dict(parent_bindings)
        events: List[Event] = []
        local: Set[str] = set()
        #: scalar name -> (def position, block, normalized read address)
        #: for single-element reads, feeding the no-op-write classifier.
        index_defs: Dict[str, Tuple[int, str, SymExpr]] = {}
        #: array name -> position of a definition that writes its whole
        #: binding, so no earlier write can reach a read through it
        whole: Dict[str, int] = {}
        for i, stmt in enumerate(block.stmts):
            spath = f"{path}[{i}]"
            evs, sub_local = self._stmt_events(stmt, ctx, bindings, spath)
            local |= sub_local
            evs = [replace(e, pos=i) for e in self._expand_events(evs)]
            evs = self._classify_noops(stmt, evs, index_defs, events, ctx)
            self._seq_check(evs, events, ctx, whole)
            events.extend(evs)
            exp = stmt.exp
            if isinstance(exp, _WHOLE_WRITES) and not (
                isinstance(exp, A.Concat)
                and not set(exp.srcs) <= {e.name for e in evs if e.kind == "r"}
            ):
                # Only an emitted write counts: an elided copy, concat
                # operand or implicit map copy writes nothing through V.
                wrote = {e.name for e in evs if e.kind == "w"}
                whole.update((v, i) for v in stmt.names if v in wrote)
            learn_scalar(ctx, stmt)
            if isinstance(exp, A.Alloc):
                local.add(stmt.names[0])
            elif isinstance(exp, A.Index):
                b = bindings.get(exp.src)
                if b is not None:
                    single = b.ixfn.as_single()
                    if single is not None:
                        index_defs[stmt.names[0]] = (
                            i, b.mem, ctx.normalize(single.apply(exp.indices))
                        )
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    bindings[pe.name] = binding_of(pe)
        kept = [e for e in events if e.mem not in local]
        return kept, local, bindings

    def _classify_noops(
        self,
        stmt: A.Let,
        evs: List[Event],
        index_defs: Dict[str, Tuple[int, str, SymExpr]],
        prior: List[Event],
        ctx: Context,
    ) -> List[Event]:
        """Mark point writes that provably store the value already there.

        A widened rebase (see the short-circuiting pass) leaves boundary
        fills writing ``x[addr] = x[addr]``: the stored value is defined
        by an element read of the *same* block at a provably equal
        address, with no intervening write to that block.  Such writes do
        not change memory, so the cross checks may exempt them against
        reads and other no-ops (never against real writes).
        """
        exp = stmt.exp
        if not isinstance(exp, A.Update) or not isinstance(exp.value, str):
            return evs
        info = index_defs.get(exp.value)
        if info is None:
            return evs
        dpos, dmem, daddr = info
        dset = set(expand_block(self._indirect, dmem))
        if any(
            e.kind == "w" and not e.noop and e.pos > dpos and e.mem in dset
            for e in prior
        ):
            return evs
        prover = self.pool.prover_for(ctx)
        out: List[Event] = []
        for e in evs:
            if (
                e.kind == "w"
                and e.mem in dset
                and e.lmad is not None
                and not e.lmad.dims
                and prover.eq(e.lmad.offset, daddr)
            ):
                e = replace(e, noop=True)
            out.append(e)
        return out

    def _seq_check(
        self,
        new: List[Event],
        prior: List[Event],
        ctx: Context,
        whole: Dict[str, int],
    ) -> None:
        reads = [e for e in new if e.kind == "r"]
        if not reads:
            return
        writes = [e for e in prior if e.kind == "w" and not e.noop]
        if not writes:
            return
        checker = self.pool.checker_for(ctx)
        for r in reads:
            for w in writes:
                if w.mem != r.mem or w.pos < whole.get(r.name, -1):
                    continue
                if self.down.dependent(w.name, r.name):
                    continue
                if w.lmad is None or r.lmad is None:
                    if self._composed_disjoint(w, r, ctx):
                        continue
                    self._flag_unknown(w if w.lmad is None else r)
                    continue
                self.report.count()
                if not checker.check(w.lmad, r.lmad):
                    self.report.add(
                        "R01", Severity.ERROR, r.loc,
                        f"{r.describe()} may observe the earlier "
                        f"{w.describe()} (at {w.loc}); the two are "
                        "value-flow independent and not provably disjoint",
                    )

    def _composed_disjoint(
        self,
        a: Event,
        b: Event,
        ctx: Context,
        subst: Optional[Dict[str, SymExpr]] = None,
    ) -> bool:
        """Polyhedral fallback for pairs with a composed index function.

        The structural checker needs single LMADs; the relation engine
        does not -- composed accesses become unranking relations with
        existential coordinates.  Only an exact EMPTY passes.
        """
        ra = a.ixfn if a.lmad is None else a.lmad
        rb = b.ixfn if b.lmad is None else b.lmad
        if ra is None or rb is None:
            return False
        if subst:
            rb = rb.substitute(subst)
        from repro.isl.emptiness import Verdict

        engine = self.pool.engine_for(ctx)
        self.report.count()
        ok = engine.accesses_disjoint(ra, rb) is Verdict.EMPTY
        self.pool.record_tier("polyhedral" if ok else "unknown")
        return ok

    def _flag_unknown(self, e: Event) -> None:
        key = (e.mem, e.name)
        if key in self._unknown_flagged:
            return
        self._unknown_flagged.add(key)
        self.report.add(
            "R04", Severity.WARNING, e.loc,
            f"{e.describe()}: region is a composed index function on a "
            "shared block; overlap cannot be checked",
        )

    # ==================================================================
    # Per-statement events
    # ==================================================================
    def _stmt_events(
        self,
        stmt: A.Let,
        ctx: Context,
        bindings: Dict[str, MemBinding],
        spath: str,
    ) -> Tuple[List[Event], Set[str]]:
        exp = stmt.exp
        loc = stmt_location(spath, stmt)
        none: Set[str] = set()

        def region_of(ixfn: IndexFn) -> Optional[Lmad]:
            single = ixfn.as_single()
            return None if single is None else _norm_lmad(single, ctx)

        def read(name: str, b: MemBinding) -> Event:
            return Event(
                "r", b.mem, region_of(b.ixfn), name, 0, loc, ixfn=b.ixfn
            )

        def write(name: str, b: MemBinding) -> Event:
            return Event(
                "w", b.mem, region_of(b.ixfn), name, 0, loc, ixfn=b.ixfn
            )

        if isinstance(exp, A.Index):
            b = bindings.get(exp.src)
            if b is None:
                return [], none
            single = b.ixfn.as_single()
            if single is None:
                # The exact point needs run-time unranking; the whole
                # footprint over-approximates it for the fallback tier.
                return [
                    Event("r", b.mem, None, exp.src, 0, loc, ixfn=b.ixfn)
                ], none
            point = Lmad(ctx.normalize(single.apply(exp.indices)), ())
            return [Event("r", b.mem, point, exp.src, 0, loc)], none

        if isinstance(exp, A.Copy):
            src_b = bindings.get(exp.src)
            dst_b = binding_of(stmt.pattern[0])
            if dst_b is None:
                return [], none
            if src_b is not None and src_b == dst_b:
                return [], none  # elided by the executor: no traffic
            out = [write(stmt.names[0], dst_b)]
            if src_b is not None:
                out.insert(0, read(exp.src, src_b))
            return out, none

        if isinstance(exp, A.Concat):
            dst_b = binding_of(stmt.pattern[0])
            if dst_b is None:
                return [], none
            out: List[Event] = []
            offset: SymExpr = SymExpr.const(0)
            inner_shape = dst_b.ixfn.shape[1:]
            for s in exp.srcs:
                src_b = bindings.get(s)
                if src_b is None:
                    continue
                rows = src_b.ixfn.shape[0]
                region = dst_b.ixfn.slice_triplets(
                    [(offset, rows, 1)]
                    + [(SymExpr.const(0), d, 1) for d in inner_shape]
                )
                offset = offset + rows
                if src_b.mem == dst_b.mem and src_b.ixfn == region:
                    continue  # operand already in place: elided
                out.append(read(s, src_b))
                out.append(
                    Event(
                        "w", dst_b.mem, region_of(region),
                        stmt.names[0], 0, loc, ixfn=region,
                    )
                )
            return out, none

        if isinstance(exp, (A.Iota, A.Replicate)):
            dst_b = binding_of(stmt.pattern[0])
            if dst_b is None:
                return [], none
            return [write(stmt.names[0], dst_b)], none

        if isinstance(exp, A.Update):
            res_b = binding_of(stmt.pattern[0])
            if res_b is None:
                return [], none
            region = _update_region(res_b, exp.spec)
            out = []
            if isinstance(exp.value, str):
                val_b = bindings.get(exp.value)
                if val_b is not None and not (
                    val_b.mem == res_b.mem and val_b.ixfn == region
                ):
                    out.append(read(exp.value, val_b))
            out.append(
                Event(
                    "w", res_b.mem, region_of(region), stmt.names[0], 0, loc,
                    ixfn=region,
                )
            )
            return out, none

        if isinstance(exp, (A.Reduce, A.ArgMin)):
            b = bindings.get(exp.src)
            return ([] if b is None else [read(exp.src, b)]), none

        if isinstance(exp, A.Map):
            return self._map_events(stmt, exp, ctx, bindings, spath, loc)
        if isinstance(exp, A.Loop):
            return self._loop_events(stmt, exp, ctx, bindings, spath, loc)
        if isinstance(exp, A.If):
            out = []
            locals_: Set[str] = set()
            for sub, tag in (
                (exp.then_block, ".then"),
                (exp.else_block, ".else"),
            ):
                evs, sub_local, _ = self._block(
                    sub, ctx, bindings, spath + tag
                )
                out.extend(evs)
                locals_ |= sub_local
            self._reveal(
                pe.mem.mem for pe in stmt.pattern
                if pe.mem is not None and pe.mem.mem in stmt.names
            )
            return out, locals_

        # Views, scalars, allocs, scratch: no memory traffic.
        return [], none

    # ------------------------------------------------------------------
    def _map_events(
        self, stmt, exp: A.Map, ctx, bindings, spath, loc
    ) -> Tuple[List[Event], Set[str]]:
        ((body, binder),) = A.sub_scopes(exp)
        t, width = binder.var, binder.extent
        mctx = enter_scope(ctx, binder)
        child, local, child_bindings = self._block(
            body, mctx, bindings, spath + ".map"
        )
        # The implicit per-thread result write xss[t] = r (and its read of
        # r's region, unless short-circuiting made it the same region).
        extra: List[Event] = []
        for k, pe in enumerate(stmt.pattern):
            if not pe.is_array() or pe.mem is None:
                continue
            db = binding_of(pe)
            region = db.ixfn.fix_dim(0, SymExpr.var(t))
            res_name = exp.lam.body.result[k]
            rb = child_bindings.get(res_name)
            if rb is not None and rb.mem == db.mem and rb.ixfn == region:
                continue  # elided implicit copy
            if rb is not None:
                single = rb.ixfn.as_single()
                extra.append(
                    Event(
                        "r", rb.mem,
                        None if single is None else _norm_lmad(single, mctx),
                        res_name, 0, loc, ixfn=rb.ixfn,
                    )
                )
            single = region.as_single()
            extra.append(
                Event(
                    "w", db.mem,
                    None if single is None else _norm_lmad(single, mctx),
                    pe.name, 0, loc, ixfn=region,
                )
            )
        per_thread = child + [
            e for e in self._expand_events(extra) if e.mem not in local
        ]
        self._cross_check(
            per_thread, t, width, mctx, parallel=True, loc=loc
        )
        return self._aggregate(per_thread, t, width, mctx), local

    # ------------------------------------------------------------------
    def _loop_events(
        self, stmt, exp: A.Loop, ctx, bindings, spath, loc
    ) -> Tuple[List[Event], Set[str]]:
        ((body, binder),) = A.sub_scopes(exp)
        count = binder.extent
        lctx = enter_scope(ctx, binder)
        lb = dict(bindings)
        lb.update((p.name, p.mem) for p in binder.params if p.mem is not None)
        child, local, _ = self._block(body, lctx, lb, spath + ".loop")
        self._reveal(p.mem.mem for p in binder.params if p.mem is not None)
        self._reveal(pe.mem.mem for pe in stmt.pattern if pe.mem is not None)
        # Expand the body's events: expansions landing on a body-local
        # block are per-iteration private -- drop them (the documented
        # double-buffering blind spot).
        child = [
            e for e in self._expand_events(child) if e.mem not in local
        ]
        self._cross_check(
            child, exp.index, count, lctx, parallel=False, loc=loc
        )
        return self._aggregate(child, exp.index, count, lctx), local

    # ==================================================================
    # Cross-thread / cross-iteration conditions
    # ==================================================================
    def _cross_check(
        self,
        events: List[Event],
        var: str,
        count: SymExpr,
        ctx: Context,
        parallel: bool,
        loc: str,
    ) -> None:
        writes = [e for e in events if e.kind == "w"]
        if not writes:
            return
        if Prover(ctx).le(count, SymExpr.const(1)):
            return  # at most one iteration/thread: no cross pairs
        rule = "R02" if parallel else "R03"
        var2 = f"_{var}_other"
        # Two orderings: the other index above, and (parallel only) below.
        checkers = []
        hi = ctx.extended()
        hi.assume_range(var2, SymExpr.var(var) + 1, count - 1)
        checkers.append(self.pool.checker_for(hi))
        if parallel:
            lo = ctx.extended()
            lo.assume_range(var2, 0, SymExpr.var(var) - 1)
            checkers.append(self.pool.checker_for(lo))
        memo: Dict[Tuple[Lmad, Lmad], bool] = {}
        dep_prover = self.pool.prover_for(ctx)
        for w in writes:
            for e in events:
                if e.mem != w.mem:
                    continue
                if w.noop and (e.kind == "r" or e.noop):
                    # A no-op write cannot clobber a read (memory is
                    # unchanged), and two no-ops cannot clobber each
                    # other.  Real writes against a no-op's address are
                    # still checked: they would invalidate the value the
                    # no-op's own read depends on -- but that read is a
                    # separate event, so the pair below covers it.
                    continue
                if not parallel and self.down.dependent(w.name, e.name):
                    # The carried dependence: the value legitimately
                    # flows to the later iteration.  A dependent *read*
                    # overlapping the earlier write is that flow itself
                    # (RAW, ordered by sequential execution -- LUD's
                    # triangular solves read the growing prefix earlier
                    # iterations wrote).  A dependent *write*, though, is
                    # exempt only when the two regions provably slide in
                    # lockstep (equal per-iteration offset shift,
                    # index-invariant strides; shapes may vary, e.g. NW's
                    # growing diagonals): name-level dataflow does not
                    # license a write whose overlap with the previous
                    # iteration's write drifts -- exactly what an unsafe
                    # rebase artifact looks like.  Pairs with unknown
                    # regions keep the coarse exemption (nothing to
                    # reason about); everything else falls through to the
                    # disjointness proof like an independent pair.
                    if w.lmad is None or e.lmad is None:
                        continue
                    if e.kind == "r":
                        continue
                    if self._slides_together(w.lmad, e.lmad, var, dep_prover):
                        continue
                if w.lmad is None or e.lmad is None:
                    subst = {var: SymExpr.var(var2)}
                    if all(
                        self._composed_disjoint(w, e, chk.prover.ctx, subst)
                        for chk in checkers
                    ):
                        continue
                    self._flag_unknown(w if w.lmad is None else e)
                    continue
                key = (w.lmad, e.lmad)
                if key in memo:
                    ok = memo[key]
                else:
                    self.report.count()
                    ok = False
                    if w.lmad == e.lmad and var in w.lmad.free_vars():
                        # Identical parametric regions: if promoting the
                        # index to a dimension yields an injective LMAD,
                        # distinct indices address disjoint slabs -- a
                        # linear proof where the offset-difference route
                        # is nonlinear (e.g. LUD's b^2*(q-k-1) slabs).
                        prover = self.pool.prover_for(ctx)
                        agg = aggregate_over_loop(
                            w.lmad, var, count, prover
                        )
                        ok = agg is not None and self.pool.injective(
                            ctx, agg
                        )
                    if not ok:
                        other = e.lmad.substitute({var: SymExpr.var(var2)})
                        ok = True
                        for chk in checkers:
                            if not chk.check(w.lmad, other):
                                ok = False
                                break
                    memo[key] = ok
                if not ok:
                    kind = (
                        "two threads" if parallel else "a later iteration"
                    )
                    self.report.add(
                        rule, Severity.ERROR, loc,
                        f"{w.describe()} (at {w.loc}) is not provably "
                        f"disjoint from the {e.describe()} (at {e.loc}) "
                        f"when performed by {kind} ({var} != {var2})",
                    )

    # ------------------------------------------------------------------
    @staticmethod
    def _slides_together(
        w: Lmad, e: Lmad, var: str, prover: Prover
    ) -> bool:
        """Distance-vector test for dependence-carried write pairs.

        True when both regions move by the same provable offset per loop
        iteration and neither's strides depend on the index: the pair's
        overlap pattern is then iteration-invariant, so the value-flow
        ordering covers every iteration if it covers one (the in-place
        state update / double-buffer shape).
        """
        for l in (w, e):
            for d in l.dims:
                if var in d.stride.free_vars():
                    return False
        shift = {var: SymExpr.var(var) + 1}
        dw = w.offset.substitute(shift) - w.offset
        de = e.offset.substitute(shift) - e.offset
        return prover.eq(dw, de)

    # ------------------------------------------------------------------
    def _aggregate(
        self, events: List[Event], var: str, count: SymExpr, ctx: Context
    ) -> List[Event]:
        prover = self.pool.prover_for(ctx)
        out: List[Event] = []
        for e in events:
            if e.lmad is None:
                # The composed region cannot be aggregated; if it still
                # mentions this index, drop the index function too --
                # keeping it would correlate the two sides of an outer
                # cross pair through the (shared) inner index, which
                # *under*-approximates the pair set.  The outer level
                # then degrades to R04, exactly as before.
                if e.ixfn is not None and var in e.ixfn.free_vars():
                    e = replace(e, ixfn=None)
                out.append(e)
                continue
            if var not in e.lmad.free_vars():
                out.append(e)
                continue
            agg = aggregate_over_loop(e.lmad, var, count, prover)
            out.append(replace(e, lmad=agg))
        return out


def check_races(
    fun: A.Fun, report: Report, pool: Optional[ProverPool] = None
) -> None:
    RaceChecker(fun, report, pool).run()
