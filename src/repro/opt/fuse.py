"""Producer-consumer vertical fusion over the memory IR (``repro.opt.fuse``).

Short-circuiting (paper section V) removes *copies* and memory reuse
removes *allocations*, but every producer/consumer ``map`` pair still
materializes its intermediate array and pays a full write+read round trip
through global memory.  This pass fuses a ``map`` producer into its
consumers by *recomputation*: every consumer read ``inter[e1, .., eR]``
is replaced with an inlined, renamed copy of the producer's body
evaluated at thread indices ``(e1, .., eR)``, after which the
intermediate's binding is deleted and its ``alloc`` becomes dead (swept
by the existing dead-allocation pass).

Scope (generalized from the original rank-1, single-consumer pass):

* *mapnest producers* -- the producer may be a perfect rank-N ``map``
  nest whose innermost per-thread value is a scalar.  Interior levels
  may carry pure scalar prologue statements; the per-level bodies are
  pure scalar code (including scalar ``if``s and scalar-carried
  ``loop``s -- no allocations, no further parallelism beyond the nest
  itself).  A consumer read composes through the intermediate's
  multi-dimensional LMAD: per-dimension range proofs establish coverage
  and a *tiered* injectivity check (structural test, then relation
  emptiness through :class:`repro.isl.PolyEngine`) establishes that the
  layout stores each logical cell at a distinct offset.
* *multi-consumer producers* -- when the producer body is cheap
  (``DUP_COST_LIMIT`` statements), it is duplicated into every consumer
  read site.  One record per consumer documents the duplication
  (``duplicated=True`` on all but the primary) so the executor's
  accounting never double-counts the elided write.
* *producer chains* -- the pass iterates to a fixpoint, so A fused into
  B makes B a candidate producer for C on the next round.  The chain
  depth is recorded (``chain_depth``) and bounded (``MAX_CHAIN_DEPTH``);
  a producer name committed once can never recur (SSA), but a defensive
  cycle guard rejects it outright if synthetic IR ever re-presents one.

Legality (every failed condition keeps the pair unfused -- the failure
mode is extra traffic, never incorrectness):

1. *consumed only by maps* -- every use of the intermediate is a later
   ``map`` of the same block, and the intermediate appears in the final
   consumer's ``last_uses`` annotation (:mod:`repro.ir.lastuse`);
2. *no escaping alias* -- the alias closure of the intermediate is just
   itself (:mod:`repro.ir.alias`) up to bindings interior to the
   producer nest, it is not a block result, and no binding outside the
   nest references its memory block;
3. *covered, invertible reads* -- every use inside a consumer is a
   full-rank ``Index``; per-dimension range proofs ``0 <= e_d <
   shape_d`` (:class:`repro.symbolic.Prover` under the enclosing
   ``map``/``loop`` index ranges) show the offsets read are covered by
   the producer's write set, and for rank >= 2 the intermediate's LMAD
   must be injective (structural test with polyhedral fallback via
   :meth:`repro.lmad.ProverPool.injective`) so the covered cell holds
   the producer's value for exactly that iteration;
4. *no reordering hazard* -- per consumer, no statement between producer
   and that consumer writes a memory block the producer body reads
   (earlier consumers of a duplicated producer are themselves subject to
   this check), and the memory the fused kernel writes is disjoint from
   what the inlined body reads (checked per block name, with the tiered
   LMAD non-overlap test resolving same-block collisions that
   short-circuiting's rebases can create);
5. *no capture* -- inlining must not bring a producer free variable
   under a consumer-local rebinding (never fires with the builder's
   program-wide unique names; kept as a safety net for synthetic IR);
6. *bounded recomputation* -- duplicating into k > 1 consumers requires
   the nest body to stay under ``DUP_COST_LIMIT`` statements, and chain
   fusion stops at ``MAX_CHAIN_DEPTH``.

Each committed fusion attaches one :class:`repro.ir.ast.FusedRecord` per
consumer; the executor turns those into ``fused_kernels`` /
``bytes_elided_fusion`` accounting (a duplicated record claims only its
own elided read, never the write), the pseudo-CUDA backend into a
provenance comment, and the verifier's FU rules into translation
validation -- FU03 cross-checks the per-site body hashes recorded here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.decisions import DecisionLog, Declined
from repro.lmad import Lmad, ProverPool, lmad
from repro.symbolic import Context, Prover, SymExpr, sym

from repro.ir import ast as A
from repro.ir.alias import AliasInfo
from repro.ir.lastuse import analyze_last_uses
from repro.ir.pretty import pretty_fun
from repro.ir.types import ArrayType, DTYPE_INFO, ScalarType
from repro.mem.memir import (
    MemBinding,
    array_bindings,
    binders,
    binding_of,
    iter_stmts,
)

#: Maximum statement count (recursive) of a producer body that may be
#: *duplicated* into more than one consumer.  Cheap bodies trade a few
#: recomputed flops for a full round trip per consumer; expensive ones
#: are rejected with ``dup-too-costly``.
DUP_COST_LIMIT = 16

#: Maximum ``chain_depth`` a committed fusion may reach: A->B->C->D is
#: depth 3.  Beyond this the inlined body growth outweighs the elided
#: traffic; rejected with ``chain-depth-exceeded``.
MAX_CHAIN_DEPTH = 4


@dataclass
class FuseStats:
    """Outcome counters plus per-reason failure tallies."""

    attempted: int = 0
    committed: int = 0
    rounds: int = 0
    #: Consumers beyond the first that received a duplicated body copy.
    duplicated: int = 0
    #: Commits whose record chain depth exceeds 1 (producer chains).
    chained: int = 0
    #: Deciding-tier tallies for this pass's disjointness/injectivity
    #: queries (``structural`` / ``polyhedral`` / ``unknown``).
    tiers: Dict[str, int] = field(default_factory=dict)
    #: Abandoned candidates, one record per producer -- or per
    #: ``producer -> consumer`` where a consumer decided it, so two
    #: consumers of one producer tally separately.
    declined: DecisionLog = field(default_factory=DecisionLog)
    #: (intermediate, consumer-names) per committed fusion.
    committed_pairs: List[Tuple[str, Tuple[str, ...]]] = field(
        default_factory=list
    )

    @property
    def failures(self) -> Dict[str, int]:
        """Per-rule tallies of the abandoned candidates."""
        return self.declined.tallies


# ----------------------------------------------------------------------
# Purity / traversal helpers
# ----------------------------------------------------------------------
_SCALAR_EXPS = (A.Lit, A.ScalarE, A.BinOp, A.UnOp, A.Index, A.VarRef)


def _pure_scalar_stmt(stmt: A.Let) -> bool:
    """Statement binds only scalars via side-effect-free scalar code.

    Scalar ``if``s and scalar-carried ``loop``s qualify: both are plain
    sequential code once inlined into a consumer thread (the native and
    vectorized tiers already lower them inside kernel bodies).
    """
    if any(pe.is_array() for pe in stmt.pattern):
        return False
    exp = stmt.exp
    if isinstance(exp, _SCALAR_EXPS):
        return True
    if isinstance(exp, A.If):
        return all(
            _pure_scalar_stmt(s)
            for blk in (exp.then_block, exp.else_block)
            for s in blk.stmts
        )
    if isinstance(exp, A.Loop):
        return not any(
            isinstance(p.type, ArrayType) for p, _ in exp.carried
        ) and all(_pure_scalar_stmt(s) for s in exp.body.stmts)
    return False


def _stmts_recursive(stmts: Iterable[A.Let]):
    for s in stmts:
        yield s
        for blk in A.sub_blocks(s.exp):
            yield from _stmts_recursive(blk.stmts)


def _bound_names(stmts: Iterable[A.Let]) -> Set[str]:
    """All names bound by ``stmts``, including inside compound bodies."""
    out: Set[str] = set()
    for s in _stmts_recursive(stmts):
        out.update(s.names)
        for _, binder in A.sub_scopes(s.exp):
            out |= A.bound_names(binder)
    return out


def _stmt_cost(stmts: Iterable[A.Let]) -> int:
    """Recursive statement count: the recomputation cost estimate."""
    return sum(1 for _ in _stmts_recursive(stmts))


# ----------------------------------------------------------------------
# Renaming (pure-scalar statements only)
# ----------------------------------------------------------------------
def _ren_sym(e: SymExpr, mapping: Dict[str, str]) -> SymExpr:
    hit = {v: SymExpr.var(mapping[v]) for v in e.free_vars() if v in mapping}
    return e.substitute(hit) if hit else e


def _ren_op(op: A.Operand, mapping: Dict[str, str]) -> A.Operand:
    if isinstance(op, str):
        return mapping.get(op, op)
    if isinstance(op, SymExpr):
        return _ren_sym(op, mapping)
    return op


def _ren_exp(exp: A.Exp, mapping: Dict[str, str]) -> A.Exp:
    if isinstance(exp, A.Lit):
        return exp
    if isinstance(exp, A.ScalarE):
        return A.ScalarE(_ren_sym(exp.expr, mapping))
    if isinstance(exp, A.BinOp):
        return A.BinOp(exp.op, _ren_op(exp.x, mapping), _ren_op(exp.y, mapping))
    if isinstance(exp, A.UnOp):
        return A.UnOp(exp.op, _ren_op(exp.x, mapping))
    if isinstance(exp, A.VarRef):
        return A.VarRef(mapping.get(exp.name, exp.name))
    if isinstance(exp, A.Index):
        return A.Index(
            mapping.get(exp.src, exp.src),
            tuple(_ren_sym(i, mapping) for i in exp.indices),
        )
    if isinstance(exp, A.Loop):
        return A.Loop(
            tuple(
                (
                    A.PatElem(mapping.get(p.name, p.name), p.type),
                    _ren_op(init, mapping),
                )
                for p, init in exp.carried
            ),
            mapping.get(exp.index, exp.index),
            _ren_sym(exp.count, mapping),
            _ren_block(exp.body, mapping),
        )
    assert isinstance(exp, A.If)
    return A.If(
        _ren_op(exp.cond, mapping),
        _ren_block(exp.then_block, mapping),
        _ren_block(exp.else_block, mapping),
    )


def _ren_block(block: A.Block, mapping: Dict[str, str]) -> A.Block:
    return A.Block(
        _ren_stmts(block.stmts, mapping),
        tuple(mapping.get(r, r) for r in block.result),
    )


def _ren_stmts(stmts: List[A.Let], mapping: Dict[str, str]) -> List[A.Let]:
    out: List[A.Let] = []
    for s in stmts:
        pattern = [
            A.PatElem(mapping.get(pe.name, pe.name), pe.type, None)
            for pe in s.pattern
        ]
        out.append(A.Let(pattern, _ren_exp(s.exp, mapping)))
    return out


# ----------------------------------------------------------------------
# Canonical body hashing (FU03 evidence)
# ----------------------------------------------------------------------
def _canon_hash(stmts: List[A.Let], seed: Dict[str, str]) -> str:
    """Alpha-normalized hash of actually-spliced producer statements.

    Every bound name is renamed to a positional placeholder (``seed``
    pre-maps the nest's thread-index names so they normalize identically
    at every site); free names are kept.  Two splices of the same
    producer body must hash identically -- rule FU03's obligation.
    """
    mapping = dict(seed)
    counter = [0]

    def intern(name: str) -> None:
        if name not in mapping:
            mapping[name] = f"%{counter[0]}"
            counter[0] += 1

    def collect(ss: Iterable[A.Let]) -> None:
        for s in ss:
            for pe in binders(s):
                intern(pe.name)
            if isinstance(s.exp, A.Loop):
                intern(s.exp.index)
            for blk in A.sub_blocks(s.exp):
                collect(blk.stmts)

    collect(stmts)
    body = A.Block(_ren_stmts(stmts, mapping), ())
    dump = pretty_fun(A.Fun("", [], body))
    return hashlib.sha1(dump.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# A decomposed producer mapnest
# ----------------------------------------------------------------------
@dataclass
class _NestLevel:
    index: str  # the level's thread-index variable
    width: SymExpr
    stmts: List[A.Let]  # pure-scalar statements of this level


@dataclass
class _Nest:
    levels: List[_NestLevel]  # outermost first
    result: str  # innermost body result (a scalar)
    cost: int  # recursive statement count (recompute estimate)

    @property
    def rank(self) -> int:
        return len(self.levels)

    @property
    def total_width(self) -> SymExpr:
        w = self.levels[0].width
        for lvl in self.levels[1:]:
            w = w * lvl.width
        return w


# ----------------------------------------------------------------------
# A consumer read site of the intermediate
# ----------------------------------------------------------------------
@dataclass
class _ReadSite:
    block: A.Block
    index: int  # position of the Index statement in block.stmts
    stmt: A.Let
    idxs: Tuple[SymExpr, ...]  # full-rank read indices
    prover: Prover  # under what is known in ``block``


# ======================================================================
#: Fixpoint rounds of the whole-function walk (a fused consumer can be
#: the producer of the next round's fusion).
_MAX_ROUNDS = 10


class _Fuser:
    def __init__(self, fun: A.Fun, shared):
        self.fun = fun
        #: Per-compilation shared state (duck-typed; see
        #: :class:`repro.pipeline.CompileContext`).  Supplies the shared
        #: root assumption context and the Prover/NonOverlapChecker pool
        #: pre-warmed by short-circuiting.
        self.shared = shared
        self._pool: ProverPool = shared.provers
        self.stats = FuseStats()
        self.aliases: Optional[AliasInfo] = None
        self.bindings: Dict[str, MemBinding] = {}
        self.allocated: Set[str] = set()
        self._suffix = 0
        #: Producer names already fused away.  With program-wide unique
        #: names a deleted producer cannot recur; the guard protects the
        #: fixpoint loop against synthetic IR that re-presents one.
        self._fused_away: Set[str] = set()

    # ------------------------------------------------------------------
    def run(self) -> FuseStats:
        with self._pool.client("fuse") as self.stats.tiers:
            for _ in range(_MAX_ROUNDS):
                info = analyze_last_uses(self.fun)
                self.aliases = info.aliases
                self.bindings = array_bindings(self.fun)
                self.allocated = {
                    s.names[0]
                    for s in iter_stmts(self.fun.body)
                    if isinstance(s.exp, A.Alloc)
                }
                self.stats.rounds += 1
                root = self.shared.root_context()
                if not self._block(self.fun.body, root):
                    break
            else:
                analyze_last_uses(self.fun)
        return self.stats

    # ------------------------------------------------------------------
    # Block walk
    # ------------------------------------------------------------------
    def _block(self, block: A.Block, ctx: Context) -> bool:
        """Try to commit one fusion in this block or below; True if mutated."""
        for pi, pstmt in enumerate(block.stmts):
            nest = self._decompose_producer(pstmt)
            if nest is None:
                continue
            if self._try_fuse(block, pi, pstmt, nest, ctx):
                return True
        for stmt in block.stmts:
            for blk, binder in A.sub_scopes(stmt.exp):
                if self._block(blk, A.scope_context(ctx, blk, binder)):
                    return True
        return False

    # ------------------------------------------------------------------
    # Candidate recognition: perfect mapnests of pure scalar code
    # ------------------------------------------------------------------
    def _decompose_producer(self, stmt: A.Let) -> Optional[_Nest]:
        """Decompose a statement into a fusable producer mapnest.

        A rank-N producer is a perfect nest of N maps: every interior
        level binds exactly one array ``map`` whose result is the level's
        result, everything else in the level being pure scalar code (or
        the inner map's private destination ``alloc``, which vanishes
        with the producer).  The innermost body is pure scalar with a
        scalar result bound inside the nest or equal to a level index.
        """
        exp = stmt.exp
        if not isinstance(exp, A.Map) or len(stmt.pattern) != 1:
            return None
        pe = stmt.pattern[0]
        if not pe.is_array() or pe.mem is None:
            return None
        assert isinstance(pe.type, ArrayType)
        rank = len(pe.type.shape)
        levels: List[_NestLevel] = []
        cur: A.Map = exp
        for d in range(rank):
            body = cur.lam.body
            if len(body.result) != 1:
                return None
            res = body.result[0]
            if d == rank - 1:
                if not all(_pure_scalar_stmt(s) for s in body.stmts):
                    return None
                levels.append(
                    _NestLevel(cur.lam.params[0], cur.width, list(body.stmts))
                )
                all_stmts = [s for lvl in levels for s in lvl.stmts]
                idx_vars = {lvl.index for lvl in levels}
                if res not in _bound_names(all_stmts) and res not in idx_vars:
                    return None  # result is a nest-free scalar: no binder
                cost = _stmt_cost(all_stmts)
                return _Nest(levels, res, cost)
            # Interior level: exactly one inner array map binding ``res``.
            inner: Optional[A.Let] = None
            keep: List[A.Let] = []
            allocs: List[str] = []
            for s in body.stmts:
                if (
                    isinstance(s.exp, A.Map)
                    and len(s.pattern) == 1
                    and s.pattern[0].is_array()
                    and s.names[0] == res
                ):
                    if inner is not None:
                        return None
                    inner = s
                    continue
                if isinstance(s.exp, A.Alloc):
                    allocs.append(s.names[0])
                    continue
                if not _pure_scalar_stmt(s):
                    return None
                keep.append(s)
            if inner is None:
                return None
            ipe = inner.pattern[0]
            if ipe.mem is None or not isinstance(ipe.type, ArrayType):
                return None
            if len(ipe.type.shape) != rank - d - 1:
                return None
            # The inner result may only flow out as the level's result.
            if any(res in A.exp_uses(s.exp) for s in keep):
                return None
            # Level-private allocs must serve only the inner map's
            # destination (the pre-short-circuit per-thread buffer).
            imem = binding_of(ipe).mem
            if any(al != imem for al in allocs):
                return None
            levels.append(
                _NestLevel(cur.lam.params[0], cur.width, keep)
            )
            assert isinstance(inner.exp, A.Map)
            cur = inner.exp
        return None  # rank 0: unreachable (arrays have rank >= 1)

    def _interior_names(self, pstmt: A.Let) -> Set[str]:
        """Names bound anywhere inside the producer nest (they are
        deleted along with it, so sharing/aliasing with them is moot)."""
        exp = pstmt.exp
        out: Set[str] = set()
        assert isinstance(exp, A.Map)
        out.update(exp.lam.params)
        out |= _bound_names(exp.lam.body.stmts)
        return out

    # ------------------------------------------------------------------
    # One fusion attempt
    # ------------------------------------------------------------------
    def _try_fuse(
        self,
        block: A.Block,
        pi: int,
        pstmt: A.Let,
        nest: _Nest,
        ctx: Context,
    ) -> bool:
        inter = pstmt.names[0]
        pexp = pstmt.exp
        assert isinstance(pexp, A.Map)
        self.stats.attempted += 1

        def no(rule: str, consumer: str = "") -> bool:
            site = f"{inter} -> {consumer}" if consumer else inter
            self.stats.declined.add("fuse", rule, site)
            return False

        # -- cycle guard (defensive; SSA makes this unreachable) --------
        if inter in self._fused_away:
            return no("cycle-guard")

        # -- condition 2a: the intermediate must not leave the block ----
        if inter in block.result:
            return no("escapes-block-result")
        assert self.aliases is not None
        interior = self._interior_names(pstmt)
        if self.aliases.closure(inter) - interior != frozenset({inter}):
            return no("alias-escapes")

        # -- condition 1: every consuming statement is a later map ------
        consumers = [
            (ci, s)
            for ci, s in enumerate(block.stmts[pi + 1 :], start=pi + 1)
            if inter in A.exp_uses(s.exp)
        ]
        if not consumers:
            return no("no-consumer")
        for ci, cstmt in consumers:
            if not isinstance(cstmt.exp, A.Map):
                rule = (
                    "consumer-not-map" if len(consumers) == 1 else "multi-use"
                )
                return no(rule, cstmt.names[0])
        last_ci, last_consumer = consumers[-1]
        if inter not in last_consumer.last_uses:
            return no("not-last-use", last_consumer.names[0])

        # -- condition 6: duplication cost + chain depth bounds ---------
        if len(consumers) > 1 and nest.cost > DUP_COST_LIMIT:
            return no("dup-too-costly")
        chain_depth = 1 + max(
            (r.chain_depth for r in pstmt.fused), default=0
        )
        if chain_depth > MAX_CHAIN_DEPTH:
            return no("chain-depth-exceeded")

        # -- condition 2b: the memory block is exclusively the inter's --
        pmem = binding_of(pstmt.pattern[0]).mem
        sharers = {n for n, b in self.bindings.items() if b.mem == pmem}
        if pmem not in self.allocated or sharers - interior != {inter}:
            return no("mem-shared")

        # -- condition 3 (layout): the intermediate's LMAD must store
        #    each logical cell at its own offset.  Rank 1 exclusive fresh
        #    allocations are contiguous by construction; for rank >= 2
        #    the tiered injectivity check covers exotic layouts.
        if nest.rank >= 2:
            lmad = self.bindings[inter].ixfn.as_single()
            if lmad is None:
                return no("non-invertible-layout")
            if not self._pool.injective(ctx, lmad):
                return no("non-injective-layout")

        # -- per-consumer hazard, capture and coverage checks -----------
        read_mems = self._read_mems(nest)
        all_sites: List[Tuple[A.Let, List[_ReadSite]]] = []
        pfree = A.exp_uses(pexp) | pexp.width.free_vars()
        for lvl in nest.levels:
            pfree |= lvl.width.free_vars()
        for ci, cstmt in consumers:
            cname = cstmt.names[0]
            cexp = cstmt.exp
            assert isinstance(cexp, A.Map)

            # condition 4a: no intervening write to producer inputs
            # (earlier consumers of a duplicated producer count: their
            # destination writes must not feed the recomputed body).
            for mid in block.stmts[pi + 1 : ci]:
                if self._written_mems(mid) & (read_mems | {pmem}):
                    return no("intervening-write", cname)

            # condition 4b: fused kernel's writes vs inlined reads
            dest_mems = {
                binding_of(pe).mem
                for pe in cstmt.pattern
                if pe.is_array() and pe.mem is not None
            }
            cons_writes = dest_mems | self._written_mems(cstmt)
            collisions = cons_writes & read_mems
            if collisions and not self._proves_disjoint(
                ctx, cstmt, collisions, nest
            ):
                return no("consumer-overwrites-input", cname)

            # condition 5: capture-free inlining
            if pfree & _bound_names(cexp.lam.body.stmts):
                return no("shadowed-free-var", cname)

            # condition 3: collect read sites + coverage proofs
            try:
                sites = self._collect_sites(cexp, inter, ctx, nest)
            except Declined as why:
                return no(why.rule, cname)
            all_sites.append((cstmt, sites))

        # ---------------------------------------------------------------
        # Commit: inline at every read site of every consumer, delete the
        # producer.  Sites sharing a block are spliced back-to-front so
        # that the splice at one site (1 stmt -> k stmts) does not shift
        # the recorded index of an earlier site in the same list.
        # ---------------------------------------------------------------
        pe = pstmt.pattern[0]
        assert isinstance(pe.type, ArrayType)
        elem_bytes = DTYPE_INFO[pe.type.dtype][1]
        for k, (cstmt, sites) in enumerate(all_sites):
            hashes: List[str] = []
            for site in sorted(sites, key=lambda s: s.index, reverse=True):
                hashes.append(self._inline_site(site, nest))
            hashes.reverse()
            dest_mems = {
                binding_of(cpe).mem
                for cpe in cstmt.pattern
                if cpe.is_array() and cpe.mem is not None
            }
            rec = A.FusedRecord(
                producer=inter,
                mem=pmem,
                width=nest.total_width,
                elem_bytes=elem_bytes,
                reads=len(sites),
                write_mems=tuple(sorted(dest_mems | {pmem})),
                rank=nest.rank,
                duplicated=k > 0,
                recompute_stmts=nest.cost,
                chain_depth=chain_depth,
                site_hashes=tuple(hashes),
            )
            if k == 0:
                # A chained producer hands its own provenance down: the
                # records describing what was fused *into it* now live on
                # the (primary) consumer that absorbed its body.
                cstmt.fused = cstmt.fused + pstmt.fused + (rec,)
            else:
                cstmt.fused = cstmt.fused + (rec,)
        del block.stmts[pi]  # splices happened inside the consumers' lambdas
        self._fused_away.add(inter)
        self.stats.committed += 1
        self.stats.duplicated += len(all_sites) - 1
        if chain_depth > 1:
            self.stats.chained += 1
        names: Tuple[str, ...] = ()
        for cstmt, _ in all_sites:
            names = names + cstmt.names
        self.stats.committed_pairs.append((inter, names))
        return True

    # ------------------------------------------------------------------
    def _read_mems(self, nest: _Nest) -> Set[str]:
        """Memory blocks the (pure scalar) producer body reads."""
        out: Set[str] = set()
        for lvl in nest.levels:
            for stmt in _stmts_recursive(lvl.stmts):
                if isinstance(stmt.exp, A.Index):
                    b = self.bindings.get(stmt.exp.src)
                    if b is not None:
                        out.add(b.mem)
        return out

    def _written_mems(self, stmt: A.Let) -> Set[str]:
        """Memory blocks a statement (incl. nested code) may write."""
        out: Set[str] = set()
        writing = (
            A.Copy, A.Concat, A.Iota, A.Replicate, A.Update, A.Map,
        )

        def of(s: A.Let) -> None:
            if isinstance(s.exp, writing):
                for pe in s.pattern:
                    if pe.is_array() and pe.mem is not None:
                        out.add(binding_of(pe).mem)
            for blk in A.sub_blocks(s.exp):
                for sub in blk.stmts:
                    of(sub)

        of(stmt)
        return out

    def _proves_disjoint(
        self,
        ctx: Context,
        consumer: A.Let,
        collisions: Set[str],
        nest: _Nest,
    ) -> bool:
        """Same block written and read: prove region disjointness.

        Short-circuiting legitimately creates distinct arrays sharing a
        block; when the fused kernel writes such a block and the inlined
        producer body reads it, the LMAD non-overlap test must separate
        the two regions, else the interleaved execution could observe a
        consumer write the original producer ran before.

        Each read is narrowed to its *footprint* first: the read's index
        expressions are composed through the source binding's LMAD into
        a flat offset, and every enclosing iteration variable (nest
        level or interior loop index) appearing affinely becomes a
        footprint dimension ``(trip count : coefficient)``.  That is
        what lets a producer read a strip of the very array the fused
        kernel updates (LUD's panel reads against the interior write
        region).  When extraction fails (multi-LMAD view, rank mismatch,
        non-affine index) the binding's whole region stands in.
        """
        prover, checker = self._pool.pair_for(ctx)
        writes = []
        for pe in consumer.pattern:
            if pe.is_array() and pe.mem is not None:
                b = binding_of(pe)
                if b.mem in collisions:
                    writes.append(b)
        reads = self._colliding_reads(nest, collisions)
        if not writes or not reads:
            return False  # a nested write collided: too coarse, give up
        for w in writes:
            wl = w.ixfn.as_single()
            if wl is None:
                return False
            for b, idxs, enclosing in reads:
                rl = self._read_footprint(b, idxs, enclosing)
                if rl is None:
                    rl = b.ixfn.as_single()
                if rl is None or not checker.check(wl, rl):
                    return False
        return True

    def _colliding_reads(
        self, nest: _Nest, collisions: Set[str]
    ) -> List[Tuple[MemBinding, Tuple[SymExpr, ...], List[A.Binder]]]:
        """Producer-body reads of colliding blocks, each with the binders
        enclosing the read (outermost first)."""
        out: List[
            Tuple[MemBinding, Tuple[SymExpr, ...], List[A.Binder]]
        ] = []

        def walk(stmts: Iterable[A.Let], enclosing: List[A.Binder]) -> None:
            for s in stmts:
                exp = s.exp
                if isinstance(exp, A.Index):
                    b = self.bindings.get(exp.src)
                    if b is not None and b.mem in collisions:
                        out.append((b, tuple(exp.indices), enclosing))
                for blk, binder in A.sub_scopes(exp):
                    walk(
                        blk.stmts,
                        enclosing if binder is None else enclosing + [binder],
                    )

        prefix: List[A.Binder] = []
        for lvl in nest.levels:
            prefix = prefix + [A.Binder("map", lvl.index, lvl.width)]
            walk(lvl.stmts, prefix)
        return out

    def _read_footprint(
        self,
        b: MemBinding,
        idxs: Tuple[SymExpr, ...],
        enclosing: List[A.Binder],
    ) -> Optional[Lmad]:
        """The set of offsets one read touches over its iteration space,
        as an LMAD -- or ``None`` when it is not affine in the iteration
        variables."""
        rl = b.ixfn.as_single()
        if rl is None or len(idxs) != len(rl.dims):
            return None
        off = rl.offset
        for e, dim in zip(idxs, rl.dims):
            off = off + sym(e) * dim.stride
        ranged = {binder.var for binder in enclosing}
        dims: List[Tuple[SymExpr, SymExpr]] = []
        for binder in enclosing:
            var = binder.var
            if off.degree_in(var) > 1:
                return None
            coef = off.coefficients_in(var).get(1)
            if coef is None:
                continue
            if coef.free_vars() & ranged:
                return None  # iteration-dependent stride: not an LMAD
            dims.append((binder.extent, coef))
            off = off - SymExpr.var(var) * coef
        if off.free_vars() & ranged:
            return None
        if not dims:
            dims = [(sym(1), sym(1))]  # a single cell
        return lmad(off, dims)

    # ------------------------------------------------------------------
    def _collect_sites(
        self, cexp: A.Map, inter: str, ctx: Context, nest: _Nest
    ) -> List[_ReadSite]:
        """Find every read of ``inter`` in the consumer; prove coverage."""
        sites: List[_ReadSite] = []

        def walk(block: A.Block, bctx: Context) -> None:
            if inter in block.result:
                raise Declined("non-index-use")
            prover = Prover(bctx)
            for i, stmt in enumerate(block.stmts):
                exp = stmt.exp
                if isinstance(exp, A.Index) and exp.src == inter:
                    if len(exp.indices) != nest.rank:
                        raise Declined("non-scalar-read")
                    sites.append(
                        _ReadSite(block, i, stmt, tuple(exp.indices), prover)
                    )
                    continue
                scopes = A.sub_scopes(exp)
                # A leaf's operands, or a compound's outside its blocks.
                if inter in (A.head_uses(exp) if scopes else A.exp_uses(exp)):
                    raise Declined("non-index-use")
                for blk, binder in scopes:
                    walk(blk, A.scope_context(bctx, blk, binder))

        ((body, binder),) = A.sub_scopes(cexp)
        walk(body, A.scope_context(ctx, body, binder))
        if not sites:
            raise Declined("non-index-use")

        # Coverage: the producer writes every logical cell of its result
        # shape, so a read ``inter[e_1, .., e_R]`` is covered iff every
        # index is in range: 0 <= e_d < shape_d under the enclosing index
        # ranges.  Together with the injectivity obligation (checked once
        # per attempt for rank >= 2), the cell read holds exactly the
        # producer's value for iteration (e_1, .., e_R).
        shape = [lvl.width for lvl in nest.levels]
        for site in sites:
            nonneg = site.prover.nonneg
            for e, dim in zip(site.idxs, shape):
                if not (nonneg(e) and nonneg(dim - 1 - e)):
                    raise Declined("read-out-of-range")
        return sites

    # ------------------------------------------------------------------
    def _inline_site(self, site: _ReadSite, nest: _Nest) -> str:
        """Splice a renamed copy of the producer body over one read.

        Returns the canonical body hash recorded in the site's
        :class:`FusedRecord` (rule FU03's per-site evidence).
        """
        self._suffix += 1
        tag = f"__f{self._suffix}"
        vname = site.stmt.names[0]
        vtype = site.stmt.pattern[0].type
        res = nest.result

        bound: Set[str] = set()
        for lvl in nest.levels:
            bound.add(lvl.index)
            bound |= _bound_names(lvl.stmts)
        mapping = {n: f"{n}{tag}" for n in bound}
        idx_vars = {lvl.index for lvl in nest.levels}
        res_is_index = res in idx_vars
        if not res_is_index:
            # The producer's result binding directly becomes the read's
            # bound name; everything else gets a fresh suffix.
            mapping[res] = vname

        new_stmts: List[A.Let] = []
        body_stmts: List[A.Let] = []  # spliced minus index binds (hashed)
        for lvl, e in zip(nest.levels, site.idxs):
            new_stmts.append(
                A.Let(
                    [A.PatElem(mapping[lvl.index], ScalarType("i64"))],
                    A.ScalarE(sym(e)),
                )
            )
            renamed = _ren_stmts(lvl.stmts, mapping)
            new_stmts.extend(renamed)
            body_stmts.extend(renamed)
        if res_is_index:
            # map (i < w) { i }: the value *is* the thread index.
            tail = A.Let(
                [A.PatElem(vname, vtype)],
                A.ScalarE(SymExpr.var(mapping[res])),
            )
            new_stmts.append(tail)
            body_stmts.append(tail)
        site.block.stmts[site.index : site.index + 1] = new_stmts
        seed = {
            mapping[lvl.index]: f"%i{d}"
            for d, lvl in enumerate(nest.levels)
        }
        return _canon_hash(body_stmts, seed)


# ----------------------------------------------------------------------
def fuse_fun(fun: A.Fun, shared) -> FuseStats:
    """Run producer-consumer fusion to a fixpoint on ``fun`` (in place).

    ``shared`` is the compilation's shared state (see
    :class:`repro.pipeline.CompileContext`): the root assumption context
    and the Prover/NonOverlapChecker memo pool are reused across the
    whole pipeline instead of rebuilt per pass.
    """
    return _Fuser(fun, shared).run()
