"""Static non-overlap test for a pair of LMADs (paper fig. 8, section V-C).

The test is a *sufficient condition*: ``True`` means the two access sets are
provably disjoint; ``False`` means "could not prove", never "definitely
overlapping".  The short-circuiting pass only acts on ``True``.

Theorem (Non-Overlap).  Given two sums of strided intervals with matching
strides ``I1 = sum_j [l1_j..u1_j]*s_j`` and ``I2 = sum_j [l2_j..u2_j]*s_j``
with ``s_j > 0`` and all lower bounds non-negative, then ``I1 cap I2 = {}``
if:

* both have no *overlapping dimensions*, i.e. sorted by ascending stride,
  ``s_i > sum_{j<i} u_j * s_j`` for each side (every dimension's stride
  jumps past everything the smaller dimensions can reach -- a positional
  number system argument); and
* some dimension's multiplier intervals are disjoint:
  ``[l1_j..u1_j] cap [l2_j..u2_j] = {}``.

When a dimension *is* overlapping, the paper's extension (vs. Hoeflinger et
al.) splits the offending interval ``[l..u]`` into ``[l..u-1]`` union the
last point ``{u}``, re-distributes the fixed contribution ``u*s`` into the
other dimensions' bounds, and recurses on all pair combinations -- this is
what makes the NW proof (paper fig. 9) go through.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.lmad.interval import (
    SumOfIntervals,
    StridedInterval,
    distribute_offset,
    pair_to_sums_of_intervals,
    stride_sort_key,
)
from repro.lmad.lmad import Lmad
from repro.symbolic import Prover, sym


@dataclass
class NonOverlapChecker:
    """Reusable checker bound to a prover; records a proof trace for demos."""

    #: How many times a proof may split a dimension.
    MAX_SPLIT_DEPTH = 3

    prover: Prover
    #: When False, reproduces the baseline test of Hoeflinger et al. [9]
    #: (no dimension splitting) -- used by the ablation benchmark.
    enable_splitting: bool = True
    #: Human-readable trace of the most recent proof attempt.
    trace: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def check(self, l1: Lmad, l2: Lmad) -> bool:
        """Are the abstract sets of ``l1`` and ``l2`` provably disjoint?"""
        self.trace = []
        if self._trivially_empty(l1) or self._trivially_empty(l2):
            self.trace.append("one side is empty: trivially disjoint")
            return True
        pair = pair_to_sums_of_intervals(l1, l2, self.prover)
        if pair is None:
            self.trace.append(
                "conversion to matching sums-of-intervals failed: cannot prove"
            )
            return False
        i1, i2 = pair
        self.trace.append(f"I1 = {i1}")
        self.trace.append(f"I2 = {i2}")
        return self._check(i1, i2, self.MAX_SPLIT_DEPTH)

    def _trivially_empty(self, l: Lmad) -> bool:
        return any(
            self.prover.nonneg(-d.shape) for d in l.dims
        )  # some cardinality <= 0

    # ------------------------------------------------------------------
    def _check(self, i1: SumOfIntervals, i2: SumOfIntervals, depth: int) -> bool:
        bad1 = self._first_overlapping_dim(i1)
        bad2 = self._first_overlapping_dim(i2)
        if bad1 is None and bad2 is None:
            return self._disjoint_on_some_dim(i1, i2)
        if not self.enable_splitting or depth <= 0:
            self.trace.append(
                "overlapping dimensions remain and splitting unavailable: "
                "cannot prove"
            )
            return False

        parts1 = self._split(i1, bad1) if bad1 is not None else [i1]
        parts2 = self._split(i2, bad2) if bad2 is not None else [i2]
        if parts1 is None or parts2 is None:
            self.trace.append("dimension split failed: cannot prove")
            return False
        if bad1 is not None:
            self.trace.append(
                f"split I1 dim {bad1} -> {' | '.join(map(str, parts1))}"
            )
        if bad2 is not None:
            self.trace.append(
                f"split I2 dim {bad2} -> {' | '.join(map(str, parts2))}"
            )
        return all(
            self._check(p1, p2, depth - 1) for p1 in parts1 for p2 in parts2
        )

    # ------------------------------------------------------------------
    def _first_overlapping_dim(self, soi: SumOfIntervals) -> Optional[int]:
        """Index of a dimension to split, or None if all non-overlapping.

        Dimension ``i`` (ascending stride order) is non-overlapping when
        ``s_i > sum_{j<i} u_j*s_j``.  On failure we return the inner
        dimension with the largest contribution -- splitting it peels off
        its topmost point, which is what unblocks the NW/LUD proofs.
        """
        ivs = soi.intervals
        for i in range(1, len(ivs)):
            span = sym(0)
            for j in range(i, 0, -1):
                span = span + ivs[j - 1].span()
            if not self.prover.pos(ivs[i].stride - span):
                # Find the largest-stride inner dim that actually contributes.
                for j in range(i - 1, -1, -1):
                    if not self.prover.eq(ivs[j].hi, ivs[j].lo):
                        return j
                    if not ivs[j].span().is_zero() and not self.prover.eq_zero(
                        ivs[j].span()
                    ):
                        return j
                return i - 1
        return None

    def _split(
        self, soi: SumOfIntervals, k: int
    ) -> Optional[List[SumOfIntervals]]:
        """Split dim ``k``: ``[l..u] -> [l..u-1]  union  {u}``.

        The point part fixes dim ``k`` at 0 and redistributes its value
        ``u*s`` into the other dimensions (translation with non-negative
        shifts only, to preserve the theorem's preconditions).
        """
        iv = soi.intervals[k]
        # The "rest" part [l .. u-1] may be empty (then it denotes the empty
        # set, trivially disjoint from everything): keep it unless provably
        # empty.  All theorem checks remain sound for possibly-empty
        # intervals because upper bounds only ever over-approximate.
        rest: Optional[SumOfIntervals] = soi.with_interval(
            k, StridedInterval(iv.lo, iv.hi - 1, iv.stride)
        )
        if self.prover.lt(iv.hi - 1, iv.lo):
            rest = None

        point_value = iv.hi * iv.stride
        strides = list(soi.strides())
        masked = [
            s if j != k else sym(0) for j, s in enumerate(strides)
        ]  # never redistribute onto the split dim itself
        dist = distribute_offset(point_value, masked, self.prover)
        if dist is None:
            return None
        shifts_pos, shifts_neg = dist
        if shifts_neg:
            return None  # translation must stay on this side
        ivs = list(soi.intervals)
        ivs[k] = StridedInterval(sym(0), sym(0), iv.stride)
        for j, amount in shifts_pos.items():
            ivs[j] = ivs[j].shifted(amount)
        point = SumOfIntervals(tuple(ivs))
        return [point] if rest is None else [rest, point]

    # ------------------------------------------------------------------
    def _disjoint_on_some_dim(
        self, i1: SumOfIntervals, i2: SumOfIntervals
    ) -> bool:
        for k, (a, b) in enumerate(zip(i1.intervals, i2.intervals)):
            if self.prover.pos(b.lo - a.hi) or self.prover.pos(a.lo - b.hi):
                self.trace.append(
                    f"dim {k} (stride {a.stride}): [{a.lo}..{a.hi}] and "
                    f"[{b.lo}..{b.hi}] are disjoint -> sets disjoint"
                )
                return True
        self.trace.append("no dimension with disjoint intervals: cannot prove")
        return False


def lmads_nonoverlapping(
    l1: Lmad,
    l2: Lmad,
    prover: Optional[Prover] = None,
    enable_splitting: bool = True,
) -> bool:
    """Convenience wrapper: prove that two LMAD access sets are disjoint."""
    checker = NonOverlapChecker(
        prover if prover is not None else Prover(),
        enable_splitting=enable_splitting,
    )
    return checker.check(l1, l2)


@dataclass
class TieredChecker(NonOverlapChecker):
    """Structural non-overlap test with a polyhedral fallback tier.

    ``check`` first runs the structural theorem (fig. 8 + splitting); on
    failure it re-asks the same question as relation emptiness through a
    :class:`~repro.isl.PolyEngine` and accepts only an exact ``EMPTY``
    verdict.  Every query reports its *deciding tier* -- ``structural``,
    ``polyhedral``, or ``unknown`` -- to the owning :class:`ProverPool`,
    which tallies per client pass and keeps a bounded replayable log.
    """

    pool: Optional["ProverPool"] = None
    engine: Optional[object] = None  # a repro.isl.PolyEngine
    #: Why the most recent query is *known* to overlap (a shared point),
    #: when it is; empty for "disjoint" and for plain "cannot prove".
    witness: str = ""

    def check(self, l1: Lmad, l2: Lmad) -> bool:
        pool, ctx = self.pool, self.prover.ctx
        if pool is None:
            verdict = self._decide(l1, l2)
        else:
            # One proof per question: the answer depends on the context
            # only through its effective facts, so it is looked up by
            # them.  The fingerprint is taken now, not when the checker
            # was pooled -- the context may have gained facts since.
            key = (ctx.fingerprint(), l1, l2, self.enable_splitting)
            verdict = pool.verdicts.get(key)
            if verdict is None:
                pool.verdict_misses += 1
                verdict = self._decide(l1, l2)
                pool.store_verdict(key, verdict)
            else:
                pool.verdict_hits += 1
                self.trace = [
                    f"verdict table: tier {verdict[1]} under equal facts"
                    + (f" ({verdict[3]})" if verdict[3] else "")
                ]
            # A hit is still a query: it is logged and tallied like the
            # proof it stands for, so tier counts and the overlap audit
            # (which re-decides every logged query from scratch) see all
            # of them.
            pool.record_query(ctx, l1, l2, *verdict[:3])
        _, _, result, self.witness = verdict
        return result

    def _decide(self, l1: Lmad, l2: Lmad) -> "tuple[bool, str, bool, str]":
        """Prove from scratch: ``(structural, tier, result, witness)``."""
        structural = NonOverlapChecker.check(self, l1, l2)
        if structural:
            return True, "structural", True, ""
        if self.engine is None:
            return False, "unknown", False, ""
        from repro.isl.emptiness import Verdict

        emptiness = self.engine.accesses_disjoint(l1, l2)
        if emptiness is Verdict.EMPTY:
            self.trace.append("polyhedral fallback: overlap set proven empty")
            return False, "polyhedral", True, ""
        witness = ""
        if self.engine.shared_point is not None:
            witness = f"first points coincide at {self.engine.shared_point}"
            self.trace.append(f"refuted without elimination: {witness}")
            if self.pool is not None:
                self.pool.refuted_by_shared_point += 1
        else:
            self.trace.append(
                f"polyhedral fallback inconclusive ({emptiness.name.lower()})"
            )
        return False, "unknown", False, witness


@dataclass
class QueryRecord:
    """One logged disjointness query, replayable by the overlap audit."""

    client: str
    ctx: object
    l1: Lmad
    l2: Lmad
    structural: bool
    tier: str
    result: bool


class ProverPool:
    """Memoized :class:`Prover`/:class:`TieredChecker` pairs per context,
    and one table of disjointness verdicts for all of them.

    One :class:`~repro.symbolic.Prover` per assumption :class:`Context`
    object, shared across every query issued against that context, so the
    prover's memo table amortizes over all clients instead of being
    rebuilt per query batch.  A pool owned by a compilation (see
    :class:`repro.pipeline.CompileContext`) extends the amortization
    across *passes*: short-circuiting, fusion and reuse all consult the
    same pool, and queries against the compilation's shared root context
    hit memos populated by earlier passes.

    Provers, checkers and engines are keyed by the context *object*
    (contexts hash by identity, and the table keeps them alive); a
    rebuilt context is a new object and gets a fresh entry.  They are
    deliberately not shared between distinct contexts that hold equal
    facts: a prover reads its context live, so one shared by content
    would silently inherit whatever its first owner learns later and
    answer the second owner's questions with facts it does not have.
    Contexts may gain facts after registration (passes ``define`` scalar
    SSA equalities as they walk) -- that only ever adds information, so
    memoized ``True`` answers stay sound and ``False`` answers stay
    conservative, exactly as for a long-lived :class:`Prover`.

    What *is* shared by content is the finished answer.  ``verdicts``
    maps ``(ctx.fingerprint(), l1, l2, enable_splitting)`` to
    ``(structural, tier, result, witness)``: a verdict is a theorem about
    two access sets under a set of facts, not about the Python object
    that happened to hold the facts, so passes that rebuild their scope
    contexts (short-circuiting does, every fixpoint round) pay for each
    question once.  The table stops growing at ``VERDICT_CAP`` entries
    and lives and dies with the pool -- one compilation; nothing is kept
    per process or on disk.

    The prover tables are LRU-bounded (``MAX_ENTRIES`` contexts):
    analyses that walk many short-lived extended contexts (races,
    per-loop sc bodies) no longer grow the pool without bound.
    ``hits``/``misses`` count pooled-object lookups, ``verdict_hits``/
    ``verdict_misses`` verdict-table lookups and
    ``refuted_by_shared_point`` the queries settled as overlapping by
    inspection; all surface in the PipelineTrace.

    Checkers are additionally keyed by their ``enable_splitting`` flag
    (the prover itself is splitting-agnostic and shared between both
    flavors).  Checkers are :class:`TieredChecker` instances wired to a
    pooled polyhedral engine, so every pool client transparently gets the
    fallback tier; per-client deciding-tier tallies accumulate in
    ``tiers`` and the last ``LOG_CAP`` queries in ``query_log``.
    """

    #: Verdicts the table holds before it stops taking new ones.
    VERDICT_CAP = 4096
    #: Contexts whose prover, checkers and engine are retained.
    MAX_ENTRIES = 64
    #: Queries ``query_log`` holds before it counts drops instead.
    LOG_CAP = 4096

    def __init__(self) -> None:
        self._provers: "OrderedDict" = OrderedDict()
        self._checkers: Dict[tuple, TieredChecker] = {}
        self._engines: Dict[object, object] = {}
        self.hits = 0
        self.misses = 0
        self.verdicts: Dict[tuple, tuple] = {}
        self.verdict_hits = 0
        self.verdict_misses = 0
        self.refuted_by_shared_point = 0
        self._client = "?"
        #: client name -> {"structural": n, "polyhedral": n, "unknown": n}
        self.tiers: Dict[str, Dict[str, int]] = {}
        self.query_log: List[QueryRecord] = []
        self.log_dropped = 0

    # -- client bookkeeping --------------------------------------------
    def set_client(self, name: str) -> None:
        """Name the pass issuing subsequent queries (for tier tallies)."""
        self._client = name

    @contextmanager
    def client(self, name: str) -> Iterator[Dict[str, int]]:
        """:meth:`set_client` for a block of work.  The yielded dict holds,
        once the block ends, the deciding-tier tallies of the block's own
        queries: the client's cumulative tally minus its value on entry
        (a pool outlives its clients, and a client may run twice)."""
        self.set_client(name)
        base = dict(self.tiers.get(name, {}))
        delta: Dict[str, int] = {}
        yield delta
        now = self.tiers.get(name, {})
        delta.update((k, n - base.get(k, 0)) for k, n in now.items())

    def record_query(
        self, ctx, l1: Lmad, l2: Lmad, structural: bool, tier: str,
        result: bool,
    ) -> None:
        self.record_tier(tier)
        if len(self.query_log) < self.LOG_CAP:
            self.query_log.append(
                QueryRecord(self._client, ctx, l1, l2, structural, tier, result)
            )
        else:
            self.log_dropped += 1

    def record_tier(self, tier: str) -> None:
        """Tally a query decided outside a checker (e.g. injectivity)."""
        tally = self.tiers.setdefault(
            self._client, {"structural": 0, "polyhedral": 0, "unknown": 0}
        )
        tally[tier] = tally.get(tier, 0) + 1

    def tier_totals(self) -> Dict[str, int]:
        total = {"structural": 0, "polyhedral": 0, "unknown": 0}
        for tally in self.tiers.values():
            for k, v in tally.items():
                total[k] = total.get(k, 0) + v
        return total

    def store_verdict(self, key: tuple, verdict: tuple) -> None:
        if len(self.verdicts) < self.VERDICT_CAP:
            self.verdicts[key] = verdict

    # -- pooled objects ------------------------------------------------
    def _evict(self) -> None:
        while len(self._provers) > self.MAX_ENTRIES:
            evicted, _ = self._provers.popitem(last=False)
            for key in [k for k in self._checkers if k[0] is evicted]:
                del self._checkers[key]
            self._engines.pop(evicted, None)

    def prover_for(self, ctx) -> Prover:
        """The pooled prover for ``ctx`` (created on first use)."""
        prover = self._provers.get(ctx)
        if prover is None:
            self.misses += 1
            prover = self._provers[ctx] = Prover(ctx)
            self._evict()
        else:
            self.hits += 1
        self._provers.move_to_end(ctx)
        return prover

    def engine_for(self, ctx):
        """The pooled polyhedral engine for ``ctx``."""
        engine = self._engines.get(ctx)
        if engine is None:
            from repro.isl.engine import PolyEngine

            self.misses += 1
            engine = self._engines[ctx] = PolyEngine(self.prover_for(ctx))
        else:
            self.hits += 1
        return engine

    def checker_for(
        self, ctx, enable_splitting: bool = True
    ) -> "TieredChecker":
        """The pooled tiered non-overlap checker for ``ctx``."""
        key = (ctx, enable_splitting)
        checker = self._checkers.get(key)
        if checker is None:
            self.misses += 1
            checker = self._checkers[key] = TieredChecker(
                self.prover_for(ctx),
                enable_splitting=enable_splitting,
                pool=self,
                engine=self.engine_for(ctx),
            )
        else:
            self.hits += 1
        return checker

    def pair_for(
        self, ctx, enable_splitting: bool = True
    ) -> "tuple[Prover, NonOverlapChecker]":
        """(prover, checker) for ``ctx`` -- the common client shape."""
        checker = self.checker_for(ctx, enable_splitting)
        return checker.prover, checker

    # -- tiered injectivity --------------------------------------------
    def injective(self, ctx, l: Lmad) -> bool:
        """Tiered injectivity: structural test, then relation emptiness.

        The polyhedral form asks whether two *distinct* index tuples can
        map to the same flat offset; an exact EMPTY on every distinctness
        piece proves injectivity.
        """
        prover = self.prover_for(ctx)
        if lmad_injective(l, prover):
            self.record_tier("structural")
            return True
        engine = self.engine_for(ctx)
        from repro.isl.emptiness import Verdict

        if engine.lmad_injective(l) is Verdict.EMPTY:
            self.record_tier("polyhedral")
            return True
        self.record_tier("unknown")
        return False


def lmad_injective(l: Lmad, prover: Optional[Prover] = None) -> bool:
    """Sufficient static condition for an LMAD to denote distinct points.

    Used for update slices: if the write set is injective, an LMAD update
    has no output dependences (paper section III-B).  Checks positive
    strides plus the no-overlapping-dimensions condition.
    """
    p = prover if prover is not None else Prover()
    norm = l.normalize_positive(p)
    if norm is None:
        return False
    norm = norm.drop_unit_dims(p)
    dims = sorted(norm.dims, key=lambda d: stride_sort_key(d.stride))
    span = sym(0)
    for d in dims:
        if not p.pos(d.stride - span):
            return False
        span = span + (d.shape - 1) * d.stride
    return True
