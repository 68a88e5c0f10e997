"""ProverPool: memo LRU bound, counters, query log, tier bookkeeping."""

import pytest

from repro.isl.engine import PolyEngine
from repro.lmad.lmad import Lmad, LmadDim
from repro.lmad.overlap import NonOverlapChecker, ProverPool, TieredChecker
from repro.symbolic import Context, Prover, SymExpr, sym


V = SymExpr.var


def L(off, *dims):
    return Lmad(sym(off), tuple(LmadDim(sym(s), sym(st)) for s, st in dims))


#: Disjoint, and provably so by the structural (interval) checker.
STRUCTURAL_PAIR = (L(0, (4, 1)), L(4, (4, 1)))
#: {0,6,12} vs {1,5,9}: mismatched strides defeat the sums-of-intervals
#: conversion, but 6i == 1 + 4j has no integer solution (gcd test).
POLYHEDRAL_PAIR = (L(0, (3, 6)), L(1, (3, 4)))
#: Genuinely overlapping.
OVERLAP_PAIR = (L(0, (4, 1)), L(2, (4, 1)))


class TestPooling:
    def test_prover_identity_and_counters(self):
        pool = ProverPool()
        ctx = Context()
        p1 = pool.prover_for(ctx)
        assert pool.misses == 1 and pool.hits == 0
        assert pool.prover_for(ctx) is p1
        assert pool.hits == 1
        # A different context gets its own prover.
        assert pool.prover_for(Context()) is not p1
        assert pool.misses == 2

    def test_checker_keyed_by_splitting_flag(self):
        pool = ProverPool()
        ctx = Context()
        strong = pool.checker_for(ctx)
        weak = pool.checker_for(ctx, enable_splitting=False)
        assert strong is not weak
        assert strong.enable_splitting and not weak.enable_splitting
        # Both flavors share the one pooled prover for the context.
        assert strong.prover is weak.prover
        assert pool.checker_for(ctx) is strong

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(ProverPool, "MAX_ENTRIES", 3)
        pool = ProverPool()
        ctxs = [Context() for _ in range(5)]
        for ctx in ctxs:
            pool.checker_for(ctx)
        assert len(pool._provers) == 3
        misses = pool.misses
        # The oldest contexts were evicted: asking again is a miss...
        pool.prover_for(ctxs[0])
        assert pool.misses == misses + 1
        # ...while the newest is still resident.
        hits = pool.hits
        pool.prover_for(ctxs[-1])
        assert pool.hits == hits + 1

    def test_eviction_drops_dependent_checkers(self, monkeypatch):
        monkeypatch.setattr(ProverPool, "MAX_ENTRIES", 1)
        pool = ProverPool()
        a, b = Context(), Context()
        chk_a = pool.checker_for(a)
        pool.checker_for(b)  # evicts a's prover and checker
        assert pool.checker_for(a) is not chk_a


class TestTieredChecker:
    def test_structural_tier_records(self):
        pool = ProverPool()
        pool.set_client("sc")
        chk = pool.checker_for(Context())
        assert chk.check(*STRUCTURAL_PAIR)
        assert pool.tiers["sc"]["structural"] == 1
        assert pool.tiers["sc"]["polyhedral"] == 0

    def test_polyhedral_fallback_recovers_gcd_disjointness(self):
        pool = ProverPool()
        pool.set_client("sc")
        ctx = Context()
        # The structural tier alone cannot prove this pair...
        assert not NonOverlapChecker(pool.prover_for(ctx)).check(
            *POLYHEDRAL_PAIR
        )
        # ...the tiered checker can, and attributes the proof correctly.
        assert pool.checker_for(ctx).check(*POLYHEDRAL_PAIR)
        assert pool.tiers["sc"]["polyhedral"] == 1
        (rec,) = [r for r in pool.query_log if r.tier == "polyhedral"]
        assert rec.result and not rec.structural

    def test_overlap_is_unknown_not_disjoint(self):
        pool = ProverPool()
        pool.set_client("fuse")
        assert not pool.checker_for(Context()).check(*OVERLAP_PAIR)
        assert pool.tiers["fuse"]["unknown"] == 1
        (rec,) = pool.query_log
        assert rec.client == "fuse" and not rec.result

    def test_query_log_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(ProverPool, "LOG_CAP", 2)
        pool = ProverPool()
        chk = pool.checker_for(Context())
        for off in range(4):
            chk.check(L(off * 10, (2, 1)), L(off * 10 + 5, (2, 1)))
        assert len(pool.query_log) == 2
        assert pool.log_dropped == 2

    def test_tier_totals_aggregates_clients(self):
        pool = ProverPool()
        ctx = Context()
        pool.set_client("a")
        pool.checker_for(ctx).check(*STRUCTURAL_PAIR)
        pool.set_client("b")
        pool.checker_for(ctx).check(*POLYHEDRAL_PAIR)
        totals = pool.tier_totals()
        assert totals["structural"] == 1 and totals["polyhedral"] == 1


class TestTieredInjectivity:
    def test_structural_injective(self):
        pool = ProverPool()
        pool.set_client("r")
        assert pool.injective(Context(), L(0, (4, 4), (4, 1)))
        assert pool.tiers["r"]["structural"] == 1

    def test_non_injective_is_unknown(self):
        pool = ProverPool()
        pool.set_client("r")
        # Stride 0: every index maps to the same address.
        assert not pool.injective(Context(), L(0, (4, 0)))
        assert pool.tiers["r"]["unknown"] == 1

    def test_polyhedral_injectivity_fallback(self):
        """Overlapping-looking strides (3, 2) over shapes (2, 2): the
        addresses {0,2,3,5} are pairwise distinct, but the structural
        span condition 3 > 1*2 fails... it holds; use (2, 3)x(3, 2):
        strides sorted (2,3) spans -- pick a genuinely structural-hard
        one: shape (2, 3), strides (3, 2) -> {0,2,4,3,5,7}: distinct."""
        pool = ProverPool()
        pool.set_client("r")
        ctx = Context()
        l = Lmad(
            sym(0),
            (LmadDim(sym(2), sym(3)), LmadDim(sym(3), sym(2))),
        )
        from repro.lmad.overlap import lmad_injective

        if lmad_injective(l, pool.prover_for(ctx)):
            pytest.skip("structural tier got stronger; pick a harder lmad")
        assert pool.injective(ctx, l)
        assert pool.tiers["r"]["polyhedral"] == 1


class TestEngineSharing:
    def test_checker_engine_is_pooled(self):
        pool = ProverPool()
        ctx = Context()
        chk = pool.checker_for(ctx)
        assert isinstance(chk, TieredChecker)
        assert isinstance(chk.engine, PolyEngine)
        assert pool.engine_for(ctx) is chk.engine


def _facts(ctx):
    """The facts lud's width-1 map body holds, added to ``ctx``."""
    ctx.define("n", V("b") * V("q"))
    ctx.assume_lower("b", 2)
    ctx.assume_lower("q", 2)
    ctx.assume_range("k", 0, V("q") - 1)
    return ctx


#: Disjoint exactly when ``lo >= 4``: [0..3] against [lo..lo+3].
def shifted_pair():
    return L(0, (4, 1)), L(V("lo"), (4, 1))


class TestVerdictTable:
    def test_equal_facts_share_one_proof(self, monkeypatch):
        pool = ProverPool()
        pool.set_client("sc")
        a, b = _facts(Context()), _facts(Context())
        assert pool.checker_for(a).check(*POLYHEDRAL_PAIR)
        assert (pool.verdict_hits, pool.verdict_misses) == (0, 1)

        def boom(*args, **kw):
            raise AssertionError("a remembered verdict was proved again")

        import repro.isl.engine as engine_mod

        monkeypatch.setattr(NonOverlapChecker, "check", boom)
        monkeypatch.setattr(engine_mod, "basic_empty", boom)
        chk_b = pool.checker_for(b)
        assert chk_b is not pool.checker_for(a)  # provers are not shared
        assert chk_b.prover.ctx is b
        assert chk_b.check(*POLYHEDRAL_PAIR)
        assert (pool.verdict_hits, pool.verdict_misses) == (1, 1)
        # Both calls are queries: logged under their own context, with
        # the same deciding tier, and tallied twice.
        first, second = pool.query_log
        assert (first.ctx, second.ctx) == (a, b)
        assert first.tier == second.tier == "polyhedral"
        assert first.result and second.result
        assert pool.tiers["sc"]["polyhedral"] == 2
        assert "verdict table" in chk_b.trace[0]

    def test_facts_one_context_gains_do_not_leak(self):
        """The shared-prover trap: A learns something that makes the
        pair disjoint; B, whose facts did not change, must not."""
        pool = ProverPool()
        pair = shifted_pair()
        a, b = Context(), Context()
        a.assume_lower("lo", 0)
        b.assume_lower("lo", 0)
        assert not pool.checker_for(a).check(*pair)
        assert not pool.checker_for(b).check(*pair)  # a table hit
        assert pool.verdict_hits == 1
        a.assume_range("lo", 4, 9)
        assert pool.checker_for(a).check(*pair)
        assert not pool.checker_for(b).check(*pair)
        # The same holds for an equality.
        c, d = Context(), Context()
        assert not pool.checker_for(c).check(*pair)
        c.define("lo", 8)
        assert pool.checker_for(c).check(*pair)
        assert not pool.checker_for(d).check(*pair)

    def test_child_bound_overrides_parent_in_the_key(self):
        pool = ProverPool()
        pair = shifted_pair()
        parent = Context().assume_range("lo", 0, 9)
        child = parent.extended().assume_range("lo", 4, 9)
        assert not pool.checker_for(parent).check(*pair)
        assert pool.checker_for(child).check(*pair)
        assert pool.verdict_hits == 0

    def test_splitting_flag_is_part_of_the_key(self):
        pool = ProverPool()
        ctx = Context()
        pool.checker_for(ctx).check(*STRUCTURAL_PAIR)
        pool.checker_for(ctx, enable_splitting=False).check(*STRUCTURAL_PAIR)
        assert (pool.verdict_hits, pool.verdict_misses) == (0, 2)
        pool.checker_for(ctx, enable_splitting=False).check(*STRUCTURAL_PAIR)
        assert pool.verdict_hits == 1

    def test_table_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(
            TieredChecker, "_decide",
            lambda self, l1, l2: (True, "structural", True, ""),
        )
        monkeypatch.setattr(ProverPool, "LOG_CAP", 8)
        pool = ProverPool()
        chk = pool.checker_for(Context())
        for off in range(10_000):
            assert chk.check(L(0, (2, 1)), L(off + 2, (2, 1)))
        assert len(pool.verdicts) == ProverPool.VERDICT_CAP
        assert pool.verdict_misses == 10_000

    def test_a_second_pool_starts_empty(self):
        first = ProverPool()
        first.checker_for(Context()).check(*STRUCTURAL_PAIR)
        assert first.verdicts
        second = ProverPool()
        assert not second.verdicts
        second.checker_for(Context()).check(*STRUCTURAL_PAIR)
        assert (second.verdict_hits, second.verdict_misses) == (0, 1)

    def test_checker_without_a_pool_still_decides(self):
        prover = Prover()
        chk = TieredChecker(prover, engine=PolyEngine(prover))
        assert chk.check(*POLYHEDRAL_PAIR)
        assert not chk.check(*OVERLAP_PAIR)


class TestFingerprint:
    def test_insertion_order_and_chain_shape_do_not_matter(self):
        flat = Context()
        flat.define("n", V("b") * V("q"))
        flat.define("m", V("n") + 1)
        flat.assume_range("i", 0, V("n") - 1)
        flat.assume_lower("b", 2)

        other_order = Context()
        other_order.assume_lower("b", 2)
        other_order.assume_range("i", 0, V("n") - 1)
        other_order.define("m", V("n") + 1)
        other_order.define("n", V("b") * V("q"))

        root = Context()
        root.assume_lower("b", 2)
        root.define("n", V("b") * V("q"))
        mid = root.extended()
        mid.define("m", V("n") + 1)
        leaf = mid.extended()
        leaf.assume_range("i", 0, V("n") - 1)

        assert flat.fingerprint() == other_order.fingerprint()
        assert flat.fingerprint() == leaf.fingerprint()
        assert hash(flat.fingerprint()) == hash(leaf.fingerprint())
        assert flat.fingerprint() != mid.fingerprint()

    def test_follows_facts_gained_anywhere_up_the_chain(self):
        root = Context()
        leaf = root.extended().extended()
        before = leaf.fingerprint()
        assert leaf.fingerprint() is before  # stamped, not rebuilt
        root.define("n", 4)
        after = leaf.fingerprint()
        assert after != before
        root.assume_lower("q", 2)
        assert leaf.fingerprint() != after

    def test_innermost_bound_is_the_effective_one(self):
        parent = Context().assume_range("i", 0, 9)
        child = parent.extended().assume_range("i", 2, 5)
        direct = Context().assume_range("i", 2, 5)
        assert child.fingerprint() == direct.fingerprint()
        assert child.fingerprint() != parent.fingerprint()
