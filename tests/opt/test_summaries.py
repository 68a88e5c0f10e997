"""Tests for access summaries and the precision of destination-use
collection (the U_xss machinery of paper section V-B)."""

import pytest

from repro.ir import FunBuilder, f32
from repro.ir import ast as A
from repro.lmad import IndexFn, NonOverlapChecker, lmad
from repro.lmad.lmad import Lmad
from repro.mem import introduce_memory
from repro.opt.summaries import (
    AccessSet,
    collect_block_dst_uses,
    collect_dst_uses,
)
from repro.symbolic import Context, Prover, Var, sym
from tests.lmad import col_major

n = Var("n")


@pytest.fixture
def prover():
    return Prover(Context().assume_lower("n", 1))


class TestAccessSet:
    def test_empty(self):
        assert AccessSet().is_empty()

    def test_unknown_is_top(self, prover):
        a = AccessSet(unknown=True)
        b = AccessSet([lmad(0, [(4, 1)])])
        chk = NonOverlapChecker(prover)
        assert not a.disjoint_from(b, chk)
        assert b.disjoint_from(AccessSet(), chk)  # empty always disjoint

    def test_disjoint_pairwise(self, prover):
        chk = NonOverlapChecker(prover)
        a = AccessSet([lmad(0, [(4, 1)]), lmad(8, [(4, 1)])])
        b = AccessSet([lmad(4, [(4, 1)]), lmad(12, [(4, 1)])])
        assert a.disjoint_from(b, chk)
        c = AccessSet([lmad(2, [(4, 1)])])
        assert not a.disjoint_from(c, chk)

    def test_composed_ixfn_is_unknown(self, prover):
        f = IndexFn((col_major([4, 5]),)).flatten(prover)
        s = AccessSet()
        s.add_ixfn(f)
        assert s.unknown

    def test_aggregation_over_loop_var(self, prover):
        i = Var("i")
        s = AccessSet([Lmad(i * 4, (  ))])
        agg = s.aggregated("i", sym(8), prover)
        assert not agg.unknown
        assert agg.lmads[0] == lmad(0, [(8, 4)])

    def test_aggregation_failure_is_unknown(self, prover):
        i = Var("i")
        s = AccessSet([Lmad(i * i, ())])  # quadratic: not promotable
        agg = s.aggregated("i", sym(8), prover)
        assert agg.unknown

    def test_substitute(self):
        i, j = Var("i"), Var("j")
        s = AccessSet([Lmad(i, ())]).substitute({"i": j})
        assert s.lmads[0].offset == j


def _annotated(build):
    b = FunBuilder("f")
    build(b)
    return introduce_memory(b.build())


class TestCollectDstUses:
    def _bindings(self, fun):
        from repro.mem.memir import array_bindings

        return array_bindings(fun)

    def test_views_touch_nothing(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n, n)),
            b.transpose("x", name="t"),
            b.slice("t", [(0, 2, 1), (0, 2, 1)], name="s"),
            b.returns("s"),
        ))
        binds = self._bindings(fun)
        for stmt in fun.body.stmts:
            if isinstance(stmt.exp, (A.Rearrange, A.SliceT)):
                uses = collect_dst_uses(stmt, "x_mem", binds, prover)
                assert uses.is_empty()

    def test_index_is_a_point(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n)),
            b.index("x", [3], name="v"),
            b.binop("+", "v", 1.0, name="w"),
            b.returns("w"),
        ))
        binds = self._bindings(fun)
        idx_stmt = next(
            s for s in fun.body.stmts if isinstance(s.exp, A.Index)
        )
        uses = collect_dst_uses(idx_stmt, "x_mem", binds, prover)
        assert len(uses.lmads) == 1
        assert uses.lmads[0].offset.as_int() == 3
        assert uses.lmads[0].rank == 0

    def test_copy_reads_full_source(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n)),
            b.copy("x", name="c"),
            b.returns("c"),
        ))
        binds = self._bindings(fun)
        cp = next(s for s in fun.body.stmts if isinstance(s.exp, A.Copy))
        uses = collect_dst_uses(cp, "x_mem", binds, prover)
        assert len(uses.lmads) == 1
        assert uses.lmads[0].shape == (n,)

    def test_skip_vars_excluded(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n)),
            b.index("x", [0], name="v"),
            b.binop("+", "v", 1.0, name="w"),
            b.returns("w"),
        ))
        binds = self._bindings(fun)
        idx_stmt = next(s for s in fun.body.stmts if isinstance(s.exp, A.Index))
        uses = collect_dst_uses(
            idx_stmt, "x_mem", binds, prover, skip_vars=frozenset({"x"})
        )
        assert uses.is_empty()

    def test_map_uses_aggregated_over_threads(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n)),
            _mk_map(b),
            b.returns("ys"),
        ))
        binds = self._bindings(fun)
        mp = next(s for s in fun.body.stmts if isinstance(s.exp, A.Map))
        uses = collect_dst_uses(mp, "x_mem", binds, prover)
        # Per-thread point reads x[i] promoted over i < n: the whole row.
        assert any(l.shape == (n,) for l in uses.lmads)

    def test_update_region_not_whole_array(self, prover):
        fun = _annotated(lambda b: (
            b.param("x", f32(n)),
            b.param("y", f32(2)),
            b.update_slice("x", [(0, 2, 1)], "y", name="x2"),
            b.returns("x2"),
        ))
        binds = self._bindings(fun)
        up = next(s for s in fun.body.stmts if isinstance(s.exp, A.Update))
        uses = collect_dst_uses(up, "x_mem", binds, prover)
        assert len(uses.lmads) == 1
        assert uses.lmads[0].shape[0].as_int() == 2


def _mk_map(b):
    mp = b.map_(n, index="i", names=["ys"])
    v = mp.index("x", [mp.idx])
    mp.returns(mp.binop("*", v, 2.0))
    return mp.end()[0]
