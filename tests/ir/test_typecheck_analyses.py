"""Tests for the type checker, alias analysis and last-use analysis."""

import pytest

from repro.ir import (
    FunBuilder,
    analyze_aliases,
    analyze_last_uses,
    f32,
    TypeError_,
)
from repro.ir import ast as A
from repro.ir import scalar
from repro.ir.parser import parse_fun
from repro.ir.typecheck import typecheck_fun
from repro.ir.types import ScalarType
from repro.lmad import lmad
from repro.symbolic import Var

n = Var("n")


def _diag_fun():
    """Fig. 1 (left): two LMAD slices, a map, and a diagonal update."""
    b = FunBuilder("diag")
    b.size_param("n")
    Aname = b.param("A", f32(n * n))
    diag = b.lmad_slice(Aname, lmad(0, [(n, n + 1)]), name="diag")
    row0 = b.lmad_slice(Aname, lmad(0, [(n, 1)]), name="row0")
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx])
    r = mp.index(row0, [mp.idx])
    s = mp.binop("+", d, r)
    mp.returns(s)
    (X,) = mp.end()
    A2 = b.update_lmad(Aname, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    return b.build(), X


class TestTypecheck:
    def test_valid_program_passes(self):
        fun, _ = _diag_fun()
        assert typecheck_fun(fun)  # returns result types

    def test_unbound_variable_rejected(self):
        b = FunBuilder("f")
        with pytest.raises((TypeError_, KeyError)):
            b.index("nope", [0])

    def test_rank_mismatch_rejected(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(n, n))
        with pytest.raises(TypeError_):
            b.index(Aname, [0])  # rank-2 array, one index

    def test_lmad_slice_needs_rank1(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(n, n))
        with pytest.raises(TypeError_):
            b.lmad_slice(Aname, lmad(0, [(n, 1)]))

    def test_bad_permutation_rejected(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(n, n))
        with pytest.raises(TypeError_):
            b.rearrange(Aname, (0, 0))

    def test_use_after_consume_rejected(self):
        """The uniqueness discipline of paper section II-C."""
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        v = b.lit(1.0)
        b.update_point(Aname, [0], v, name="A2")
        # Using the *old* A after the update is an error.
        b.index(Aname, [1], name="bad")
        b.returns("bad")
        with pytest.raises(TypeError_):
            b.build()

    def test_alias_use_after_consume_rejected(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        s = b.slice(Aname, [(0, 2, 1)], name="s")  # aliases A
        v = b.lit(1.0)
        b.update_point(Aname, [0], v, name="A2")
        b.index(s, [0], name="bad")  # s aliases the consumed A
        b.returns("bad")
        with pytest.raises(TypeError_):
            b.build()

    def test_update_result_usable(self):
        fun, _ = _diag_fun()  # returns A2, derived from consumed A
        typecheck_fun(fun)

    def test_derived_from_update_result_usable(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        v = b.lit(1.0)
        A2 = b.update_point(Aname, [0], v, name="A2")
        s = b.slice(A2, [(0, 2, 1)], name="s2")
        x = b.index(s, [0])
        b.returns(x)
        b.build()  # must not raise

    def test_if_branch_arity_checked(self):
        b = FunBuilder("f")
        c = b.binop("<", 1, 2)
        ih = b.if_(c)
        x = ih.then_builder.lit(1.0)
        ih.then_builder.returns(x)
        y1 = ih.else_builder.lit(1.0)
        y2 = ih.else_builder.lit(2.0)
        ih.else_builder.returns(y1, y2)
        with pytest.raises(TypeError_):
            ih.end()

    def test_a_let_may_not_rebind_a_name_in_scope(self):
        b = FunBuilder("f")
        b.size_param("n")
        mp = b.map_(n, index="i")
        mp.lit(1.0, name="x")
        mp.lit(2.0, name="x")  # rebinds x in the map body
        mp.returns("x")
        with pytest.raises(TypeError_, match="'x' is already bound"):
            mp.end()
        b.lit(1.0, name="y")
        b.lit(2.0, name="y")
        b.returns("y")
        with pytest.raises(TypeError_, match="'y' is already bound"):
            b.build()

    def test_a_parsed_rebinding_is_renamed_not_rejected(self):
        fun = parse_fun(SHADOWS)
        typecheck_fun(fun)
        top = fun.body.stmts
        mp = top[1].exp
        assert [s.names for s in top] == [("k",), ("ys",), ("k_2",)]
        assert mp.lam.params == ("k_1",)  # the thread index, renamed
        assert [s.names for s in mp.lam.body.stmts] == [("x",), ("x_1",)]
        assert mp.lam.body.stmts[1].exp.x == "x"  # reads the first x
        assert mp.lam.body.result == ("x_1",)
        assert top[2].exp.expr == Var("k") * 2
        assert fun.body.result == ("ys", "k_2")
        # A binder that shadows is rejected like a let that does.
        top[1].exp = A.Map(n, A.Lambda(("k",), mp.lam.body))
        with pytest.raises(TypeError_, match="'k' is already bound"):
            typecheck_fun(fun)


SHADOWS = """
fun f(n : i64) =
  let (k : i64) = n + 1
  let (ys : *[n]f32) = map (k < n) {
    let (x : f32) = 1.0f32
    let (x : f32) = x * 2.0
    in (x)
  }
  let (k : i64) = k * 2
  in (ys, k)
"""


class TestOperatorTable:
    """The typechecker's operator classes are ``repro.ir.scalar``'s."""

    @pytest.mark.parametrize("op", sorted(scalar.OPS))
    def test_every_operator_is_accepted(self, op):
        b = FunBuilder("f")
        x = b.param("x", ScalarType("f32"))
        r = b.binop(op, x, 2.0) if op in scalar.BINARY else b.unop(op, x)
        b.returns(r)
        (t,) = typecheck_fun(b.build())
        cls = scalar.OPS[op].cls
        assert t.dtype == (
            "bool" if cls in ("comparison", "logical")
            else op if cls == "conversion" else "f32"
        )

    def test_unknown_operators_are_rejected_with_the_tables_list(self):
        b = FunBuilder("f")
        x = b.param("x", ScalarType("f32"))
        xs = b.param("xs", f32(n))
        for build, known in (
            (lambda: b.binop("mod", x, x), scalar.BINARY),
            (lambda: b.unop("cbrt", x), scalar.UNARY),
            (lambda: b.reduce("*", xs), scalar.REDUCTIONS),
        ):
            with pytest.raises(TypeError_, match="unknown .* op") as e:
                build()
            assert all(f" {op}" in str(e.value) for op in known)


class TestAliases:
    def test_slices_alias_source(self):
        fun, _ = _diag_fun()
        info = analyze_aliases(fun)
        assert "A" in info.closure("diag")
        assert "A" in info.closure("row0")
        assert "row0" in info.closure("diag")  # transitively through A

    def test_update_result_aliases_source(self):
        fun, _ = _diag_fun()
        info = analyze_aliases(fun)
        assert "A" in info.closure("A2")

    def test_map_result_is_fresh(self):
        fun, X = _diag_fun()
        info = analyze_aliases(fun)
        assert "A" not in info.closure(X)

    def test_copy_is_fresh(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        c = b.copy(Aname, name="c")
        b.returns(c)
        info = analyze_aliases(b.build())
        assert "A" not in info.closure("c")

    def test_if_result_aliases_branches(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        Bname = b.param("B", f32(4))
        c = b.binop("<", 1, 2)
        ih = b.if_(c)
        s1 = ih.then_builder.slice(Aname, [(0, 4, 1)], name="s1")
        ih.then_builder.returns(s1)
        s2 = ih.else_builder.slice(Bname, [(0, 4, 1)], name="s2")
        ih.else_builder.returns(s2)
        (r,) = ih.end()
        b.returns(r)
        info = analyze_aliases(b.build())
        assert "A" in info.closure(r)
        assert "B" in info.closure(r)

    def test_loop_result_aliases_init(self):
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        lp = b.loop(count=2, carried=[("Ac", Aname)], index="i")
        v = lp.lit(1.0)
        A2 = lp.update_point(lp["Ac"], [lp.idx], v)
        lp.returns(A2)
        (res,) = lp.end()
        b.returns(res)
        info = analyze_aliases(b.build())
        assert "A" in info.closure(res)


class TestLastUse:
    def test_x_lastly_used_at_update(self):
        """The circuit-point precondition: X is dead at `A[W] = X`."""
        fun, X = _diag_fun()
        analyze_last_uses(fun)
        update_stmt = fun.body.stmts[-1]
        assert isinstance(update_stmt.exp, A.Update)
        assert X in update_stmt.last_uses

    def test_aliased_source_not_lastly_used_early(self):
        """diag aliases A, and A is used later, so reading diag inside the
        map is not a last use of diag."""
        fun, _ = _diag_fun()
        analyze_last_uses(fun)
        map_stmt = fun.body.stmts[2]
        assert isinstance(map_stmt.exp, A.Map)
        body = map_stmt.exp.lam.body
        reads = [s for s in body.stmts if isinstance(s.exp, A.Index)]
        for r in reads:
            assert r.exp.src not in r.last_uses

    def test_free_vars_live_inside_loop(self):
        """A variable used only inside a loop body is not last-used there
        (the next iteration will read it again)."""
        b = FunBuilder("f")
        Aname = b.param("A", f32(4))
        Bname = b.param("B", f32(4))
        acc0 = b.lit(0.0)
        lp = b.loop(count=3, carried=[("acc", acc0)], index="i")
        x = lp.index(Bname, [lp.idx])  # B free in body
        acc2 = lp.binop("+", lp["acc"], x)
        lp.returns(acc2)
        (res,) = lp.end()
        b.returns(res)
        fun = b.build()
        analyze_last_uses(fun)
        loop_stmt = fun.body.stmts[-1]
        body = loop_stmt.exp.body
        read = body.stmts[0]
        assert "B" not in read.last_uses

    def test_local_binding_lastly_used_in_body(self):
        b = FunBuilder("f")
        b.size_param("n")
        mp = b.map_(n, index="i")
        local = mp.iota(n, name="local")
        s = mp.reduce("+", local)
        mp.returns(s)
        (X,) = mp.end()
        b.returns(X)
        fun = b.build()
        analyze_last_uses(fun)
        body = fun.body.stmts[0].exp.lam.body
        reduce_stmt = body.stmts[-1]
        assert "local" in reduce_stmt.last_uses
