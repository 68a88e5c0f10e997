"""Tests for the builder + reference interpreter (functional semantics)."""

import numpy as np
import pytest

from repro.ir import FunBuilder, f32, run_fun
from repro.ir.interp import InterpError
from repro.lmad import lmad
from repro.lmad.overlap import lmad_injective
from repro.symbolic import Var

n = Var("n")


class TestScalars:
    def test_lit_and_binop(self):
        b = FunBuilder("f")
        x = b.lit(2.0, "f32")
        y = b.binop("*", x, 3.0)
        b.returns(y)
        (out,) = run_fun(b.build())
        assert out == pytest.approx(6.0)

    def test_scalar_expr(self):
        b = FunBuilder("f")
        q = b.size_param("q")
        s = b.scalar(q * q + 1, name="s")
        b.returns("s")
        (out,) = run_fun(b.build(), q=5)
        assert out == 26

    def test_comparison_and_if(self):
        b = FunBuilder("f")
        q = b.size_param("q")
        c = b.binop("<", q, 10)
        ih = b.if_(c)
        t1 = ih.then_builder.lit(1.0)
        ih.then_builder.returns(t1)
        t2 = ih.else_builder.lit(2.0)
        ih.else_builder.returns(t2)
        (r,) = ih.end()
        b.returns(r)
        fun = b.build()
        assert run_fun(fun, q=5)[0] == pytest.approx(1.0)
        assert run_fun(fun, q=15)[0] == pytest.approx(2.0)

    def test_unops(self):
        b = FunBuilder("f")
        x = b.lit(4.0, "f64")
        s = b.unop("sqrt", x)
        e = b.unop("neg", s)
        b.returns(e)
        (out,) = run_fun(b.build())
        assert out == pytest.approx(-2.0)


class TestArrays:
    def test_iota(self):
        b = FunBuilder("f")
        q = b.size_param("q")
        x = b.iota(q)
        b.returns(x)
        (out,) = run_fun(b.build(), q=4)
        assert (out == np.arange(4)).all()

    def test_scratch_is_deterministic(self):
        b = FunBuilder("f")
        x = b.scratch("f32", [3, 3])
        b.returns(x)
        (out,) = run_fun(b.build())
        assert out.shape == (3, 3)

    def test_replicate(self):
        b = FunBuilder("f")
        x = b.replicate([4], 7.5)
        b.returns(x)
        (out,) = run_fun(b.build())
        assert (out == 7.5).all()

    def test_concat(self):
        b = FunBuilder("f")
        x = b.iota(3)
        y = b.iota(2)
        z = b.concat(x, y)
        b.returns(z)
        (out,) = run_fun(b.build())
        assert list(out) == [0, 1, 2, 0, 1]

    def test_copy_is_fresh(self):
        b = FunBuilder("f")
        A = b.param("A", f32(n))
        c = b.copy(A)
        b.returns(c)
        arr = np.ones(3, dtype=np.float32)
        (out,) = run_fun(b.build(), n=3, A=arr)
        out[0] = 5
        assert arr[0] == 1.0


class TestChangeOfLayout:
    def test_transpose(self):
        b = FunBuilder("f")
        A = b.param("A", f32(2, 3))
        t = b.transpose(A)
        b.returns(t)
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        (out,) = run_fun(b.build(), A=arr)
        assert (out == arr.T).all()

    def test_slice_triplet_negative_step(self):
        b = FunBuilder("f")
        A = b.param("A", f32(6))
        s = b.slice(A, [(5, 3, -2)])
        b.returns(s)
        arr = np.arange(6, dtype=np.float32)
        (out,) = run_fun(b.build(), A=arr)
        assert list(out) == [5, 3, 1]

    def test_lmad_slice_diagonal(self):
        b = FunBuilder("f")
        nn = b.size_param("n")
        A = b.param("A", f32(n * n))
        d = b.lmad_slice(A, lmad(0, [(n, n + 1)]))
        b.returns(d)
        arr = np.arange(16, dtype=np.float32)
        (out,) = run_fun(b.build(), n=4, A=arr)
        assert list(out) == [0, 5, 10, 15]

    def test_reshape_reverse(self):
        b = FunBuilder("f")
        A = b.param("A", f32(6))
        r = b.reshape(A, [2, 3])
        v = b.reverse(r, 1)
        b.returns(v)
        arr = np.arange(6, dtype=np.float32)
        (out,) = run_fun(b.build(), A=arr)
        assert (out == arr.reshape(2, 3)[:, ::-1]).all()

    def test_flatten(self):
        b = FunBuilder("f")
        A = b.param("A", f32(2, 3))
        f = b.flatten(A)
        b.returns(f)
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        (out,) = run_fun(b.build(), A=arr)
        assert (out == arr.reshape(-1)).all()

    def test_out_of_bounds_slice_raises(self):
        for lmad_slice in (False, True):
            b = FunBuilder("f")
            A = b.param("A", f32(4))
            if lmad_slice:
                s = b.lmad_slice(A, lmad(2, [(4, 1)]))  # offsets 2..5 of 4
            else:
                s = b.slice(A, [(2, 4, 1)])
            b.returns(s)
            with pytest.raises(InterpError, match="out of bounds"):
                run_fun(b.build(), A=np.zeros(4, dtype=np.float32))


class TestUpdates:
    def test_point_update(self):
        b = FunBuilder("f")
        A = b.param("A", f32(4))
        v = b.lit(9.0)
        A2 = b.update_point(A, [2], v)
        b.returns(A2)
        arr = np.zeros(4, dtype=np.float32)
        (out,) = run_fun(b.build(), A=arr)
        assert list(out) == [0, 0, 9, 0]
        assert arr[2] == 0  # functional semantics: input untouched

    def test_triplet_update(self):
        b = FunBuilder("f")
        A = b.param("A", f32(6))
        X = b.param("X", f32(3))
        A2 = b.update_slice(A, [(0, 3, 2)], X)
        b.returns(A2)
        arr = np.zeros(6, dtype=np.float32)
        x = np.array([1, 2, 3], dtype=np.float32)
        (out,) = run_fun(b.build(), A=arr, X=x)
        assert list(out) == [1, 0, 2, 0, 3, 0]

    def test_lmad_update_diagonal(self):
        b = FunBuilder("f")
        nn = b.size_param("n")
        A = b.param("A", f32(n * n))
        X = b.param("X", f32(n))
        A2 = b.update_lmad(A, lmad(0, [(n, n + 1)]), X)
        b.returns(A2)
        arr = np.zeros(9, dtype=np.float32)
        x = np.array([1, 2, 3], dtype=np.float32)
        (out,) = run_fun(b.build(), n=3, A=arr, X=x)
        assert (out.reshape(3, 3).diagonal() == x).all()

    def test_lmad_update_overlap_dynamic_check(self):
        """Paper section III-B: overlapping update points are rejected."""
        for dims in (
            [(4, 0)],  # stride 0: all points collide
            [(3, 2), (4, 1)],  # stride 2 under an inner span of 4
        ):
            shape = [d for d, _ in dims]
            b = FunBuilder("f")
            A = b.param("A", f32(16))
            X = b.param("X", f32(*shape))
            b.returns(b.update_lmad(A, lmad(0, dims), X))
            with pytest.raises(InterpError, match="overlapping points"):
                run_fun(b.build(), A=np.zeros(16, np.float32),
                        X=np.ones(shape, np.float32))

    def test_injective_update_is_accepted(self):
        """The static check implies the dynamic one: every in-bounds LMAD
        ``lmad_injective`` proves distinct is an update ``run_fun``
        performs, writing each value to its own point."""
        rng = np.random.RandomState(0)
        for _ in range(50):
            dims = [
                (int(rng.randint(1, 5)), int(rng.randint(-6, 7)))
                for _ in range(rng.randint(1, 3))
            ]
            l = lmad(int(rng.randint(0, 10)), dims)
            offsets = l.enumerate_offsets({})
            if min(offsets) < 0 or not lmad_injective(l):
                continue  # injectivity says distinct, not in-bounds
            shape = [d for d, _ in dims]
            b = FunBuilder("f")
            A = b.param("A", f32(max(offsets) + 1))
            X = b.param("X", f32(*shape))
            b.returns(b.update_lmad(A, l, X))
            x = rng.rand(*shape).astype(np.float32)
            (out,) = run_fun(
                b.build(), A=np.zeros(max(offsets) + 1, np.float32), X=x
            )
            assert (out[offsets] == x.reshape(-1)).all()


class TestCompound:
    def test_map_square(self):
        b = FunBuilder("f")
        A = b.param("A", f32(n))
        mp = b.map_(n, index="i")
        x = mp.index(A, [mp.idx])
        y = mp.binop("*", x, x)
        mp.returns(y)
        (X,) = mp.end()
        b.returns(X)
        arr = np.array([1, 2, 3], dtype=np.float32)
        (out,) = run_fun(b.build(), n=3, A=arr)
        assert list(out) == [1, 4, 9]

    def test_map_array_result(self):
        """Per-thread array results stack into a matrix (mapnest)."""
        b = FunBuilder("f")
        nn = b.size_param("n")
        mp = b.map_(n, index="i")
        row = mp.iota(n)
        mp.returns(row)
        (X,) = mp.end()
        b.returns(X)
        (out,) = run_fun(b.build(), n=3)
        assert out.shape == (3, 3)
        assert (out == np.tile(np.arange(3), (3, 1))).all()

    def test_map_multi_result(self):
        b = FunBuilder("f")
        A = b.param("A", f32(n))
        mp = b.map_(n, index="i")
        x = mp.index(A, [mp.idx])
        y = mp.binop("+", x, 1.0)
        z = mp.binop("*", x, 2.0)
        mp.returns(y, z)
        ys, zs = mp.end()
        b.returns(ys, zs)
        a, bb = run_fun(b.build(), n=2, A=np.array([1, 2], dtype=np.float32))
        assert list(a) == [2, 3] and list(bb) == [2, 4]

    def test_loop_factorial(self):
        """n! via loop, as in paper section II-C."""
        b = FunBuilder("f")
        q = b.size_param("q")
        acc0 = b.lit(1.0, "f64")
        lp = b.loop(count=q, carried=[("acc", acc0)], index="x")
        nxt = lp.scalar(lp.idx + 1)
        nxtf = lp.unop("f64", nxt)
        acc2 = lp.binop("*", lp["acc"], nxtf)
        lp.returns(acc2)
        (res,) = lp.end()
        b.returns(res)
        (out,) = run_fun(b.build(), q=5)
        assert out == pytest.approx(120.0)

    def test_loop_carrying_array(self):
        b = FunBuilder("f")
        A = b.param("A", f32(4))
        lp = b.loop(count=3, carried=[("Ac", A)], index="i")
        v = lp.index(lp["Ac"], [lp.idx])
        v2 = lp.binop("+", v, 1.0)
        A2 = lp.update_point(lp["Ac"], [lp.idx], v2)
        lp.returns(A2)
        (res,) = lp.end()
        b.returns(res)
        (out,) = run_fun(b.build(), A=np.zeros(4, dtype=np.float32))
        assert list(out) == [1, 1, 1, 0]

    def test_reduce_and_argmin(self):
        b = FunBuilder("f")
        A = b.param("A", f32(n))
        s = b.reduce("+", A)
        v, i = b.argmin(A)
        b.returns(s, v, i)
        arr = np.array([3.0, 1.0, 2.0], dtype=np.float32)
        s_, v_, i_ = run_fun(b.build(), n=3, A=arr)
        assert s_ == pytest.approx(6.0)
        assert v_ == pytest.approx(1.0)
        assert i_ == 1

    def test_nested_map_in_loop(self):
        b = FunBuilder("f")
        A = b.param("A", f32(4))
        lp = b.loop(count=2, carried=[("Ac", A)], index="t")
        mp = lp.map_(4, index="j")
        x = mp.index(lp["Ac"], [mp.idx])
        y = mp.binop("*", x, 2.0)
        mp.returns(y)
        (doubled,) = mp.end()
        lp.returns(doubled)
        (res,) = lp.end()
        b.returns(res)
        (out,) = run_fun(b.build(), A=np.ones(4, dtype=np.float32))
        assert (out == 4.0).all()
