"""Tests for the textual front end (repro.ir.parser)."""

import numpy as np
import pytest

from repro.bench.programs import all_benchmarks
from repro.ir import FunBuilder, run_fun, scalar
from repro.ir import ast as A
from repro.ir.parser import ParseError, parse_fun
from repro.ir.pretty import pretty_fun
from repro.ir.typecheck import typecheck_fun
from repro.ir.types import ScalarType
from repro.symbolic import Var


class TestBasics:
    def test_minimal_fun(self):
        fun = parse_fun("fun f(x : [n]f32) = let (y : *[n]f32) = copy x in (y)")
        assert fun.name == "f"
        assert isinstance(fun.body.stmts[0].exp, A.Copy)
        typecheck_fun(fun)

    def test_types(self):
        fun = parse_fun(
            "fun f(a : i64, b : [n][m]f64, c : *[n^2]f32) =\n"
            "  let (y : *[n][m]f64) = copy b in (y)"
        )
        assert fun.params[0].type.dtype == "i64"
        assert fun.params[1].type.rank == 2
        assert fun.params[2].type.unique
        assert fun.params[2].type.shape[0] == Var("n") * Var("n")

    def test_scalar_polynomial(self):
        fun = parse_fun(
            "fun f(q : i64) = let (s : i64) = q^2 + 2*q - 1 in (s)"
        )
        (out,) = run_fun(fun, q=5)
        assert out == 34

    def test_literals(self):
        fun = parse_fun(
            "fun f() =\n"
            "  let (a : f32) = 2.5f32\n"
            "  let (b : bool) = truebool\n"
            "  in (a, b)"
        )
        a, b = run_fun(fun)
        assert float(a) == 2.5 and b is np.True_ or b is True

    def test_binop_floats(self):
        fun = parse_fun(
            "fun f(x : f32) =\n"
            "  let (y : f32) = x * 3.0\n"
            "  let (z : f32) = y max 1.0\n"
            "  in (z)"
        )
        (z,) = run_fun(fun, x=np.float32(2.0))
        assert float(z) == 6.0

    def test_unop(self):
        fun = parse_fun(
            "fun f(x : f64) = let (y : f64) = sqrt x in (y)"
        )
        (y,) = run_fun(fun, x=np.float64(9.0))
        assert float(y) == 3.0

    def test_parse_error_reports(self):
        with pytest.raises(ParseError):
            parse_fun("fun f( = let")


class TestOperatorTable:
    """The parser's operator names are ``repro.ir.scalar``'s."""

    @staticmethod
    def _fun(op):
        b = FunBuilder("f")
        x, y = b.param("x", ScalarType("f32")), b.param("y", ScalarType("f32"))
        b.returns(b.binop(op, x, y) if op in scalar.BINARY else b.unop(op, x))
        return b.build()

    @pytest.mark.parametrize("op", sorted(scalar.OPS))
    def test_every_operator_round_trips(self, op):
        text = pretty_fun(self._fun(op))
        parsed = parse_fun(text)
        assert pretty_fun(parsed) == text
        assert parsed.body.stmts[0].exp == self._fun(op).body.stmts[0].exp
        typecheck_fun(parsed)

    @pytest.mark.parametrize("exp,unknown", [("x mod y", "mod"), ("cbrt x", "cbrt")])
    def test_unknown_operator_is_rejected_with_the_tables_list(self, exp, unknown):
        with pytest.raises(ParseError, match=f"unknown operator '{unknown}'") as e:
            parse_fun(f"fun f(x : f32, y : f32) = let (z : f32) = {exp} in (z)")
        assert all(f" {op}" in str(e.value) for op in scalar.OPS)


class TestArrays:
    def test_index_and_slices(self):
        fun = parse_fun(
            "fun f(x : [n][m]f32) =\n"
            "  let (v : f32) = x[1, 2]\n"
            "  let (s : [2][m]f32) = x[0:2:1, 0:m:1]\n"
            "  let (c : *[2][m]f32) = copy s\n"
            "  in (c, v)"
        )
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        c, v = run_fun(fun, x=arr)
        assert v == arr[1, 2]
        assert (c == arr[0:2]).all()

    def test_lmad_slice(self):
        fun = parse_fun(
            "fun f(x : [n^2]f32) =\n"
            "  let (d : [n]f32) = x[0 + {(n : n + 1)}]\n"
            "  let (c : *[n]f32) = copy d\n"
            "  in (c)"
        )
        arr = np.arange(16, dtype=np.float32)
        (c,) = run_fun(fun, x=arr, n=4)
        assert list(c) == [0, 5, 10, 15]

    def test_update_with_lmad(self):
        fun = parse_fun(
            "fun f(x : [n^2]f32, v : [n]f32) =\n"
            "  let (y : *[n^2]f32) = x with [0 + {(n : n + 1)}] = v\n"
            "  in (y)"
        )
        arr = np.zeros(9, dtype=np.float32)
        (y,) = run_fun(fun, x=arr, v=np.ones(3, dtype=np.float32), n=3)
        assert y.reshape(3, 3).trace() == 3.0

    def test_layout_ops(self):
        fun = parse_fun(
            "fun f(x : [a][b]f32) =\n"
            "  let (t : [b][a]f32) = rearrange (1, 0) x\n"
            "  let (r : [b][a]f32) = reverse@0 t\n"
            "  let (s : [a*b]f32) = reshape [a*b] r\n"
            "  let (c : *[a*b]f32) = copy s\n"
            "  in (c)"
        )
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        (c,) = run_fun(fun, x=arr)
        assert (c == arr.T[::-1].reshape(-1)).all()

    def test_constructors(self):
        fun = parse_fun(
            "fun f() =\n"
            "  let (i : [5]i64) = iota 5\n"
            "  let (z : *[2][3]f32) = scratch [2, 3] f32\n"
            "  let (r : *[4]f32) = replicate [4] 7.5\n"
            "  in (i, r)"
        )
        i, r = run_fun(fun)
        assert list(i) == [0, 1, 2, 3, 4]
        assert (r == 7.5).all()

    def test_reduce_argmin(self):
        fun = parse_fun(
            "fun f(x : [n]f32) =\n"
            "  let (s : f32) = reduce (+) x\n"
            "  let (v : f32, ix : i64) = argmin x\n"
            "  in (s, v, ix)"
        )
        s, v, ix = run_fun(fun, x=np.array([3, 1, 2], dtype=np.float32))
        assert s == 6.0 and v == 1.0 and ix == 1


class TestCompound:
    def test_map(self):
        fun = parse_fun(
            "fun f(x : [n]f32) =\n"
            "  let (y : *[n]f32) =\n"
            "    map (i < n) {\n"
            "      let (v : f32) = x[i]\n"
            "      let (w : f32) = v * 2.0\n"
            "      in (w)\n"
            "    }\n"
            "  in (y)"
        )
        (y,) = run_fun(fun, x=np.arange(3, dtype=np.float32))
        assert list(y) == [0, 2, 4]

    def test_loop(self):
        fun = parse_fun(
            "fun f(q : i64) =\n"
            "  let (acc0 : f64) = 1.0f64\n"
            "  let (r : f64) =\n"
            "    loop (acc = acc0) for x < q do {\n"
            "      let (k : i64) = x + 1\n"
            "      let (kf : f64) = f64 k\n"
            "      let (acc2 : f64) = acc * kf\n"
            "      in (acc2)\n"
            "    }\n"
            "  in (r)"
        )
        (r,) = run_fun(fun, q=5)
        assert float(r) == 120.0

    def test_if(self):
        fun = parse_fun(
            "fun f(q : i64) =\n"
            "  let (c : bool) = q < 10\n"
            "  let (r : f32) =\n"
            "    if c then {\n"
            "      let (a : f32) = 1.0f32\n"
            "      in (a)\n"
            "    } else {\n"
            "      let (b : f32) = 2.0f32\n"
            "      in (b)\n"
            "    }\n"
            "  in (r)"
        )
        assert float(run_fun(fun, q=5)[0]) == 1.0
        assert float(run_fun(fun, q=15)[0]) == 2.0


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(all_benchmarks()))
    def test_benchmark_roundtrip(self, name):
        """pretty -> parse -> pretty is a fixpoint for every benchmark,
        and the re-parsed program computes the same values."""
        mod = all_benchmarks()[name]
        fun = mod.build()
        text = pretty_fun(fun)
        parsed = parse_fun(text)
        text2 = pretty_fun(parsed)
        assert text2 == pretty_fun(parse_fun(text2))
        args = mod.TEST_DATASETS["tiny"]
        inp = mod.inputs_for(*args)

        def run(f):
            return run_fun(
                f,
                **{
                    k: (v.copy() if hasattr(v, "copy") else v)
                    for k, v in inp.items()
                },
            )

        for a, b in zip(run(fun), run(parsed)):
            assert np.allclose(
                np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            )

    def test_annotations_are_discarded(self):
        """Pretty output of a *memory-annotated* program parses back to the
        plain source (the add-on property of paper section I)."""
        from repro.compiler import compile_fun
        from repro.bench.programs import nw

        fun = nw.build()
        compiled = compile_fun(fun)
        text = pretty_fun(compiled.fun)
        assert "@" in text  # annotations are printed...
        parsed = parse_fun(text)
        for stmt in parsed.body.stmts:
            for pe in stmt.pattern:
                assert pe.mem is None  # ...but not parsed back
