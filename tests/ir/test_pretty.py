"""Golden tests for the pretty-printer."""

from dataclasses import fields, replace

import pytest

from repro import FunBuilder, compile_fun, f32, pretty_fun
from repro.bench.programs import all_benchmarks
from repro.ir import ast as A
from repro.ir.lastuse import analyze_last_uses
from repro.ir.parser import parse_fun
from repro.lmad import lmad
from repro.mem.memir import clone_fun, iter_stmts
from repro.pipeline import PRESETS
from repro.symbolic import Var

n = Var("n")


def test_golden_simple_program():
    b = FunBuilder("f")
    b.size_param("n")
    A = b.param("A", f32(n * n))
    diag = b.lmad_slice(A, lmad(0, [(n, n + 1)]), name="diag")
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx], name="d")
    s = mp.binop("+", d, 1.0, name="s")
    mp.returns(s)
    (X,) = mp.end()
    A2 = b.update_lmad(A, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    fun = b.build()
    expected = """\
fun f(n : i64, A : [n^2]f32) =
  let (diag : [n]f32) = A[0 + {(n : n + 1)}]
  let (t_1 : *[n]f32) =
    map (i < n) {
      let (d : f32) = diag[i]
      let (s : f32) = d + 1.0
      in (s)
    }
  let (A2 : *[n^2]f32) = A with [0 + {(n : n + 1)}] = t_1
  in (A2)"""
    assert pretty_fun(fun) == expected


def test_annotations_and_last_uses_render():
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    c = b.copy(x, name="c")
    b.returns(c)
    fun = b.build()
    compiled = compile_fun(fun, pipeline="nosc")
    analyze_last_uses(compiled.fun)
    text = pretty_fun(compiled.fun)
    assert "alloc" in text
    assert "@ mem" in text  # the memory binding add-on
    assert "-- last use" in text


def test_all_expression_forms_render():
    """Every expression kind has a printable form (no <...> fallbacks)."""
    b = FunBuilder("f")
    x = b.param("x", f32(4, 4))
    y = b.param("y", f32(4))
    b.iota(4, name="i0")
    b.scratch("f32", [4], name="s0")
    b.replicate([4], 1.0, name="r0")
    cp = b.copy(y, name="c0")
    b.concat("c0", "r0", name="cc")
    b.index(x, [0, 0], name="v0")
    b.slice(x, [(0, 2, 1), (0, 2, 1)], name="sl")
    b.transpose(x, name="tr")
    b.reshape(x, [16], name="rs")
    b.reverse(y, 0, name="rv")
    b.update_point("s0", [0], 1.0, name="u0")
    b.reduce("+", y, name="rd")
    b.argmin(y, names=("am", "ai"))
    b.binop("<", "rd", 1.0, name="cond")
    ih = b.if_(("cond"))
    t = ih.then_builder.lit(1.0)
    ih.then_builder.returns(t)
    e = ih.else_builder.lit(2.0)
    ih.else_builder.returns(e)
    ih.end()
    b.returns("cc")
    text = pretty_fun(b.build())
    assert "<" not in text.replace("(i <", "").replace("x <", "") or "<Exp" not in text
    for needle in (
        "iota 4", "scratch [4] f32", "replicate [4] 1.0", "copy y",
        "concat c0 r0", "x[0, 0]", "x[0:2:1, 0:2:1]", "rearrange (1, 0) x",
        "reshape [16] x", "reverse@0 y", "with [0] = 1.0", "reduce (+) y",
        "argmin y", "if cond then",
    ):
        assert needle in text, needle


# ----------------------------------------------------------------------
# pretty_fun is the byte-equality oracle: it must see every annotation
# ----------------------------------------------------------------------
def _lud():
    """lud under ``full`` carries all five annotation kinds."""
    return clone_fun(compile_fun(all_benchmarks()["lud"].build()).fun)


def _first(fun, pred):
    return next(s for s in iter_stmts(fun.body) if pred(s))


def test_loop_parameter_bindings_are_printed():
    fun = _lud()
    before = pretty_fun(fun)
    loop = _first(fun, lambda s: isinstance(s.exp, A.Loop)).exp
    prm = next(p for p, _ in loop.carried if p.mem is not None)
    assert f"{prm.name} @ {prm.mem} = " in before
    prm.mem = prm.mem.with_ixfn(prm.mem.ixfn.reverse(0))
    assert pretty_fun(fun) != before


def test_mem_frees_are_printed():
    fun = _lud()
    before = pretty_fun(fun)
    stmt = _first(fun, lambda s: s.mem_frees)
    assert "  -- frees: " + ", ".join(stmt.mem_frees) in before
    stmt.mem_frees = stmt.mem_frees[1:]
    assert pretty_fun(fun) != before


def test_every_field_of_a_fused_record_is_printed():
    fun = _lud()
    before = pretty_fun(fun)
    stmt = _first(fun, lambda s: s.fused)
    assert "  -- fused: producer=" in before
    rec = stmt.fused[0]
    other = {
        str: lambda v: v + "_x", int: lambda v: v + 1, bool: lambda v: not v,
        tuple: lambda v: v + ("x",),
    }
    for f in fields(rec):
        old = getattr(rec, f.name)
        new = old + 1 if f.name == "width" else other[type(old)](old)
        stmt.fused = (replace(rec, **{f.name: new}),) + stmt.fused[1:]
        assert pretty_fun(fun) != before, f.name
    stmt.fused = (rec,) + stmt.fused[1:]
    assert pretty_fun(fun) == before


@pytest.mark.parametrize("name", sorted(all_benchmarks()))
def test_compiled_ir_reparses_under_every_preset(name):
    """The parser discards what the printer adds: annotations on patterns
    and loop parameters, and the trailing ``--`` comments."""
    source = all_benchmarks()[name].build()
    for preset in PRESETS:
        fun = compile_fun(source, pipeline=preset).fun
        again = parse_fun(pretty_fun(fun))
        assert [p.name for p in again.params] == [p.name for p in fun.params]
        assert sum(1 for _ in iter_stmts(again.body)) == sum(
            1 for _ in iter_stmts(fun.body)
        )
        assert all(
            pe.mem is None and not s.mem_frees and not s.fused
            for s in iter_stmts(again.body)
            for pe in s.pattern
        )
