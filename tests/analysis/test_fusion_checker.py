"""Negative corpus for the fusion provenance checker (FU rules).

Compiles a real two-stage pipeline (so fusion actually commits and the
consumer carries a :class:`FusedRecord`), asserts the pristine fused
program is clean, then hand-breaks each obligation.
"""

import dataclasses

from repro.analysis import verify_fun
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir import ast as A
from repro.mem.memir import MEM_TYPE, iter_stmts
from repro.symbolic import SymExpr, Var

n = Var("n")


def _fused_fun() -> A.Fun:
    b = FunBuilder("pipe")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out)
    cf = compile_fun(b.build())
    assert cf.fuse_stats.committed == 1
    return cf.fun


def _fused_stmt(fun: A.Fun) -> A.Let:
    for stmt in iter_stmts(fun.body):
        if stmt.fused:
            return stmt
    raise AssertionError("no fused statement")


def test_pristine_fused_program_is_clean():
    report = verify_fun(_fused_fun())
    assert report.ok()
    assert not report.diagnostics


def test_fu01_surviving_elided_block():
    # Re-introduce an allocation of the block the record claims elided.
    fun = _fused_fun()
    stmt = _fused_stmt(fun)
    rec = stmt.fused[0]
    fun.body.stmts.insert(
        0,
        A.Let(
            pattern=[A.PatElem(rec.mem, MEM_TYPE)],
            exp=A.Alloc(SymExpr.var("n") * rec.elem_bytes, "f32"),
        ),
    )
    report = verify_fun(fun)
    assert "FU01" in [d.rule for d in report.diagnostics]
    assert report.errors


def test_fu02_write_set_drift():
    # A record promising a write to a block the kernel never touches.
    fun = _fused_fun()
    stmt = _fused_stmt(fun)
    rec = stmt.fused[0]
    stmt.fused = (
        dataclasses.replace(
            rec, write_mems=rec.write_mems + ("phantom_mem",)
        ),
    )
    report = verify_fun(fun)
    assert "FU02" in [d.rule for d in report.diagnostics]
    assert report.errors


def test_fu02_unrecorded_rehoming():
    # A later pass re-homes the consumer's destination without rewriting
    # the provenance record: the actual write set drifts from the promise.
    fun = _fused_fun()
    stmt = _fused_stmt(fun)
    rec = stmt.fused[0]
    stmt.fused = (dataclasses.replace(rec, write_mems=("stale_mem",)),)
    report = verify_fun(fun)
    assert "FU02" in [d.rule for d in report.diagnostics]
