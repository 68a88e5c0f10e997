"""The executor's debug shadow memory (bounds + poison tracking)."""

import numpy as np
import pytest

from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.lmad import IndexFn, lmad
from repro.mem.exec import (
    MemExecutor,
    OutOfBoundsError,
    UninitializedReadError,
)
from repro.mem.memir import MemBinding, binding_of, iter_stmts
from repro.ir import ast as A
from repro.symbolic import SymExpr, Var

n = Var("n")


def _double_map():
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (X,) = mp.end()
    b.returns(X)
    return b.build()


def _map_pat(fun):
    for stmt in iter_stmts(fun.body):
        if isinstance(stmt.exp, A.Map):
            return stmt.pattern[0]
    raise AssertionError


def test_debug_mode_matches_normal_execution():
    fun = compile_fun(_double_map()).fun
    x = np.arange(8, dtype=np.float32)
    plain = MemExecutor(fun)
    vplain, _ = plain.run(x=x.copy())
    dbg = MemExecutor(fun, debug=True)
    vdbg, _ = dbg.run(x=x.copy())
    got_p = plain.mem[vplain[0].mem][vplain[0].ixfn.gather_offsets({})]
    got_d = dbg.mem[vdbg[0].mem][vdbg[0].ixfn.gather_offsets({})]
    assert np.array_equal(got_p, got_d)
    assert np.array_equal(got_d, x * 2)


def test_dry_debug_runs_bounds_only():
    # Dry mode has no data to shadow, but debug=True still bounds-checks
    # every region analytically; a clean program passes.
    fun = compile_fun(_double_map()).fun
    MemExecutor(fun, mode="dry", debug=True).run(n=1 << 20)


def test_dry_debug_negative_offset_is_out_of_bounds():
    # The analytic bounds check works at paper-scale extents where real
    # shadow memory would be prohibitive.
    fun = compile_fun(_double_map(), pipeline="nosc").fun
    pe = _map_pat(fun)
    b = binding_of(pe)
    pe.mem = MemBinding(b.mem, IndexFn((lmad(-1, [(SymExpr.var("n"), 1)]),)))
    MemExecutor(fun, mode="dry").run(n=1 << 24)  # unnoticed without debug
    with pytest.raises(OutOfBoundsError):
        MemExecutor(fun, mode="dry", debug=True).run(n=1 << 24)


def test_dry_debug_offset_past_end_is_out_of_bounds():
    fun = compile_fun(_double_map(), pipeline="nosc").fun
    pe = _map_pat(fun)
    b = binding_of(pe)
    pe.mem = MemBinding(b.mem, IndexFn((lmad(1, [(SymExpr.var("n"), 1)]),)))
    with pytest.raises(OutOfBoundsError):
        MemExecutor(fun, mode="dry", debug=True).run(n=1 << 24)


def test_dry_debug_copy_region_checked():
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    c = b.copy(x)
    b.returns(c)
    fun = compile_fun(b.build(), pipeline="nosc").fun
    for stmt in iter_stmts(fun.body):
        if isinstance(stmt.exp, A.Copy):
            pe = stmt.pattern[0]
            bd = binding_of(pe)
            pe.mem = MemBinding(
                bd.mem, IndexFn((lmad(1, [(SymExpr.var("n"), 1)]),))
            )
            break
    else:
        raise AssertionError("no copy survived")
    with pytest.raises(OutOfBoundsError):
        MemExecutor(fun, mode="dry", debug=True).run(n=1 << 24)


def test_negative_offset_is_out_of_bounds():
    # NumPy silently wraps buf[-1]; the shadow memory must not.
    fun = compile_fun(_double_map(), pipeline="nosc").fun
    pe = _map_pat(fun)
    b = binding_of(pe)
    pe.mem = MemBinding(b.mem, IndexFn((lmad(-1, [(SymExpr.var("n"), 1)]),)))
    x = np.arange(4, dtype=np.float32)
    # Without debug the wraparound goes unnoticed...
    MemExecutor(fun).run(x=x.copy())
    # ...with debug it is an error.
    with pytest.raises(OutOfBoundsError):
        MemExecutor(fun, debug=True).run(x=x.copy())


def test_offset_past_end_is_out_of_bounds():
    fun = compile_fun(_double_map(), pipeline="nosc").fun
    pe = _map_pat(fun)
    b = binding_of(pe)
    pe.mem = MemBinding(b.mem, IndexFn((lmad(1, [(SymExpr.var("n"), 1)]),)))
    with pytest.raises(OutOfBoundsError):
        MemExecutor(fun, debug=True).run(x=np.arange(4, dtype=np.float32))


def test_scratch_read_is_uninitialized():
    b = FunBuilder("f")
    b.param("x", f32(n))
    s = b.scratch("f32", [n])
    v = b.index(s, [0])
    b.returns(v)
    fun = compile_fun(b.build(), pipeline="nosc").fun
    x = np.arange(4, dtype=np.float32)
    MemExecutor(fun).run(x=x.copy())  # deterministic zeros without debug
    with pytest.raises(UninitializedReadError):
        MemExecutor(fun, debug=True).run(x=x.copy())


def test_copy_propagates_poison_instead_of_raising():
    # Copying a scratch buffer is legal; only the scalar read of the
    # copied poison is an error (valgrind semantics).
    b = FunBuilder("f")
    b.param("x", f32(n))
    s = b.scratch("f32", [n])
    c = b.copy(s)
    v = b.index(c, [0])
    b.returns(v)
    fun = compile_fun(b.build(), pipeline="nosc").fun
    with pytest.raises(UninitializedReadError):
        MemExecutor(fun, debug=True).run(x=np.arange(4, dtype=np.float32))


def test_initialized_data_flows_through_copies():
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    c = b.copy(x)
    v = b.index(c, [1])
    b.returns(v)
    fun = compile_fun(b.build()).fun
    vals, _ = MemExecutor(fun, debug=True).run(
        x=np.arange(4, dtype=np.float32)
    )
    assert vals[0] == 1.0
