"""Plan tables are keyed by ``id(stmt)``, and an id is unique only while
its statement lives: each table keeps every statement it has a plan for,
so a table that outlives one function never serves its plans to the next
(whose statements could otherwise land at the freed addresses)."""

import gc
import weakref

import numpy as np
import pytest

from repro.backend import NativeEngine, native_enabled
from repro.backend.engine import REJECTED
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir import ast as A
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.symbolic import Var

n = Var("n")
INPUTS = dict(n=5, X=np.arange(25, dtype=np.float32).reshape(5, 5))


def two_maps():
    """One map every tier takes, one (a reduce in its body) none does."""
    b = FunBuilder("two_maps")
    b.size_param("n")
    X = b.param("X", f32(n, n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(X, [mp.idx, mp.idx]), 2.0))
    (diag,) = mp.end()
    mp = b.map_(n, index="j")
    mp.returns(mp.reduce("+", mp.slice(X, [(mp.idx, 1, 1), (0, n, 1)])))
    (sums,) = mp.end()
    b.returns(diag, sums)
    return compile_fun(b.build(), cache=False).fun


def maps_of(fun):
    return [s for s in fun.body.stmts if isinstance(s.exp, A.Map)]


@pytest.mark.parametrize("tier", ["vectorized", "native"])
def test_no_plan_is_served_across_functions(tier):
    if tier == "native" and not native_enabled():
        pytest.skip("no C compiler")
    shared_vec = {}
    native = NativeEngine({}) if tier == "native" else None
    table = native.plans if native else shared_vec

    def run(fun):
        # Only the table under test outlives the run.
        vec_plans = shared_vec if native is None else {}
        ex = MemExecutor(fun, vec_plans=vec_plans, native=native)
        vals, stats = ex.run(**INPUTS)
        return [materialize(ex, v) for v in vals], stats.signature()

    first = two_maps()
    expected = run(first)
    assert len(table) == 2
    planned = [weakref.ref(s) for s in maps_of(first)]
    del first
    gc.collect()
    assert all(stmt() is not None for stmt in planned)  # the table holds them

    second = two_maps()  # same shape: the allocator offers freed addresses
    got = run(second)
    assert len(table) == 4
    maps = maps_of(second)
    if native is None:
        assert [table[id(s)].stmt for s in maps] == maps
        assert [table[id(s)].declined is None for s in maps] == [True, False]
    else:
        assert [table[id(s)] is REJECTED for s in maps] == [False, True]
    assert all(np.array_equal(a, b) for a, b in zip(got[0], expected[0]))
    assert got[1] == expected[1]
