"""LMAD / index-function to relation conversions, against ground truth.

``IndexFn.gather_offsets`` is the executor's concrete addressing and
therefore the ground truth: for every index function a benchmark kernel
actually carries after optimization, the access relation built by the
bridge must classify exactly the (index tuple, address) pairs that
``gather_offsets`` produces.
"""

import numpy as np
import pytest

from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.isl.bridge import (
    ixfn_to_relation,
    lift_parameters,
    lmad_to_relation,
    overlap_set,
    slice_box_difference,
)
from repro.isl.emptiness import Verdict, basic_empty
from repro.isl.terms import BasicSet, Constraint
from repro.lmad import IndexFn
from repro.lmad.lmad import Lmad, LmadDim
from repro.ir import ast as A
from repro.mem.memir import binding_of, iter_stmts
from repro.symbolic import Context, Prover, SymExpr, sym

BENCHMARKS = all_benchmarks()

#: Round-trip enumeration caps: skip concrete instances larger than this
#: (the point of the test is exactness, not scale).
MAX_POINTS = 512


def _benchmark_ixfns(name):
    """Every index function installed on the optimized kernel's bindings."""
    fun = compile_fun(BENCHMARKS[name].build()).fun
    seen = set()
    for stmt in iter_stmts(fun.body):
        for pe in stmt.pattern:
            if getattr(pe, "ixfn", None) is not None:
                seen.add(pe.ixfn)
        if isinstance(stmt.exp, A.Loop):
            for prm, _init in stmt.exp.carried:
                if binding_of(prm) is not None:
                    seen.add(binding_of(prm).ixfn)
    return sorted(seen, key=str)


def _env_for(name, ixfn):
    """Concrete values: tiny-dataset scalars, small values for indices."""
    mod = BENCHMARKS[name]
    inp = mod.inputs_for(*mod.TEST_DATASETS["tiny"])
    env = {
        k: int(v) for k, v in inp.items() if isinstance(v, (int, np.integer))
    }
    for v in sorted(ixfn.free_vars()):
        env.setdefault(v, 1)
    return env


def _concrete_shape(ixfn, env):
    try:
        dims = [int(sym(e).evaluate(env)) for e in ixfn.shape]
    except Exception:
        return None
    if any(d <= 0 for d in dims) or int(np.prod(dims)) > MAX_POINTS:
        return None
    return tuple(dims)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_ixfn_relation_round_trip(name):
    ixfns = _benchmark_ixfns(name)
    assert ixfns, name
    validated = 0
    for ixfn in ixfns:
        env = _env_for(name, ixfn)
        shape = _concrete_shape(ixfn, env)
        if shape is None:
            continue
        offs = ixfn.gather_offsets(env)
        single = ixfn.as_single()
        if single is None:
            continue
        rel = lmad_to_relation(single).as_set()
        for idx in np.ndindex(*shape):
            addr = int(offs[idx])
            assert rel.contains_point(tuple(idx) + (addr,), env), (
                name, str(ixfn), idx, addr,
            )
            assert not rel.contains_point(tuple(idx) + (addr + 1,), env)
        validated += 1
    assert validated > 0, (name, [str(i) for i in ixfns])


def test_composed_ixfn_relation_matches_unranking():
    """A two-LMAD composition: the relation's address set must equal the
    executor's unravel-then-stride ground truth."""
    inner = Lmad(sym(0), (LmadDim(sym(6), sym(1)),))
    outer = Lmad(
        sym(2), (LmadDim(sym(2), sym(10)), LmadDim(sym(3), sym(1)))
    )
    ixfn = IndexFn((outer, inner))
    assert ixfn.as_single() is None
    truth = set(int(a) for a in ixfn.gather_offsets({}).ravel())
    rel = ixfn_to_relation(ixfn)
    img = rel.range()
    for addr in range(-1, 30):
        assert img.contains_point((addr,), exist_bound=8) == (
            addr in truth
        ), addr


def test_overlap_set_reflects_shared_addresses():
    p = Prover(Context())
    evens = Lmad(sym(0), (LmadDim(sym(4), sym(2)),))  # {0,2,4,6}
    odds = Lmad(sym(1), (LmadDim(sym(4), sym(2)),))  # {1,3,5,7}
    low = Lmad(sym(0), (LmadDim(sym(3), sym(1)),))  # {0,1,2}
    assert basic_empty(overlap_set(evens, odds), p) is Verdict.EMPTY
    assert basic_empty(overlap_set(evens, low), p) is Verdict.NONEMPTY


def test_slice_box_difference_enumerates_leftover():
    """4x4 row-major widened layout minus the [1:3, 1:3] box."""
    widened = Lmad(
        sym(0), (LmadDim(sym(4), sym(4)), LmadDim(sym(4), sym(1)))
    )
    extra = slice_box_difference(
        widened, (sym(1), sym(1)), (sym(2), sym(2))
    )
    inside = {r * 4 + c for r in (1, 2) for c in (1, 2)}
    expected = set(range(16)) - inside
    got = {
        a for a in range(16) if extra.contains_point((a,), exist_bound=8)
    }
    assert got == expected


def test_lift_parameters_uses_context_bounds():
    """x == i with 0 <= i <= 9 and x <= -1: empty only via lifting."""
    ctx = Context()
    ctx.assume_range("i", 0, 9)
    bare = Prover(Context())
    x, i = SymExpr.var("x"), SymExpr.var("i")
    s = BasicSet(
        ("x",), (Constraint.eq(x - i), Constraint.ge(-x - 1))
    )
    # A prover ignorant of i's range cannot decide the original set...
    assert basic_empty(s, bare) is not Verdict.EMPTY
    lifted, did = lift_parameters(s, ctx)
    assert did
    # ...but the lifted set carries i's bounds as explicit constraints.
    assert basic_empty(lifted, bare) is Verdict.EMPTY


def test_lift_parameters_skips_stride_symbols():
    """A parameter used as a coefficient must not become a dimension."""
    ctx = Context()
    ctx.assume_range("n", 1, 100)
    x, n = SymExpr.var("x"), SymExpr.var("n")
    s = BasicSet(("x",), (Constraint.eq(x - 2 * n * x),))
    lifted, _ = lift_parameters(s, ctx)
    assert "n" not in lifted.exists
    assert lifted.is_affine()
