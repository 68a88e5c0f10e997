"""Property-based end-to-end soundness of the whole compiler.

Hypothesis generates random small programs from a grammar of fresh-array
constructors, change-of-layout views, slice updates and concats -- the
exact constructs short-circuiting rewrites -- and checks the *fundamental
theorem* of this reproduction: for every program, the optimized memory
pipeline computes the same values as the purely functional interpreter.

A counterexample here is a real miscompile (this harness caught the
scratch zero-fill clobber during development).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32, run_fun
from repro.ir import ast as A
from repro.mem.exec import MemExecutor
from repro.symbolic import Var

N = 6  # fixed extent keeps shapes compatible


@st.composite
def programs(draw):
    """A random straight-line program over [N]f32 arrays."""
    b = FunBuilder("prog")
    n = Var("n")
    b.size_param("n")
    x = b.param("x", f32(n))
    arrays = [x]  # rank-1, length-n arrays in scope

    def fresh_via_map(src):
        mp = b.map_(n, index=f"i")
        v = mp.index(src, [mp.idx])
        op = draw(st.sampled_from(["*", "+", "max"]))
        c = float(draw(st.integers(-3, 3)))
        mp.returns(mp.binop(op, v, c))
        return mp.end()[0]

    n_stmts = draw(st.integers(1, 6))
    for _ in range(n_stmts):
        kind = draw(
            st.sampled_from(
                ["map", "copy", "reverse", "slice", "update", "concat2"]
            )
        )
        src = draw(st.sampled_from(arrays))
        if kind == "map":
            arrays.append(fresh_via_map(src))
        elif kind == "copy":
            arrays.append(b.copy(src))
        elif kind == "reverse":
            arrays.append(b.reverse(src, 0))
        elif kind == "slice":
            # Keep full length via step 1 slices of a double-length concat?
            # Simpler: a reversed triplet slice of the same extent.
            arrays.append(b.slice(src, [(n - 1, n, -1)]))
        elif kind == "update":
            # Update the first half of a fresh copy with a fresh map result.
            target = b.copy(draw(st.sampled_from(arrays)))
            val = fresh_via_map(draw(st.sampled_from(arrays)))
            half = b.slice(val, [(0, 3, 1)])
            arrays.append(b.update_slice(target, [(0, 3, 1)], half))
        else:  # concat2 -> keep only as final result shape [2n]
            a1 = fresh_via_map(draw(st.sampled_from(arrays)))
            a2 = fresh_via_map(draw(st.sampled_from(arrays)))
            cc = b.concat(a1, a2)
            b.returns(cc)
            return b.build()
    b.returns(arrays[-1])
    return b.build()


@settings(max_examples=60, deadline=None)
@given(programs(), st.integers(0, 1000))
def test_optimized_pipeline_preserves_semantics(fun, seed):
    rng = np.random.RandomState(seed)
    x = rng.randn(N).astype(np.float32)
    (expected,) = run_fun(fun, n=N, x=x.copy())
    for sc in (False, True):
        compiled = compile_fun(fun, pipeline="full" if sc else "nosc")
        ex = MemExecutor(compiled.fun)
        vals, _ = ex.run(n=N, x=x.copy())
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        assert np.allclose(got, expected), (
            f"miscompile (sc={sc}) on program:\n"
            + __import__("repro.ir.pretty", fromlist=["pretty_fun"]).pretty_fun(fun)
        )


@settings(max_examples=40, deadline=None)
@given(programs(), st.integers(0, 1000))
def test_vectorized_tier_is_the_interpreted_one(fun, seed):
    """The staged vectorized engine against the interpreted tier: the
    same bits out, the same simulated statistics."""
    x = np.random.RandomState(seed).randn(N).astype(np.float32)
    compiled = compile_fun(fun)
    runs = []
    for vectorize in (True, False):
        ex = MemExecutor(compiled.fun, vectorize=vectorize)
        vals, stats = ex.run(n=N, x=x.copy())
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        runs.append((got.tobytes(), stats.signature(), stats.vec_launches))
    (vec, vsig, launches), (ref, rsig, none) = runs
    assert (vec, vsig) == (ref, rsig)
    assert none == 0 and launches == sum(
        isinstance(s.exp, A.Map) for s in compiled.fun.body.stmts
    )


@settings(max_examples=30, deadline=None)
@given(programs())
def test_dry_run_traffic_matches_real(fun):
    """Dry-mode accounting must equal real-mode accounting exactly."""
    compiled = compile_fun(fun)
    x = np.ones(N, dtype=np.float32)
    _, real = MemExecutor(compiled.fun).run(n=N, x=x)
    _, dry = MemExecutor(compiled.fun, mode="dry").run(n=N)
    assert dry.bytes_read == real.bytes_read
    assert dry.bytes_written == real.bytes_written
    assert dry.launches == real.launches
    assert dry.elided_copies == real.elided_copies
