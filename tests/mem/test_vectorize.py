"""Tests for the vectorized kernel engine (``repro.mem.vectorize``).

The engine's contract is *tier equivalence*: for any program it accepts,
it must produce bit-identical outputs and a bit-identical
``ExecStats.signature()`` relative to the interpreted per-thread path.
Programs it cannot express must fall back, correctly, and say why.
"""

import importlib

import numpy as np
import pytest

from repro.bench.harness import compile_both
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32, i64
from repro.ir import ast as A
from repro.lmad import lmad
from repro.mem import introduce_memory
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.symbolic import Var

n = Var("n")
m = Var("m")

BENCHMARKS = ["nw", "lud", "hotspot", "lbm", "optionpricing", "locvolcalib", "nn"]


def run_tiers(fun, inputs):
    """Run ``fun`` under both executor tiers on identical inputs."""

    def fresh():
        return {
            k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()
        }

    ex_i = MemExecutor(fun, vectorize=False)
    vals_i, _ = ex_i.run(**fresh())
    ex_v = MemExecutor(fun)
    vals_v, _ = ex_v.run(**fresh())
    return ex_i, vals_i, ex_v, vals_v


def assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v):
    for a, b in zip(vals_i, vals_v):
        ga = np.asarray(materialize(ex_i, a))
        gb = np.asarray(materialize(ex_v, b))
        assert np.array_equal(ga, gb), "outputs differ between tiers"
    assert ex_i.stats.signature() == ex_v.stats.signature(), (
        "simulated stats differ between tiers"
    )


# ----------------------------------------------------------------------
# Differential: every benchmark, both pipelines
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_benchmark_tiers_agree(self, name):
        mod = importlib.import_module(f"repro.bench.programs.{name}")
        inputs = mod.inputs_for(*mod.TEST_DATASETS["small"])
        for compiled in compile_both(mod):
            ex_i, vals_i, ex_v, vals_v = run_tiers(compiled.fun, inputs)
            assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
            assert ex_v.stats.vec_launches > 0, "engine never engaged"
            assert ex_i.stats.vec_launches == 0


# ----------------------------------------------------------------------
# Lowerings no benchmark reaches (also replayed through the native tier
# by tests/backend/test_native_corpus.py)
# ----------------------------------------------------------------------
def strided_fill_case():
    """In-kernel triplet-slice update: each thread fills the even slots
    of a private 4-element row from a private 2-element array."""
    b = FunBuilder("strided_fill")
    b.size_param("n")
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    xi = mp.index(x, [mp.idx])
    row = mp.replicate([4], 0.0)
    pair = mp.replicate([2], xi)
    mp.returns(mp.update_slice(row, [(0, 2, 2)], pair))
    (out,) = mp.end()
    b.returns(out)
    return b.build(), dict(n=5, x=np.arange(1, 6, dtype=np.float32))


def composed_operand_case():
    """Kernel operand whose index function is a two-LMAD composition
    (the flattened transpose), read both as a region and as a point."""
    b = FunBuilder("columns")
    b.size_param("n")
    b.size_param("m")
    x = b.param("x", f32(n, m))
    flat = b.flatten(b.transpose(x))
    mp = b.map_(m, index="j")
    col = mp.slice(flat, [(mp.idx * n, n, 1)])
    mp.returns(col, mp.binop("*", mp.index(flat, [mp.idx]), 2.0))
    b.returns(*mp.end())
    x_in = np.arange(12, dtype=np.float32).reshape(3, 4)
    return b.build(), dict(n=3, m=4, x=x_in)


def uniform_if_array_case():
    """Lane-uniform ``if`` (the condition is a host scalar) whose
    branches each build the thread's result array."""
    b = FunBuilder("pick")
    b.size_param("n")
    flag = b.param("flag", i64())
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    xi = mp.index(x, [mp.idx])
    br = mp.if_(mp.binop(">", flag, 0))
    br.then_builder.returns(br.then_builder.replicate([3], xi))
    neg = br.else_builder.unop("neg", xi)
    br.else_builder.returns(br.else_builder.replicate([3], neg))
    mp.returns(*br.end())
    b.returns(*mp.end())
    return b.build(), dict(n=4, flag=0, x=np.arange(1, 5, dtype=np.float32))


def comparisons_case():
    """Every comparison and both logical operators on lane vectors."""
    b = FunBuilder("compare")
    b.size_param("n")
    x = b.param("x", f32(n))
    y = b.param("y", f32(n))
    mp = b.map_(n, index="i")
    xi = mp.index(x, [mp.idx])
    yi = mp.index(y, [mp.idx])
    cmp = {op: mp.binop(op, xi, yi) for op in ("<", "<=", "==", "!=", ">", ">=")}
    both = mp.binop("&&", cmp["<="], cmp[">="])
    either = mp.binop("||", cmp["<"], cmp[">"])
    mp.returns(*cmp.values(), both, either)
    b.returns(*mp.end())
    return b.build(), dict(
        n=6,
        x=np.array([0, 1, 2, 3, 4, 5], dtype=np.float32),
        y=np.array([5, 1, 0, 3, 9, 2], dtype=np.float32),
    )


def scalar_alias_case():
    """Scalar re-bindings in a map body: a uniform alias of a host scalar
    and a lane-varying alias of the thread index, used as an index."""
    b = FunBuilder("aliases")
    b.size_param("n")
    c = b.param("c", f32())
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    (w,) = mp.emit(A.VarRef(c))
    (j,) = mp.emit(A.VarRef("i"))
    xj = mp.index(x, [n - 1 - Var(j)])
    mp.returns(mp.binop("*", xj, w))
    b.returns(*mp.end())
    return b.build(), dict(n=5, c=np.float32(1.5), x=np.arange(5, dtype=np.float32))


LOWERING_CASES = [
    strided_fill_case, composed_operand_case, uniform_if_array_case,
    comparisons_case, scalar_alias_case,
]


def concat_update_case():
    """Per-thread arrays built by concat, iota, and LMAD and triplet
    slice updates."""
    b = FunBuilder("assemble")
    b.size_param("n")
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    xi = mp.index(x, [mp.idx])
    row = mp.concat(mp.replicate([2], xi), mp.replicate([4], 0.0))
    row = mp.update_lmad(row, lmad(1, [(2, 2)]), mp.replicate([2], -1.0))
    row = mp.update_slice(row, [(5, 1, 1)], mp.replicate([1], xi))
    mp.returns(row, mp.index(mp.iota(4), [2]))
    b.returns(*mp.end())
    return b.build(), dict(n=5, x=np.arange(1, 6, dtype=np.float32))


def masked_branch_case():
    """A lane-varying ``if`` holding a uniform one, its value carried by a
    loop; the host scalar decides both a mask and a branch."""
    b = FunBuilder("masked")
    b.size_param("n")
    k = b.param("k", i64())
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    xi = mp.index(x, [mp.idx])
    br = mp.if_(mp.binop("<", mp.idx, k))
    inner = br.then_builder.if_(br.then_builder.binop(">", k, 2))
    inner.then_builder.returns(inner.then_builder.binop("*", xi, 3.0))
    inner.else_builder.returns(inner.else_builder.binop("+", xi, 1))
    br.then_builder.returns(*inner.end())
    br.else_builder.returns(br.else_builder.binop("-", xi, k))
    lp = mp.loop(3, [("acc", br.end()[0])], index="j")
    lp.returns(lp.binop("+", lp["acc"], lp.idx))
    mp.returns(*lp.end())
    b.returns(*mp.end())
    return b.build(), dict(n=6, k=3, x=np.linspace(-1, 1, 6, dtype=np.float32))


@pytest.mark.parametrize(
    "case", LOWERING_CASES + [concat_update_case, masked_branch_case]
)
def test_lowering_case_tiers_agree(case):
    fun, inputs = case()
    for preset in ("unopt", "full"):
        compiled = compile_fun(fun, pipeline=preset)
        ex_i, vals_i, ex_v, vals_v = run_tiers(compiled.fun, inputs)
        assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
        assert ex_v.stats.vec_launches == 1
        assert ex_v.stats.interp_launches == 0


# ----------------------------------------------------------------------
# Fallback paths
# ----------------------------------------------------------------------
def rowsum_fun():
    """Map body containing a Reduce: the plan must reject it."""
    b = FunBuilder("rowsum")
    b.size_param("n")
    X = b.param("X", f32(n, n))
    mp = b.map_(n, index="i")
    row = mp.slice(X, [(mp.idx, 1, 1), (0, n, 1)])
    s = mp.reduce("+", row)
    mp.returns(s)
    (out,) = mp.end()
    b.returns(out)
    return b.build()


def lane_varying_loop_fun():
    """Map body with a thread-dependent trip count (triangular loop)."""
    b = FunBuilder("tri")
    b.size_param("n")
    X = b.param("X", f32(n))
    mp = b.map_(n, index="i")
    x0 = mp.index(X, [mp.idx])
    lp = mp.loop(mp.idx, [("acc", x0)], index="j")
    nxt = lp.binop("+", lp["acc"], lp["acc"])
    lp.returns(nxt)
    (acc,) = lp.end()
    mp.returns(acc)
    (out,) = mp.end()
    b.returns(out)
    return b.build()


def declined_plan(ex, fun):
    """The one record the vectorizer's planner left: for which map
    (site), under which rule, at which statement of its body."""
    (plan,) = ex._vec_plans.values()
    assert plan.body is None
    why = plan.declined
    (top,) = [s for s in fun.body.stmts if s.names[0] == why.site]
    (inner,) = [
        s for s in top.exp.lam.body.stmts if why.detail == f"at {s.names[0]}"
    ]
    assert why.layer == "vectorize"
    return why.rule, type(top.exp).__name__, type(inner.exp).__name__


class TestFallback:
    def test_reduce_body_falls_back(self):
        fun = introduce_memory(rowsum_fun())
        inputs = dict(n=5, X=np.arange(25, dtype=np.float32).reshape(5, 5))
        ex_i, vals_i, ex_v, vals_v = run_tiers(fun, inputs)
        assert ex_v.stats.vec_launches == 0
        assert ex_v.stats.interp_launches > 0
        assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
        assert declined_plan(ex_v, fun) == (
            "reduction-in-body", "Map", "Reduce",
        )

    def test_lane_varying_loop_count_falls_back(self):
        fun = introduce_memory(lane_varying_loop_fun())
        inputs = dict(n=6, X=np.arange(6, dtype=np.float32))
        ex_i, vals_i, ex_v, vals_v = run_tiers(fun, inputs)
        assert ex_v.stats.vec_launches == 0
        assert ex_v.stats.interp_launches > 0
        assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
        assert declined_plan(ex_v, fun) == (
            "lane-varying-trip-count", "Map", "Loop",
        )

    def test_debug_mode_forces_interpreted(self):
        mod = importlib.import_module("repro.bench.programs.nw")
        _, opt = compile_both(mod)
        inputs = mod.inputs_for(*mod.TEST_DATASETS["tiny"])
        ex = MemExecutor(opt.fun, debug=True)
        ex.run(**{k: (v.copy() if hasattr(v, "copy") else v)
                  for k, v in inputs.items()})
        assert ex.stats.vec_launches == 0
        assert ex.stats.interp_launches > 0

    def test_vectorize_flag_off(self):
        mod = importlib.import_module("repro.bench.programs.nw")
        _, opt = compile_both(mod)
        inputs = mod.inputs_for(*mod.TEST_DATASETS["tiny"])
        ex = MemExecutor(opt.fun, vectorize=False)
        ex.run(**{k: (v.copy() if hasattr(v, "copy") else v)
                  for k, v in inputs.items()})
        assert ex.stats.vec_launches == 0
        assert ex.stats.interp_launches > 0


# ----------------------------------------------------------------------
# Nested maps run in the composite lane space
# ----------------------------------------------------------------------
def nested_map_fun():
    b = FunBuilder("outer_product")
    b.size_param("n")
    x = b.param("x", f32(n))
    y = b.param("y", f32(n))
    mo = b.map_(n, index="i")
    xi = mo.index(x, [mo.idx])
    mi = mo.map_(n, index="j")
    yj = mi.index(y, [mi.idx])
    p = mi.binop("*", xi, yj)
    mi.returns(p)
    (row,) = mi.end()
    mo.returns(row)
    (out,) = mo.end()
    b.returns(out)
    return b.build()


def declined_outer_fun():
    """A thread-dependent trip count the vectorized tier declines, then
    a nested map it could run on its own."""
    b = FunBuilder("tri_then_row")
    b.size_param("n")
    x = b.param("x", f32(n))
    y = b.param("y", f32(n))
    mo = b.map_(n, index="i")
    lp = mo.loop(mo.idx, [("acc", mo.index(x, [mo.idx]))], index="k")
    lp.returns(lp.binop("+", lp["acc"], lp["acc"]))
    (acc,) = lp.end()
    mi = mo.map_(n, index="j")
    mi.returns(mi.binop("*", acc, mi.index(y, [mi.idx])))
    (row,) = mi.end()
    mo.returns(row)
    b.returns(*mo.end())
    return b.build()


class TestNestedMap:
    def test_declined_outer_map_interprets_its_nested_map(self):
        """A fast tier takes a whole outermost map or none of it: the
        nested map runs interpreted in every thread, and the plan table
        holds the outermost map only."""
        fun = introduce_memory(declined_outer_fun())
        x = np.arange(1, 7, dtype=np.float32)
        inputs = dict(n=6, x=x, y=x[::-1].copy())
        ex_i, vals_i, ex_v, vals_v = run_tiers(fun, inputs)
        assert ex_v.stats.vec_launches == 0
        assert ex_v.stats.interp_launches == 1 + 6
        assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
        (plan,) = ex_v._vec_plans.values()
        assert plan.stmt is fun.body.stmts[-1]
        assert plan.declined.rule == "lane-varying-trip-count"

    def test_outer_product_vectorizes(self):
        fun = introduce_memory(nested_map_fun())
        x = np.arange(1, 7, dtype=np.float32)
        y = np.arange(2, 8, dtype=np.float32)
        inputs = dict(n=6, x=x, y=y)
        ex_i, vals_i, ex_v, vals_v = run_tiers(fun, inputs)
        assert ex_v.stats.vec_launches == 1
        assert ex_v.stats.interp_launches == 0
        assert_tier_equivalent(ex_i, vals_i, ex_v, vals_v)
        got = np.asarray(materialize(ex_v, vals_v[0]))
        assert np.array_equal(got, np.outer(x, y).reshape(got.shape))


# ----------------------------------------------------------------------
# Staged once, run for every shape class and every kind a request brings
# ----------------------------------------------------------------------
@pytest.fixture
def stagings(monkeypatch):
    """Every map statement the vectorized tier stages, in order."""
    from repro.mem import vectorize

    seen = []
    launcher = vectorize._launcher

    def counting(stmt, body):
        seen.append(stmt.names[0])
        return launcher(stmt, body)

    monkeypatch.setattr(vectorize, "_launcher", counting)
    return seen


def scaled_case():
    """Host scalars of two kinds meet a lane vector: ``x[i] + k`` and
    ``* s`` take their dtype from the kinds the request passes."""
    b = FunBuilder("scaled")
    b.size_param("n")
    k = b.param("k", i64())
    s = b.param("s", f32())
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    shifted = mp.binop("+", mp.index(x, [mp.idx]), k)
    mp.returns(mp.binop("*", shifted, s), mp.binop("<", mp.idx, k))
    b.returns(*mp.end())
    return b.build()


class TestStaged:
    @pytest.mark.parametrize("name, shapes", [
        ("locvolcalib", [(4, 32 + 4 * i, 8) for i in range(8)]),
        ("optionpricing", [(3072 + 256 * i, 64) for i in range(8)]),
    ])
    def test_one_body_serves_every_ring_shape(self, stagings, name, shapes):
        """The fallback workload's rings: a map is staged once, however
        many shape classes follow."""
        import repro.runtime as rt

        mod = importlib.import_module(f"repro.bench.programs.{name}")
        program = rt.compile(mod.build(), memoize=False)
        for shape in shapes:
            _, stats = program.run(mod.inputs_for(*shape), native=False)
            assert stats.interp_launches == 0
        maps = program.coverage()["maps"]
        assert sorted(stagings) == sorted(maps)
        assert {m["tier"] for m in maps.values()} == {"vectorized"}
        assert len(program.pool._plans) == len(shapes)  # eight classes

    def test_request_kinds_are_read_per_run(self, stagings):
        """One staged body, host scalars of every kind: each run gives the
        interpreter's bits and dtypes."""
        import repro.runtime as rt

        fun = compile_fun(scaled_case()).fun
        program = rt.compile(scaled_case(), memoize=False)
        x = np.linspace(-2, 2, 7, dtype=np.float32)
        kinds = [
            (3, np.float32(0.1)), (np.int64(3), np.float32(0.1)),
            (3, np.float64(0.1)), (3, 0.1), (np.int64(-2), np.float64(0.3)),
            (True, np.float32(2)),
        ]
        for k, s in kinds:
            inputs = dict(n=7, k=k, s=s, x=x)
            got, stats = program.run(inputs, native=False)
            ex = MemExecutor(fun, vectorize=False)
            vals, ref = ex.run(**inputs)
            want = [materialize(ex, v) for v in vals]
            assert stats.vec_launches == 1
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, s)
            assert stats.signature() == ref.signature()
        assert len(stagings) == 1


# ----------------------------------------------------------------------
# The --json bench report
# ----------------------------------------------------------------------
class TestBenchJson:
    def test_json_report_written(self, tmp_path, monkeypatch, capsys):
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        rc = main(["nn", "--quick", "--json"])
        assert rc == 0
        out_files = list((tmp_path / "benchmarks" / "results").glob("BENCH_*.json"))
        assert len(out_files) == 1
        import json

        payload = json.loads(out_files[0].read_text())
        assert payload["quick"] is True
        entry = payload["benchmarks"]["nn"]
        assert entry["validated"] is True
        # The report carries no stopwatch sections (perfbench is the clock).
        assert not {"engine", "serve", "table_wall_s"} & set(entry)
        # One list for every layer's "no" (nn: a dead-copy candidate
        # whose creation the walk never reaches, an aliased producer).
        assert not {"sc_rejected", "fuse_rejections"} & set(entry)
        declined = {(d["layer"], d["rule"]) for d in entry["rejections"]}
        assert {("sc", "creation-not-found"), ("fuse", "alias-escapes")} <= (
            declined
        )
        assert all(d["site"] for d in entry["rejections"])
        native = entry["native"]  # None without a C compiler
        if native is not None:
            assert native["outputs_equal"] and native["stats_equal"]
            assert native["footprint_equal"]
        assert entry["rows"], "simulated table rows missing"
