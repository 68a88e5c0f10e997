"""Producer-consumer fusion: semantics, accounting, and rejection paths.

The positive tests run a fixed corpus of randomly generated two-stage map
pipelines (see conftest) through both the fused and the ``nofuse``
ablation pipeline and require *bit-identical* outputs on both executor
tiers -- fusion changes where the intermediate lives, never a single
floating-point operation -- plus a strict simulated-traffic decrease.

The negative tests pin each legality gate to the program shape that
trips it: an escaping intermediate, a multiply-consumed one, a consumer
that is not a map, a read the range prover cannot bound, and a write to
the producer's input between the two maps.
"""

import numpy as np
import pytest

from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir.pretty import pretty_fun
from repro.mem.exec import MemExecutor
from repro.symbolic import Var

n = Var("n")
N = 11


def _gather(ex, val):
    return ex.mem[val.mem][val.ixfn.gather_offsets({})]


def _run(cf, xs, vectorize):
    ex = MemExecutor(cf.fun, vectorize=vectorize)
    (val,), stats = ex.run(n=len(xs), xs=xs.copy())
    return _gather(ex, val), stats


def _simple_pipeline():
    """xs -> (xs[i] * xs[i]) -> (+1): the minimal fusion candidate."""
    b = FunBuilder("pipe")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    v = mp.index(xs, [mp.idx])
    mp.returns(mp.binop("*", v, v))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out)
    return b.build()


# ----------------------------------------------------------------------
# Property-style corpus: fusion is output-preserving
# ----------------------------------------------------------------------
@pytest.mark.gate
@pytest.mark.parametrize("seed", range(30))
def test_fusion_preserves_outputs_on_random_pipelines(seed, gen_pipeline):
    rng = np.random.RandomState(seed)
    fun = gen_pipeline(rng)
    xs = rng.randn(N).astype(np.float32)

    fused = compile_fun(fun, verify=True)
    unfused = compile_fun(fun, pipeline="nofuse")
    assert fused.fuse_stats.committed == 1, fused.fuse_stats.summary()
    assert all(r.ok for r in fused.verify_reports.values())

    outs = {}
    for label, cf in (("fused", fused), ("unfused", unfused)):
        for vec in (False, True):
            outs[(label, vec)], _ = _run(cf, xs, vec)
    for vec in (False, True):
        assert np.array_equal(outs[("fused", vec)], outs[("unfused", vec)])
    # All four runs agree (tier equivalence holds within each pipeline too).
    assert np.array_equal(outs[("fused", False)], outs[("fused", True)])

    _, dry_f = MemExecutor(fused.fun, mode="dry").run(n=64)
    _, dry_u = MemExecutor(unfused.fun, mode="dry").run(n=64)
    assert dry_f.bytes_total < dry_u.bytes_total


@pytest.mark.gate
@pytest.mark.parametrize("seed", range(30))
def test_mapnest_fusion_preserves_outputs_on_random_dags(
    seed, gen_mapnest_pipeline
):
    """Rank-2 producers, 1-2 consumers: four-way bit equality + verifier.

    The four-way grid is (fused | unfused) x (interpreted | vectorized);
    every cell must agree bitwise on every output, the verifier (incl.
    FU03's per-site hash audit) must pass on the fused program, and the
    simulated traffic must strictly drop.
    """
    rng = np.random.RandomState(seed)
    fun = gen_mapnest_pipeline(rng)
    n_outs = len(fun.body.result)
    xs = rng.randn(N * N).astype(np.float32)

    fused = compile_fun(fun, verify=True)
    unfused = compile_fun(fun, pipeline="nofuse")
    assert fused.fuse_stats.committed == 1, fused.fuse_stats.summary()
    assert fused.fuse_stats.duplicated == n_outs - 1
    assert all(r.ok for r in fused.verify_reports.values())

    outs = {}
    for label, cf in (("fused", fused), ("unfused", unfused)):
        for vec in (False, True):
            ex = MemExecutor(cf.fun, vectorize=vec)
            vals, _ = ex.run(n=N, xs=xs.copy())
            outs[(label, vec)] = [_gather(ex, v) for v in vals]
    for vec in (False, True):
        for a, b in zip(outs[("fused", vec)], outs[("unfused", vec)]):
            assert np.array_equal(a, b)
    for a, b in zip(outs[("fused", False)], outs[("fused", True)]):
        assert np.array_equal(a, b)

    _, dry_f = MemExecutor(fused.fun, mode="dry").run(n=16)
    _, dry_u = MemExecutor(unfused.fun, mode="dry").run(n=16)
    assert dry_f.bytes_total < dry_u.bytes_total


def test_fused_body_still_vectorizes():
    cf = compile_fun(_simple_pipeline())
    assert cf.fuse_stats.committed == 1
    xs = np.arange(8, dtype=np.float32)
    _, stats = _run(cf, xs, vectorize=True)
    assert stats.vec_launches == 1 and stats.interp_launches == 0


def test_fused_accounting_is_tier_and_mode_identical():
    cf = compile_fun(_simple_pipeline())
    xs = np.arange(8, dtype=np.float32)
    _, st_i = _run(cf, xs, vectorize=False)
    _, st_v = _run(cf, xs, vectorize=True)
    _, st_d = MemExecutor(cf.fun, mode="dry").run(n=8)
    for st in (st_i, st_v, st_d):
        assert st.fused_kernels == 1
        # One [8]f32 intermediate: 32 bytes written + 32 read back elided.
        assert st.bytes_elided_fusion == 64
    assert st_i.signature() == st_v.signature() == st_d.signature()


def test_fused_memory_ir_is_a_single_kernel():
    text = pretty_fun(compile_fun(_simple_pipeline()).fun)
    # One map and one allocation are left, and the producer's body (the
    # square) sits inside the consumer's.
    assert text.count("map (") == 1 and text.count("alloc (") == 1
    assert "t_1__f1 * t_1__f1" in text
    unfused = pretty_fun(compile_fun(_simple_pipeline(), pipeline="nofuse").fun)
    assert unfused.count("map (") == 2 and unfused.count("alloc (") == 2


# ----------------------------------------------------------------------
# Rejection paths
# ----------------------------------------------------------------------
def _expect_rejected(fun, reason):
    cf = compile_fun(fun)
    assert cf.fuse_stats.committed == 0, cf.fuse_stats.summary()
    assert reason in cf.fuse_stats.failures, cf.fuse_stats.summary()
    return cf


def test_escaping_intermediate_is_rejected():
    b = FunBuilder("escape")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out, inter)  # the intermediate escapes as a result
    _expect_rejected(b.build(), "escapes-block-result")


def test_multi_consumer_intermediate_fuses_by_duplication():
    """Two cheap-map consumers: the producer body is duplicated into both."""
    b = FunBuilder("multiuse")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    outs = []
    for j, c in (("j", 1.0), ("k", 2.0)):
        mc = b.map_(n, index=j)
        mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), c))
        outs.append(mc.end()[0])
    b.returns(*outs)
    cf = compile_fun(b.build(), verify=True)
    assert cf.fuse_stats.committed == 1, cf.fuse_stats.summary()
    assert all(r.ok for r in cf.verify_reports.values())
    recs = [
        rec
        for stmt in cf.fun.body.stmts
        for rec in stmt.fused
    ]
    assert len(recs) == 2
    assert sorted(r.duplicated for r in recs) == [False, True]
    assert all(r.site_hashes for r in recs)
    assert len({h for r in recs for h in r.site_hashes}) == 1

    xs_v = np.arange(6, dtype=np.float32)
    ex = MemExecutor(cf.fun)
    (o1, o2), stats = ex.run(n=6, xs=xs_v.copy())
    assert np.array_equal(_gather(ex, o1), xs_v * 2.0 + 1.0)
    assert np.array_equal(_gather(ex, o2), xs_v * 2.0 + 2.0)
    # 1 elided write + 2 elided reads of the [6]f32 intermediate: 3*24.
    assert stats.bytes_elided_fusion == 3 * 6 * 4


def test_expensive_multi_consumer_body_is_rejected():
    """Duplication is gated by the recompute cost model."""
    b = FunBuilder("costly")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    v = mp.index(xs, [mp.idx])
    for _ in range(20):  # > DUP_COST_LIMIT statements
        v = mp.binop("+", v, 1.0)
    mp.returns(v)
    (inter,) = mp.end()
    outs = []
    for j, c in (("j", 1.0), ("k", 2.0)):
        mc = b.map_(n, index=j)
        mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), c))
        outs.append(mc.end()[0])
    b.returns(*outs)
    _expect_rejected(b.build(), "dup-too-costly")


def test_non_map_second_consumer_is_rejected():
    """A copy among the consumers blocks duplication (multi-use)."""
    b = FunBuilder("mixeduse")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out, b.copy(inter))
    _expect_rejected(b.build(), "multi-use")


def test_non_map_consumer_is_rejected():
    b = FunBuilder("copyuse")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    b.returns(b.copy(inter))
    _expect_rejected(b.build(), "consumer-not-map")


def test_unprovable_read_range_is_rejected():
    """A reordering read the prover cannot bound within the producer."""
    b = FunBuilder("oob")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx + 1]), 1.0))
    (out,) = mc.end()
    b.returns(out)
    _expect_rejected(b.build(), "read-out-of-range")


def test_intervening_write_to_producer_input_is_rejected():
    b = FunBuilder("interleave")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    xc = b.copy(xs)
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xc, [mp.idx]), 2.0))
    (inter,) = mp.end()
    upd = b.update_point(xc, [0], b.lit(7.0, "f32"))
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out, upd)
    _expect_rejected(b.build(), "intervening-write")


def test_reflected_read_is_still_fused():
    """n-1-j stays provably in range: reordering alone is not a blocker."""
    b = FunBuilder("reflect")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n, index="j")
    mc.returns(mc.binop("+", mc.index(inter, [n - 1 - mc.idx]), 1.0))
    (out,) = mc.end()
    b.returns(out)
    cf = compile_fun(b.build())
    assert cf.fuse_stats.committed == 1
    xs_v = np.arange(6, dtype=np.float32)
    got, _ = _run(cf, xs_v, vectorize=False)
    assert np.array_equal(got, (xs_v * 2.0)[::-1] + 1.0)
