"""FusedRecord provenance: chains, duplication accounting, round-trip.

Three properties of the fusion paper trail:

* *chain provenance* -- A fused into B then B into C leaves both records
  on C, with ``chain_depth`` 1 and 2 and the elided traffic of *both*
  intermediates accounted;
* *duplication accounting* -- a producer duplicated into k consumers
  claims its elided write exactly once (``bytes_elided_fusion`` must not
  double-count), split as 2x on the primary record and 1x per duplicate;
* *round-trip* -- :func:`repro.mem.hoist.rewrite_mem_bindings` (the
  memory-coalescing rename every record must survive) preserves every
  provenance field; only the block names it exists to rewrite change.
"""

import numpy as np

from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.mem.exec import MemExecutor
from repro.mem.hoist import rewrite_mem_bindings
from repro.mem.memir import iter_stmts
from repro.symbolic import Var

n = Var("n")
N = 9


def _chain_fun():
    """xs -> A (x2) -> B (+1) -> C (B[k] * B[n-1-k]): a depth-2 chain."""
    b = FunBuilder("chain")
    b.size_param("n")
    b.assume_lower("n", 1)
    xs = b.param("xs", f32(n))
    m1 = b.map_(n, index="i")
    m1.returns(m1.binop("*", m1.index(xs, [m1.idx]), 2.0))
    (a,) = m1.end()
    m2 = b.map_(n, index="j")
    m2.returns(m2.binop("+", m2.index(a, [m2.idx]), 1.0))
    (mid,) = m2.end()
    m3 = b.map_(n, index="k")
    m3.returns(
        m3.binop(
            "*", m3.index(mid, [m3.idx]), m3.index(mid, [n - 1 - m3.idx])
        )
    )
    (out,) = m3.end()
    b.returns(out)
    return b.build()


def _dup_fun():
    """xs -> A (x2) -> two consumers: the duplication candidate."""
    b = FunBuilder("dup")
    b.size_param("n")
    b.assume_lower("n", 1)
    xs = b.param("xs", f32(n))
    m1 = b.map_(n, index="i")
    m1.returns(m1.binop("*", m1.index(xs, [m1.idx]), 2.0))
    (a,) = m1.end()
    m2 = b.map_(n, index="j")
    m2.returns(m2.binop("+", m2.index(a, [m2.idx]), 1.0))
    (o1,) = m2.end()
    m3 = b.map_(n, index="k")
    m3.returns(m3.binop("-", m3.index(a, [m3.idx]), 1.0))
    (o2,) = m3.end()
    b.returns(o1, o2)
    return b.build()


def _records(fun):
    return [(s, r) for s in iter_stmts(fun.body) for r in s.fused]


# ----------------------------------------------------------------------
def test_chain_fusion_stacks_records_with_depths():
    cf = compile_fun(_chain_fun(), verify=True)
    st = cf.fuse_stats
    assert st.committed == 2, st.summary()
    assert st.chained == 1, st.summary()
    assert all(r.ok for r in cf.verify_reports.values())

    recs = [r for _, r in _records(cf.fun)]
    assert len(recs) == 2
    assert sorted(r.chain_depth for r in recs) == [1, 2]
    # Both records ended up on the final consumer (the only map left).
    owners = {id(s) for s, _ in _records(cf.fun)}
    assert len(owners) == 1
    # The chained record documents the mid producer read twice
    # (pointwise + reflected), the transferred one its single read.
    by_depth = {r.chain_depth: r for r in recs}
    assert by_depth[2].reads == 2
    assert len(by_depth[2].site_hashes) == 2
    assert by_depth[1].reads == 1
    assert not any(r.duplicated for r in recs)


def test_chain_fusion_outputs_and_accounting():
    fun = _chain_fun()
    fused = compile_fun(fun)
    unfused = compile_fun(fun, pipeline="nofuse")
    xs = np.arange(N, dtype=np.float32)

    outs = []
    for cf in (fused, unfused):
        ex = MemExecutor(cf.fun)
        (val,), stats = ex.run(n=N, xs=xs.copy())
        outs.append(ex.mem[val.mem][val.ixfn.gather_offsets({})])
        if cf is fused:
            # Two elided [N]f32 intermediates, write + read back each.
            assert stats.fused_kernels == 2
            assert stats.bytes_elided_fusion == 2 * (2 * 4 * N)
    assert np.array_equal(outs[0], outs[1])


def test_duplication_accounting_does_not_double_count():
    fun = _dup_fun()
    fused = compile_fun(fun, verify=True)
    assert all(r.ok for r in fused.verify_reports.values())
    recs = [r for _, r in _records(fused.fun)]
    assert sorted(r.duplicated for r in recs) == [False, True]

    xs = np.arange(N, dtype=np.float32)
    ex = MemExecutor(fused.fun)
    _, stats = ex.run(n=N, xs=xs.copy())
    # One write elided (once!) + one elided read per consumer:
    # (1 write + 2 reads) * N * 4 bytes, not 2 records x 2x.
    assert stats.bytes_elided_fusion == 3 * 4 * N
    assert stats.fused_kernels == 2


def test_rewrite_mem_bindings_round_trips_provenance():
    cf = compile_fun(_dup_fun())
    before = [
        (s.names, r) for s, r in _records(cf.fun)
    ]
    assert before, "expected fused records on the compiled program"
    # Rename every block the records mention, as allocation coalescing
    # would, and require all provenance fields to survive verbatim.
    mems = {r.mem for _, r in before}
    for _, r in before:
        mems |= set(r.write_mems)
    mapping = {m: f"{m}__renamed" for m in mems}
    rewrite_mem_bindings(cf.fun, mapping)
    after = [(s.names, r) for s, r in _records(cf.fun)]
    assert len(after) == len(before)
    for (names_b, rb), (names_a, ra) in zip(before, after):
        assert names_b == names_a
        assert ra.mem == mapping.get(rb.mem, rb.mem)
        assert ra.write_mems == tuple(
            mapping.get(m, m) for m in rb.write_mems
        )
        for field in (
            "producer", "width", "elem_bytes", "reads", "rank",
            "duplicated", "recompute_stmts", "chain_depth", "site_hashes",
        ):
            assert getattr(ra, field) == getattr(rb, field), field
