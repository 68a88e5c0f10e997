"""The coalescer: merge modes, soundness boundaries, IR hygiene.

Positive cases assert the exact merge mode the size relation licenses
(equal / fits / widened) and that the rewritten program still computes
the same values.  Negative cases are the boundaries the pass documents:
unprovable size relations, double-buffered loops, and branch allocations
escaping an ``if``.
"""

import numpy as np

from repro.analysis import verify_fun
from repro.compiler import compile_fun
from repro.ir import ast as A
from repro.mem.exec import MemExecutor
from repro.mem.memir import array_bindings, iter_stmts
from repro.pipeline import (
    AnalysisPass,
    CompileContext,
    DeadAllocsPass,
    FusePass,
    HoistPass,
    IntroduceMemoryPass,
    PassManager,
    TypecheckPass,
)
from repro.reuse.liveranges import LiveRanges

from tests.reuse.conftest import double_buffer_loop, if_escape, m, n, two_stage


def _allocs(fun):
    return {
        s.names[0]: s for s in iter_stmts(fun.body) if isinstance(s.exp, A.Alloc)
    }


def _run_scalar(fun, **inputs):
    ex = MemExecutor(fun)
    vals, _ = ex.run(**inputs)
    return vals[0]


# ----------------------------------------------------------------------
# Merge modes
# ----------------------------------------------------------------------
def test_equal_sizes_merge():
    c = compile_fun(two_stage(n, n), pipeline="nosc")
    assert [r[2] for r in c.reuse_stats.records] == ["equal"]
    (cand, survivor), = c.reuse_stats.mapping.items()
    allocs = _allocs(c.fun)
    assert cand not in allocs, "merged-away alloc statement must be removed"
    assert survivor in allocs
    # Every binding of the merged block was rewritten to the survivor.
    assert all(
        b.mem != cand for b in array_bindings(c.fun).values()
    ), "stale binding references the merged-away block"
    x = np.arange(5, dtype=np.float32)
    y = np.arange(5, dtype=np.float32) * 3
    got = _run_scalar(c.fun, x=x, y=y, n=5)
    assert np.isclose(got, (y + (2 * x).sum()).sum())


def test_smaller_candidate_fits():
    c = compile_fun(
        two_stage(n, m, declare_sizes=("n", "m")), pipeline="nosc"
    )
    assert [r[2] for r in c.reuse_stats.records] == ["fits"]
    assert c.reuse_stats.widened == 0
    x = np.arange(6, dtype=np.float32)
    y = np.ones(4, dtype=np.float32)
    got = _run_scalar(c.fun, x=x, y=y, n=6, m=4)
    assert np.isclose(got, (y + (2 * x).sum()).sum())


def test_larger_candidate_widens_survivor():
    c = compile_fun(
        two_stage(m, n, declare_sizes=("n", "m")), pipeline="nosc"
    )
    assert [r[2] for r in c.reuse_stats.records] == ["widened"]
    assert c.reuse_stats.widened == 1
    # The surviving alloc was rewritten to the candidate's (larger) size.
    (cand, survivor), = c.reuse_stats.mapping.items()
    size = _allocs(c.fun)[survivor].exp.size
    assert "n" in size.free_vars()
    x = np.ones(4, dtype=np.float32)
    y = np.arange(6, dtype=np.float32)
    got = _run_scalar(c.fun, x=x, y=y, n=6, m=4)
    assert np.isclose(got, (y + (2 * x).sum()).sum())


def test_unrelated_sizes_rejected():
    # No provable relation between n and m: the merge must be rejected
    # even though the lifetimes are disjoint.
    c = compile_fun(two_stage(n, m), pipeline="nosc")
    assert not c.reuse_stats.mapping
    assert c.reuse_stats.declined.tallies.get("size", 0) >= 1
    (rej,) = c.reuse_stats.declined.records
    assert (rej.layer, rej.rule) == ("reuse", "size")
    assert set(rej.site.split(" -> ")) == set(_allocs(c.fun))  # block -> donor


def test_reuse_passes_leave_program_verifiable():
    for fun in (two_stage(n, n), double_buffer_loop(), if_escape()):
        report = verify_fun(compile_fun(fun, pipeline="nosc").fun)
        assert report.ok(), report.render()


# ----------------------------------------------------------------------
# Soundness boundaries
# ----------------------------------------------------------------------
def test_double_buffer_loop_not_merged_or_freed():
    c = compile_fun(double_buffer_loop(), pipeline="nosc")
    assert not c.reuse_stats.mapping
    # The per-iteration buffer escapes into the carried state ...
    ranges = LiveRanges(c.fun)
    escaping = set().union(
        *(bl.escaping for bl in ranges.per_block.values())
    )
    allocs = _allocs(c.fun)
    assert escaping & set(allocs)
    # ... so no statement anywhere frees it.
    freed = set().union(*(s.mem_frees for s in iter_stmts(c.fun.body)))
    assert not (freed & escaping)
    ex = MemExecutor(c.fun)
    vals, _ = ex.run(x=np.arange(6, dtype=np.float32), k=4, n=6)
    out = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
    assert np.array_equal(out, np.arange(6, dtype=np.float32) + 4)


def test_if_escaping_aliases_not_merged_or_freed_in_branch():
    c = compile_fun(if_escape(), pipeline="nosc")
    assert not c.reuse_stats.mapping
    ranges = LiveRanges(c.fun)
    escaping = set().union(
        *(bl.escaping for bl in ranges.per_block.values())
    )
    assert escaping, "branch results must escape through the existential"
    # Escaping branch blocks are freed only at the enclosing level, after
    # the last read through the existential -- never inside the branch.
    fun_if = next(
        s.exp for s in c.fun.body.stmts if isinstance(s.exp, A.If)
    )
    for branch in (fun_if.then_block, fun_if.else_block):
        for s in iter_stmts(branch):
            assert not (set(s.mem_frees) & escaping)
    freed_at_top = set().union(*(s.mem_frees for s in c.fun.body.stmts))
    assert escaping <= freed_at_top


# ----------------------------------------------------------------------
# Without the reuse stage
# ----------------------------------------------------------------------
def test_reuse_off_is_pure_accounting():
    on = compile_fun(two_stage(n, n), pipeline="nosc")
    # ``nosc`` minus reuse is no preset: build it from the pass classes.
    ctx = CompileContext(source=two_stage(n, n))
    PassManager(
        [
            TypecheckPass(), IntroduceMemoryPass(), HoistPass(),
            AnalysisPass("last_use"), FusePass(), DeadAllocsPass(),
        ],
        name="fuse-only",
    ).run(ctx)
    off = ctx.mfun
    assert ctx.reuse_stats is None
    assert all(not s.mem_frees for s in iter_stmts(off.body))
    x = np.arange(5, dtype=np.float32)
    y = np.arange(5, dtype=np.float32) * 3
    a = _run_scalar(on.fun, x=x.copy(), y=y.copy(), n=5)
    b = _run_scalar(off, x=x.copy(), y=y.copy(), n=5)
    assert a == b
