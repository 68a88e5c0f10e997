"""Negative corpus for the memory-IR verifier.

Each test hand-breaks one invariant of a correctly-compiled program and
asserts that exactly the intended rule fires (plus that the pristine
program is clean, so the corpus cannot pass vacuously).
"""

import numpy as np

from repro.analysis import verify_fun
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir import ast as A
from repro.lmad import IndexFn, lmad
from repro.mem.exec import MemExecutor
from repro.mem.memir import MemBinding, binding_of, param_mem_name
from repro.symbolic import SymExpr

from tests.analysis.conftest import array_pat, find_stmt, map_stmt, n, simple_fun


def test_pristine_program_is_clean(compiled_simple):
    report = verify_fun(compiled_simple)
    assert report.ok()
    assert not report.diagnostics


# ----------------------------------------------------------------------
# Well-formedness
# ----------------------------------------------------------------------
def test_wf01_missing_binding(compiled_simple):
    array_pat(map_stmt(compiled_simple)).mem = None
    report = verify_fun(compiled_simple)
    assert "WF01" in [d.rule for d in report.diagnostics]
    assert report.errors


def test_wf02_unknown_block(compiled_simple):
    pe = array_pat(map_stmt(compiled_simple))
    pe.mem = MemBinding("no_such_block", binding_of(pe).ixfn)
    report = verify_fun(compiled_simple)
    assert "WF02" in [d.rule for d in report.diagnostics]


def test_wf03_negative_alloc(compiled_simple):
    stmt = find_stmt(compiled_simple, lambda s: isinstance(s.exp, A.Alloc))
    stmt.exp = A.Alloc(SymExpr.const(-4), stmt.exp.dtype)
    report = verify_fun(compiled_simple)
    assert "WF03" in [d.rule for d in report.diagnostics]


def test_wf05_rank_mismatch(compiled_simple):
    pe = array_pat(map_stmt(compiled_simple))
    b = binding_of(pe)
    wrong = IndexFn.row_major((SymExpr.var("n"), SymExpr.var("n")))
    pe.mem = MemBinding(b.mem, wrong)
    report = verify_fun(compiled_simple)
    assert "WF05" in [d.rule for d in report.diagnostics]


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def test_b01_offset_past_allocation(compiled_simple):
    pe = array_pat(map_stmt(compiled_simple))
    b = binding_of(pe)
    # Shift the whole row one element to the right: the last write now
    # lands at offset n, one past the block's n elements.
    shifted = IndexFn((lmad(1, [(SymExpr.var("n"), 1)]),))
    pe.mem = MemBinding(b.mem, shifted)
    report = verify_fun(compiled_simple)
    assert "B01" in [d.rule for d in report.diagnostics]


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
def test_l01_stale_last_use(compiled_simple):
    # Claim `x` dies at the map although the reduce still reads it.  Any
    # consumer of last_uses would be licensed to reuse x's buffer there.
    stmt = map_stmt(compiled_simple)
    stmt.last_uses = frozenset(stmt.last_uses) | {"x"}
    report = verify_fun(compiled_simple)
    assert "L01" in [d.rule for d in report.diagnostics]


def test_l01_through_the_enclosing_block_chain(compiled_simple):
    # A stale annotation *inside* a nested block: nothing later in that
    # block reads the name, so the validator has to climb the chain of
    # enclosing blocks to find who still observes it.
    body = map_stmt(compiled_simple).exp.lam.body
    read = find_stmt(compiled_simple, lambda s: isinstance(s.exp, A.Index))
    assert read in body.stmts
    read.last_uses = frozenset(read.last_uses) | {"x"}
    report = verify_fun(compiled_simple)
    assert [d.rule for d in report.errors] == ["L01"]
    assert "re-execution of the enclosing loop/map" in report.errors[0].message

    # Same damage under an `if` (which does not re-execute): the later
    # reader is a statement of the enclosing block.
    b = FunBuilder("g")
    x = b.param("x", f32(n))
    br = b.if_(b.binop("<", b.index(x, [0]), 0.0))
    for side in (br.then_builder, br.else_builder):
        side.returns(side.index(x, [1]))
    (picked,) = br.end()
    b.returns(picked, b.reduce("+", x))
    fun = compile_fun(b.build(), pipeline="nosc").fun
    assert verify_fun(fun).ok()
    branch = find_stmt(fun, lambda s: isinstance(s.exp, A.If)).exp.then_block
    branch.stmts[0].last_uses = frozenset({"x"})
    report = verify_fun(fun)
    assert [d.rule for d in report.errors] == ["L01"]
    assert "of an enclosing block" in report.errors[0].message


def test_l02_alloc_after_use(compiled_simple):
    block = compiled_simple.body
    alloc = find_stmt(compiled_simple, lambda s: isinstance(s.exp, A.Alloc))
    block.stmts.remove(alloc)
    block.stmts.append(alloc)
    report = verify_fun(compiled_simple)
    assert "L02" in [d.rule for d in report.diagnostics]


# ----------------------------------------------------------------------
# Races
# ----------------------------------------------------------------------
def test_r01_rebase_clobbers_live_input(compiled_simple):
    # Simulate a broken short-circuiting commit: re-home the fresh map
    # result onto the input's block.  The map's writes now land on x,
    # which the reduce reads afterwards -- with no value flow to excuse it.
    pe = array_pat(map_stmt(compiled_simple))
    b = binding_of(pe)
    pe.mem = MemBinding(param_mem_name("x"), b.ixfn)
    report = verify_fun(compiled_simple)
    assert "R01" in [d.rule for d in report.diagnostics]
    # The annotation bug is observable: the executor (which trusts the
    # annotations) now disagrees with the source semantics.
    ex = MemExecutor(compiled_simple)
    vals, _ = ex.run(x=np.arange(4, dtype=np.float32))
    got_sum = vals[1]
    assert got_sum != np.arange(4, dtype=np.float32).sum()


def test_r02_threads_share_an_element(compiled_simple):
    # All n threads of the map write through a stride-0 row: every
    # thread stores to offset 0 of the block.
    pe = array_pat(map_stmt(compiled_simple))
    b = binding_of(pe)
    squashed = IndexFn((lmad(0, [(SymExpr.var("n"), 0)]),))
    pe.mem = MemBinding(b.mem, squashed)
    report = verify_fun(compiled_simple)
    assert "R02" in [d.rule for d in report.diagnostics]


def _composed_read_fun() -> A.Fun:
    """``X = map i<8. 2*y[i]`` beside a reduce over the flattened
    transpose of ``x``'s top two rows -- a zero-copy view whose index
    function is a two-LMAD composition covering offsets 0..11 of
    ``x_mem``."""
    b = FunBuilder("g")
    x = b.param("x", f32(4, 6))
    y = b.param("y", f32(8))
    mp = b.map_(8, index="i")
    mp.returns(mp.binop("*", mp.index(y, [mp.idx]), 2.0))
    (X,) = mp.end()
    top = b.slice(x, [(0, 2, 1), (0, 6, 1)])
    s = b.reduce("+", b.flatten(b.transpose(top)))
    b.returns(X, s)
    return b.build()


def test_r04_composed_region_on_a_shared_block():
    # Re-home the map result into x's block, as in the R01 case, but the
    # later reader goes through a composed index function, which only
    # the polyhedral tier can reason about.
    def rehomed(offset: int):
        fun = compile_fun(_composed_read_fun(), pipeline="nosc").fun
        pe = array_pat(map_stmt(fun))
        pe.mem = MemBinding(
            param_mem_name("x"), IndexFn((lmad(offset, [(8, 1)]),))
        )
        return verify_fun(fun)

    # Offsets 12..19: exactly EMPTY against 0..11, so the pair passes.
    disjoint = rehomed(12)
    assert disjoint.ok() and not disjoint.diagnostics
    assert disjoint.tiers.get("polyhedral") == 1
    # Offsets 8..15 meet the view at 8..11: no proof, and no single-LMAD
    # region to name in an R01 -- the checker says it cannot tell.
    overlapping = rehomed(8)
    assert [d.rule for d in overlapping.warnings] == ["R04"]
    assert "composed index function" in overlapping.warnings[0].message
    assert not overlapping.errors and not overlapping.ok()


def test_wf06_loop_parameter_without_binding():
    """A loop parameter is a binder like any pattern element: WF06 is
    WF01 for it."""
    fun = compile_fun(
        _carried_update_loop(drift=False), pipeline="unopt", cache=False
    ).fun
    assert verify_fun(fun).ok()
    loop = find_stmt(fun, lambda s: isinstance(s.exp, A.Loop)).exp
    (prm, _init), = loop.carried
    assert binding_of(prm).mem.startswith("lmem_")
    prm.mem = None
    report = verify_fun(fun)
    # (WF02 fires too: the body's views still name the now-unbound lmem)
    assert "WF06" in [d.rule for d in report.diagnostics]
    assert any(
        d.rule == "WF06" and "'Xc' has no memory binding" in d.message
        for d in report.errors
    )


# ----------------------------------------------------------------------
# Dependence distance (R03 refinement)
# ----------------------------------------------------------------------
def _carried_update_loop(drift: bool) -> A.Fun:
    """A loop doing two in-place point updates on its carried array: one
    at ``i`` and one at ``2*i`` (drifting) or ``i`` again (lockstep)."""
    from repro.ir import FunBuilder, f32
    from repro.symbolic import Var

    b = FunBuilder("wr")
    k = b.size_param("k")
    b.assume_lower("k", 1)
    x = b.param("x", f32(Var("n")))
    b.assume_lower("n", 1)
    lp = b.loop(count=k, carried=[("Xc", x)], index="i")
    v = lp.lit(1.0)
    X2 = lp.update_point(lp["Xc"], [lp.idx], v)
    X3 = lp.update_point(X2, [2 * lp.idx if drift else lp.idx], v)
    lp.returns(X3)
    (Xf,) = lp.end()
    b.returns(Xf)
    return b.build()


def test_r03_lockstep_dependent_writes_exempt():
    # Both writes shift by one element per iteration: the overlap
    # pattern is iteration-invariant, covered by the carried flow.
    fun = compile_fun(_carried_update_loop(drift=False), verify=False).fun
    report = verify_fun(fun)
    assert report.ok(), report.render()


def test_r03_drifting_dependent_write_flagged():
    # The second write slides at twice the rate of the first: name-level
    # dataflow alone no longer licenses the overlap.
    fun = compile_fun(_carried_update_loop(drift=True), verify=False).fun
    report = verify_fun(fun)
    assert "R03" in [d.rule for d in report.diagnostics]


def test_slides_together_distance_vectors():
    from repro.analysis.races import RaceChecker
    from repro.symbolic import Context, Prover

    prover = Prover(Context())
    i = SymExpr.var("i")
    four = SymExpr.const(4)
    row = lambda off: lmad(off, [(four, SymExpr.const(1))])
    assert RaceChecker._slides_together(row(i * 8), row(i * 8 + 2), "i", prover)
    assert not RaceChecker._slides_together(row(i * 8), row(i * 4), "i", prover)
    # Index-dependent stride: the region's shape changes per iteration.
    skewed = lmad(i * 8, [(four, i + 1)])
    assert not RaceChecker._slides_together(skewed, row(i * 8), "i", prover)


# ----------------------------------------------------------------------
# Free annotations
# ----------------------------------------------------------------------
def _consumed_map_fun() -> A.Fun:
    """``X = map 2*x; s = reduce X; return s`` -- X's block is freed at
    the reduce (its last touch) by the pipeline's annotation pass."""
    from repro.ir import FunBuilder, f32
    from repro.symbolic import Var

    b = FunBuilder("consumed")
    n = Var("n")
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (X,) = mp.end()
    s = b.reduce("+", X)
    b.returns(s)
    return b.build()


def test_f01_free_before_later_touch():
    fun = compile_fun(_consumed_map_fun(), pipeline="nosc").fun
    freeing = find_stmt(fun, lambda s: s.mem_frees)
    mem = freeing.mem_frees[0]
    freeing.mem_frees = ()
    map_stmt(fun).mem_frees = (mem,)  # freed while the reduce still reads
    report = verify_fun(fun)
    assert "F01" in [d.rule for d in report.diagnostics]


def test_f01_free_of_result_reachable_block(compiled_simple):
    # simple_fun returns X: its block escapes and must never be freed.
    pe = array_pat(map_stmt(compiled_simple))
    map_stmt(compiled_simple).mem_frees = (binding_of(pe).mem,)
    report = verify_fun(compiled_simple)
    assert "F01" in [d.rule for d in report.diagnostics]


def test_f02_free_of_unallocated_param_block(compiled_simple):
    stmt = compiled_simple.body.stmts[-1]
    stmt.mem_frees = (param_mem_name("x"),)
    report = verify_fun(compiled_simple)
    assert "F02" in [d.rule for d in report.diagnostics]


def test_f02_free_of_outer_block_inside_kernel(compiled_simple):
    pe = array_pat(map_stmt(compiled_simple))
    body = map_stmt(compiled_simple).exp.lam.body
    body.stmts[-1].mem_frees = (binding_of(pe).mem,)
    report = verify_fun(compiled_simple)
    assert "F02" in [d.rule for d in report.diagnostics]


def test_verify_option_raises_on_broken_pass(monkeypatch):
    """compile_fun(verify=True) turns verifier errors into exceptions."""
    from repro.analysis import VerificationError
    from repro.mem import introduce as I

    original = I.introduce_memory

    def sabotaged(fun):
        out = original(fun)
        array_pat(map_stmt(out)).mem = None
        return out

    monkeypatch.setattr("repro.compiler.introduce_memory", sabotaged)
    try:
        compile_fun(simple_fun(), pipeline="nosc", verify=True)
    except VerificationError as e:
        assert e.stage == "introduce_memory"
        assert "WF01" in [d.rule for d in e.report.diagnostics]
    else:
        raise AssertionError("verify=True did not flag the broken stage")


def test_verify_option_clean_program_keeps_reports():
    cf = compile_fun(simple_fun(), verify=True)
    assert set(cf.verify_reports) == {
        "introduce_memory", "hoist+last_use", "short_circuit", "fuse", "reuse"
    }
    assert all(r.ok() for r in cf.verify_reports.values())
