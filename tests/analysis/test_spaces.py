"""Negative corpus for the memory-space rule (MS01).

Same method as ``test_verifier.py``: compile a correct program, break
exactly one space invariant the way a buggy pass would, and assert the
matching rule fires (plus a clean bill for the pristine program and for
a legal re-homing, so the corpus cannot pass vacuously).
"""

from repro.analysis import verify_fun
from repro.analysis.diagnostics import Severity
from repro.compiler import compile_fun
from repro.ir import ast as A
from repro.mem.memir import array_bindings
from repro.mem.spaces import SPACES
from repro.symbolic import SymExpr

from tests.analysis.conftest import assign_space, find_stmt, simple_fun


def _alloc_stmt(fun):
    return find_stmt(fun, lambda s: isinstance(s.exp, A.Alloc))


def test_pristine_spaces_are_clean(compiled_simple):
    report = verify_fun(compiled_simple)
    assert report.ok()
    assert not [d for d in report.diagnostics if d.rule.startswith("MS")]


def test_legal_rehoming_is_clean():
    """assign_space replaces the Alloc, the one place a block's space is
    declared: no rule may fire, and no binding changes."""
    fun = compile_fun(simple_fun(), pipeline="nosc").fun
    stmt = _alloc_stmt(fun)
    before = array_bindings(fun)
    assert assign_space(fun, stmt.pattern[0].name, "scratch") == 1
    assert stmt.exp.space == "scratch" and array_bindings(fun) == before
    report = verify_fun(fun)
    assert report.ok(), report.diagnostics


def test_ms01_scratch_overflow_is_rejected():
    """A concrete allocation bigger than the scratchpad is a proven
    capacity violation."""
    fun = compile_fun(simple_fun(), pipeline="nosc").fun
    stmt = _alloc_stmt(fun)
    assign_space(fun, stmt.pattern[0].name, "scratch")
    too_big = SPACES["scratch"].capacity // 4 + 1  # f32 elements
    stmt.exp = A.Alloc(SymExpr.const(too_big), stmt.exp.dtype, "scratch")
    report = verify_fun(fun)
    assert "MS01" in [d.rule for d in report.diagnostics]
    assert any(
        d.rule == "MS01" and d.severity is Severity.ERROR
        for d in report.diagnostics
    )


def test_ms01_symbolic_sizes_are_skipped():
    """Capacity claims about symbolic sizes are not decidable here: a
    scratch block of n elements passes even though n could be huge."""
    fun = compile_fun(simple_fun(), pipeline="nosc").fun
    stmt = _alloc_stmt(fun)
    assign_space(fun, stmt.pattern[0].name, "scratch")
    report = verify_fun(fun)
    assert "MS01" not in [d.rule for d in report.diagnostics]


def test_ms01_unknown_space_name():
    fun = compile_fun(simple_fun(), pipeline="nosc").fun
    stmt = _alloc_stmt(fun)
    stmt.exp = A.Alloc(stmt.exp.size, stmt.exp.dtype, "l2")
    report = verify_fun(fun)
    assert "MS01" in [d.rule for d in report.diagnostics]
    assert report.errors

