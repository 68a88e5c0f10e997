"""Property test: ``eval_sym``'s compiled form agrees with a checked loop.

``eval_sym`` evaluates from a form compiled once per expression
(``SymExpr.compile``).  ``checked`` below is the loop it replaced, kept as a
reference: for random polynomials and environments both give the same
value, or raise the same ``InterpError`` with the same text.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.interp import InterpError, eval_sym
from repro.symbolic import SymExpr

VARS = ("a", "b", "c", "d")

monomials = st.lists(
    st.tuples(st.sampled_from(VARS), st.integers(1, 3)),
    max_size=3, unique_by=lambda vp: vp[0],
).map(lambda m: tuple(sorted(m)))
polys = st.dictionaries(monomials, st.integers(-50, 50), max_size=5).map(SymExpr)
ints = st.integers(-1000, 1000)
int_like = st.one_of(ints, ints.map(np.int64), st.booleans())


def checked(expr, env):
    vals = {}
    for v in expr.free_vars():
        if v not in env:
            raise InterpError(f"unbound scalar {v!r} in index expression")
        val = env[v]
        if isinstance(val, np.generic):
            val = val.item()
        if not isinstance(val, int):
            raise InterpError(f"scalar {v!r} is not an integer: {val!r}")
        vals[v] = val
    return expr.evaluate(vals)


def outcome(f, expr, env):
    try:
        return ("value", f(expr, env))
    except InterpError as e:
        return ("error", str(e))


@settings(max_examples=300, deadline=None)
@given(polys, st.fixed_dictionaries({v: int_like for v in VARS}))
def test_integer_bindings_give_the_checked_value(expr, env):
    val = eval_sym(expr, env)
    assert val == checked(expr, env)
    assert type(val) is int


@settings(max_examples=300, deadline=None)
@given(
    polys,
    st.fixed_dictionaries({
        v: st.one_of(int_like, st.floats(-10, 10), st.none()) for v in VARS
    }),
)
def test_unbound_and_float_bindings_raise_the_checked_error(expr, bindings):
    # ``None`` stands for "unbound": the variable is left out of ``env``.
    env = {v: x for v, x in bindings.items() if x is not None}
    assert outcome(eval_sym, expr, env) == outcome(checked, expr, env)


def test_the_compiled_form_is_built_once_and_never_carried():
    a, b = SymExpr.var("a"), SymExpr.var("b")
    expr = 2 * a * b + a + 3
    ev = expr.compile()
    assert expr.compile() is ev
    assert eval_sym(expr, {"a": 4, "b": 5}) == 47
    for clone in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        assert clone == expr and clone._ev is None
    with pytest.raises(InterpError, match="unbound scalar 'b'"):
        eval_sym(expr, {"a": 4})
