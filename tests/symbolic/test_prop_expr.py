"""Property-based tests: SymExpr arithmetic must agree with integer evaluation.

These are the load-bearing invariants: the entire non-overlap prover is built
on polynomial arithmetic, so a single wrong coefficient would silently break
short-circuiting legality.  Hypothesis generates random expressions and random
integer environments and cross-checks every operation against plain ints.
"""


from hypothesis import given, settings, strategies as st

from repro.symbolic import Context, Prover, SymExpr, Var, sym

VARS = ["a", "b", "c", "d"]


@st.composite
def exprs(draw, max_depth: int = 4):
    """Random SymExpr built from a small operator grammar."""
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        if draw(st.booleans()):
            return Var(draw(st.sampled_from(VARS)))
        return sym(draw(st.integers(-20, 20)))
    op = draw(st.sampled_from(["add", "sub", "mul", "neg", "pow"]))
    left = draw(exprs(max_depth=depth - 1))
    if op == "neg":
        return -left
    if op == "pow":
        return left ** draw(st.integers(0, 2))
    right = draw(exprs(max_depth=depth - 1))
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    return left * right


envs = st.fixed_dictionaries({v: st.integers(-10, 10) for v in VARS})


@given(exprs(), exprs(), envs)
def test_add_matches_int_eval(e1, e2, env):
    assert (e1 + e2).evaluate(env) == e1.evaluate(env) + e2.evaluate(env)


@given(exprs(), exprs(), envs)
def test_sub_matches_int_eval(e1, e2, env):
    assert (e1 - e2).evaluate(env) == e1.evaluate(env) - e2.evaluate(env)


@given(exprs(max_depth=3), exprs(max_depth=3), envs)
def test_mul_matches_int_eval(e1, e2, env):
    assert (e1 * e2).evaluate(env) == e1.evaluate(env) * e2.evaluate(env)


@given(exprs(), envs)
def test_neg_matches_int_eval(e, env):
    assert (-e).evaluate(env) == -e.evaluate(env)


@given(exprs(max_depth=2), st.integers(0, 3), envs)
def test_pow_matches_int_eval(e, p, env):
    assert (e**p).evaluate(env) == e.evaluate(env) ** p


@given(exprs(), exprs())
def test_normal_form_is_canonical(e1, e2):
    """Structurally different constructions of equal polynomials compare equal."""
    assert (e1 + e2) - e2 == e1
    assert e1 - e1 == sym(0)


@given(exprs(max_depth=3), exprs(max_depth=3), envs)
def test_div_exact_is_inverse_of_mul(e1, e2, env):
    product = e1 * e2
    if not e2.is_zero():
        quotient = product.div_exact(e2)
        # Exact division may conservatively fail (None) but when it answers
        # it must be the true quotient.
        if quotient is not None:
            assert (quotient * e2) == product
            assert quotient.evaluate(env) * e2.evaluate(env) == product.evaluate(env)


@given(exprs(max_depth=3), envs)
def test_substitute_then_eval_matches_extended_eval(e, env):
    """Substituting x := a+1 then evaluating == evaluating with x = a+1."""
    sub = e.substitute({"a": Var("b") + 1})
    env2 = dict(env)
    env2["a"] = env["b"] + 1
    assert sub.evaluate(env) == e.evaluate(env2)


@given(exprs(max_depth=3))
def test_hash_eq_contract(e):
    clone = SymExpr(dict(e.terms))
    assert clone == e
    assert hash(clone) == hash(e)


@given(exprs(max_depth=3), envs)
def test_content_divides_all_coefficients(e, env):
    g = e.content()
    if g:
        assert all(c % g == 0 for c in e.terms.values())


@settings(max_examples=60)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_prover_soundness_on_samples(alo, blo, aval_off, bval_off):
    """If the prover says e >= 0 under bounds, it must hold at sample points."""
    a, b = Var("a"), Var("b")
    ctx = Context().assume_lower("a", alo).assume_lower("b", blo)
    p = Prover(ctx)
    candidates = [
        a * b - alo * blo,
        a - alo,
        b - blo,
        a + b - alo - blo,
        a * a - alo * alo,
        a - alo - 1,  # not always provable/true
    ]
    env = {"a": alo + aval_off - 1, "b": blo + bval_off - 1}
    # Sample points satisfying the bounds only:
    if env["a"] < alo or env["b"] < blo:
        return
    for e in candidates:
        if p.nonneg(e):
            assert e.evaluate(env) >= 0, f"unsound: {e} at {env}"
