"""Unit tests for the polynomial normal form (repro.symbolic.expr)."""

import pytest

from repro.symbolic import SymExpr, Var, sym


a, b, c = Var("a"), Var("b"), Var("c")


class TestConstruction:
    def test_const_zero_has_no_terms(self):
        assert sym(0).is_zero()
        assert sym(0).terms == {}

    def test_const_value(self):
        assert sym(7).as_int() == 7
        assert sym(-3).as_int() == -3

    def test_var_is_not_constant(self):
        assert not a.is_constant()
        assert a.as_int() is None

    def test_sym_coerces_int(self):
        assert sym(5) == sym(5)

    def test_sym_idempotent_on_expr(self):
        assert sym(a) is a

    def test_sym_rejects_bool(self):
        with pytest.raises(TypeError):
            sym(True)

    def test_sym_rejects_float(self):
        with pytest.raises(TypeError):
            sym(1.5)

    def test_var_rejects_empty_name(self):
        with pytest.raises(TypeError):
            SymExpr.var("")


class TestRingLaws:
    def test_add_commutative(self):
        assert a + b == b + a

    def test_mul_commutative(self):
        assert a * b == b * a

    def test_distributive(self):
        assert a * (b + c) == a * b + a * c

    def test_difference_of_squares(self):
        assert (a + b) * (a - b) == a * a - b * b

    def test_add_int_both_sides(self):
        assert 1 + a == a + 1

    def test_sub_int_left(self):
        # No __rsub__: an int on the left is coerced with sym().
        assert sym(5) - a == -a + 5

    def test_mul_int(self):
        assert 3 * a == a * 3
        assert (3 * a).terms == {(("a", 1),): 3}

    def test_neg(self):
        assert -(a - b) == b - a

    def test_cancellation(self):
        assert (a + b - a - b).is_zero()

    def test_pow_zero_is_one(self):
        assert a**0 == sym(1)

    def test_pow_expansion(self):
        assert (a + 1) ** 2 == a * a + 2 * a + 1

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            a ** (-1)

    def test_zero_annihilates(self):
        assert (a * 0).is_zero()


class TestInspection:
    def test_free_vars(self):
        assert (a * b + c + 1).free_vars() == frozenset({"a", "b", "c"})

    def test_free_vars_constant(self):
        assert sym(4).free_vars() == frozenset()

    def test_degree(self):
        assert (a * a * b + c).degree() == 3
        assert sym(0).degree() == 0

    def test_degree_in(self):
        e = a * a * b + a * c + b
        assert e.degree_in("a") == 2
        assert e.degree_in("b") == 1
        assert e.degree_in("z") == 0

    def test_constant_term(self):
        assert (a + 7).constant_term() == 7
        assert a.constant_term() == 0

    def test_coefficients_in(self):
        e = 3 * a * a + b * a + 5
        coeffs = e.coefficients_in("a")
        assert coeffs[2] == sym(3)
        assert coeffs[1] == b
        assert coeffs[0] == sym(5)

    def test_coefficients_in_reconstruct(self):
        e = a * a * b - 4 * a + c + 2
        coeffs = e.coefficients_in("a")
        rebuilt = sum(
            (coeff * a**p for p, coeff in coeffs.items()), sym(0)
        )
        assert rebuilt == e

    def test_content(self):
        assert (6 * a + 9 * b).content() == 3
        assert sym(0).content() == 0


class TestDivision:
    def test_divide_by_const(self):
        assert (6 * a + 4).div_exact(2) == 3 * a + 2

    def test_divide_by_const_inexact(self):
        assert (6 * a + 3).div_exact(2) is None

    def test_divide_by_var(self):
        assert (a * b + a).div_exact(a) == b + 1

    def test_divide_by_var_inexact(self):
        assert (a * b + 1).div_exact(a) is None

    def test_divide_by_poly(self):
        e = (a + b) * (a - b)
        assert e.div_exact(a + b) == a - b

    def test_divide_by_zero(self):
        assert a.div_exact(0) is None

    def test_divide_self(self):
        e = a * b + 3 * c
        assert e.div_exact(e) == sym(1)

    def test_divide_zero_by_anything(self):
        assert sym(0).div_exact(a + 1) == sym(0)


class TestSubstitution:
    def test_substitute_const(self):
        assert (a * b + 1).substitute({"a": 2}) == 2 * b + 1

    def test_substitute_expr(self):
        n, q = Var("n"), Var("q")
        assert (n * n).substitute({"n": q + 1}) == q * q + 2 * q + 1

    def test_substitute_simultaneous(self):
        # a -> b and b -> a simultaneously, not sequentially.
        e = a + 2 * b
        assert e.substitute({"a": b, "b": a}) == b + 2 * a

    def test_substitute_empty(self):
        e = a + b
        assert e.substitute({}) is e

    def test_evaluate(self):
        e = a * a * b - 3
        assert e.evaluate({"a": 2, "b": 5}) == 17

    def test_evaluate_missing_var(self):
        with pytest.raises(KeyError):
            a.evaluate({})


class TestIdentity:
    def test_eq_int(self):
        assert sym(3) == 3
        assert sym(3) != 4

    def test_hash_consistency(self):
        assert hash(a + b) == hash(b + a)

    def test_usable_as_dict_key(self):
        d = {a + b: 1}
        assert d[b + a] == 1

    def test_no_truthiness(self):
        with pytest.raises(TypeError):
            bool(a)

    def test_str_roundtrip_sanity(self):
        assert str(sym(0)) == "0"
        assert "a" in str(a + 1)
        s = str(2 * a * a - b + 1)
        assert "2*a^2" in s and "- b" in s

    def test_repr(self):
        assert "SymExpr" in repr(a)
