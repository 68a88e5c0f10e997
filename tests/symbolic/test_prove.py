"""Tests for the assumption context and inequality prover."""

import pytest

from repro.symbolic import Const, Context, Prover, Sign, Var

a, b, q, n, i = Var("a"), Var("b"), Var("q"), Var("n"), Var("i")


class TestContext:
    def test_define_and_normalize(self):
        ctx = Context()
        ctx.define("n", q * b + 1)
        assert ctx.normalize(n) == q * b + 1

    def test_normalize_fixpoint_chain(self):
        ctx = Context()
        ctx.define("a", b + 1)
        ctx.define("b", q * 2)
        assert ctx.normalize(a) == 2 * q + 1

    def test_define_rejects_self_reference(self):
        ctx = Context()
        with pytest.raises(ValueError):
            ctx.define("a", a + 1)

    def test_child_sees_parent_facts(self):
        parent = Context().define("n", q + 1)
        child = parent.extended()
        assert child.normalize(n) == q + 1

    def test_child_additions_invisible_to_parent(self):
        parent = Context()
        child = parent.extended()
        child.define("n", q)
        assert parent.normalize(n) == n

    def test_numeric_range_const(self):
        assert Context().numeric_range(Const(5)) == (5, 5)

    def test_numeric_range_bounded_var(self):
        ctx = Context().assume_range("a", 2, 10)
        assert ctx.numeric_range(a) == (2, 10)
        assert ctx.numeric_range(3 * a + 1) == (7, 31)

    def test_numeric_range_one_sided(self):
        ctx = Context().assume_lower("a", 1)
        lo, hi = ctx.numeric_range(a)
        assert lo == 1 and hi is None
        lo, hi = ctx.numeric_range(-a)
        assert lo is None and hi == -1

    def test_numeric_range_product_nonneg(self):
        ctx = Context().assume_lower("a", 2).assume_lower("b", 3)
        lo, hi = ctx.numeric_range(a * b)
        assert lo == 6 and hi is None

    def test_numeric_range_symbolic_bound(self):
        # i <= n - 1, n <= 10  =>  i <= 9
        ctx = Context().assume_range("i", 0, n - 1).assume_range("n", 1, 10)
        lo, hi = ctx.numeric_range(i)
        assert lo == 0 and hi == 9

    def test_even_power_nonneg(self):
        ctx = Context()  # 'a' totally unknown
        lo, _ = ctx.numeric_range(a * a)
        assert lo == 0

    def test_bound_merging_tightens(self):
        ctx = Context().assume_lower("a", 1).assume_lower("a", 5)
        assert ctx.numeric_range(a)[0] == 5

    def test_repr_mentions_facts(self):
        ctx = Context().define("n", q).assume_lower("q", 2)
        s = repr(ctx)
        assert "n=q" in s and "q" in s


class TestContextMemos:
    """normalize() and all_equalities() are remembered per equality stamp
    of the whole parent chain -- never past a new definition."""

    def test_normalize_sees_definitions_added_later(self):
        ctx = Context()
        ctx.define("a", b + 1)
        assert ctx.normalize(a) == b + 1
        ctx.define("b", q * 2)
        assert ctx.normalize(a) == 2 * q + 1

    def test_child_memo_follows_an_ancestor(self):
        root = Context()
        root.define("a", b + 1)
        leaf = root.extended().extended()
        assert leaf.normalize(a) == b + 1
        root.define("b", Const(3))
        assert leaf.normalize(a) == Const(4)
        leaf.define("b", Const(5))  # innermost definition wins
        assert leaf.normalize(a) == Const(6)
        assert root.normalize(a) == Const(4)

    def test_bounds_do_not_disturb_the_equality_memo(self):
        ctx = Context()
        ctx.define("n", q * b)
        first = ctx.normalize(n + 1)
        ctx.assume_lower("q", 2)
        assert ctx.normalize(n + 1) is first

    def test_all_equalities_is_a_private_copy(self):
        ctx = Context()
        ctx.define("n", q * b)
        ctx.all_equalities()["n"] = Const(0)
        assert ctx.normalize(n) == q * b

    def test_memo_restarts_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(Context, "NORMALIZE_MEMO_CAP", 4)
        ctx = Context()
        ctx.define("n", q * b)
        for k in range(20):
            assert ctx.normalize(n + k) == q * b + k
        assert len(ctx._eq_cache[2]) <= 4


class TestProverBasics:
    def test_constant_signs(self):
        p = Prover()
        assert p.nonneg(Const(0))
        assert p.nonneg(Const(3))
        assert not p.nonneg(Const(-1))
        assert p.pos(Const(1))
        assert not p.pos(Const(0))

    def test_unknown_var_unprovable(self):
        p = Prover()
        assert not p.nonneg(a)
        assert not p.nonpos(a)
        assert p.sign(a) is Sign.UNKNOWN

    def test_square_nonneg(self):
        assert Prover().nonneg(a * a)

    def test_interval_strategy(self):
        ctx = Context().assume_range("a", 1, 5)
        p = Prover(ctx)
        assert p.pos(a)
        assert p.nonneg(5 - a)
        assert p.sign(a - 6) is Sign.NEGATIVE

    def test_eq_via_normalization(self):
        ctx = Context().define("n", q * b + 1)
        p = Prover(ctx)
        assert p.eq(n - 1, q * b)
        assert p.eq_zero(n - q * b - 1)
        assert not p.eq(n, q * b)

    def test_le_lt(self):
        ctx = Context().assume_range("i", 0, n - 1).assume_lower("n", 1)
        p = Prover(ctx)
        assert p.le(i, n - 1)
        assert p.lt(i, n)
        assert p.nonneg(i)


class TestPosMemo:
    def test_pos_is_proved_once_per_normalized_expression(self, monkeypatch):
        ctx = Context().assume_lower("b", 2).assume_lower("q", 2)
        ctx.define("n", q * b)
        p = Prover(ctx)
        assert p.pos(n - b)  # q*b - b = b*(q - 1): the factored route
        assert not p.pos(q - b)

        def boom(*args, **kw):
            raise AssertionError("pos() proved a remembered question again")

        monkeypatch.setattr(Prover, "_prove_nonneg", boom)
        monkeypatch.setattr(Prover, "_prove_pos_factored", boom)
        assert p.pos(n - b)
        assert p.pos(q * b - b)  # same normal form, same entry
        assert not p.pos(q - b)


class TestBoundSubstitution:
    """The strategy that goes beyond interval arithmetic."""

    def test_symbolic_lower_bound(self):
        # q >= 2, b >= 1: q*b - b + 1 > 0 needs substitution q := 2.
        ctx = Context().assume_lower("q", 2).assume_lower("b", 1)
        assert Prover(ctx).pos(q * b - b + 1)

    def test_upper_bound_substitution(self):
        # i <= q - 1 (symbolic upper bound): (q-1)*b - i*b >= 0.
        ctx = (
            Context()
            .assume_range("i", 0, q - 1)
            .assume_lower("q", 1)
            .assume_lower("b", 0)
        )
        assert Prover(ctx).nonneg((q - 1) * b - i * b)

    def test_nested_substitution(self):
        # n = q*b + 1 with q >= 2, b >= 1:  n - b - 1 >= 0 (since qb >= 2b > b).
        ctx = (
            Context()
            .define("n", q * b + 1)
            .assume_lower("q", 2)
            .assume_lower("b", 1)
        )
        assert Prover(ctx).nonneg(n - b - 1)

    def test_nw_stride_dominance(self):
        """The inequality at the heart of the NW proof (paper fig. 9):

        stride n*b - b must exceed the span (b-1)*n + b of the inner dims.
        """
        ctx = (
            Context()
            .define("n", q * b + 1)
            .assume_lower("q", 2)
            .assume_lower("b", 1)
        )
        p = Prover(ctx)
        span = (b - 1) * n + b
        assert p.sign((n * b - b) - span) is Sign.POSITIVE

    def test_unprovable_stays_unprovable(self):
        # a >= 0 does not imply a - b >= 0.
        ctx = Context().assume_lower("a", 0)
        assert not Prover(ctx).nonneg(a - b)

    def test_soundness_under_true_negatives(self):
        # a in [0, 1], claim a - 2 >= 0 is false and must not be proven.
        ctx = Context().assume_range("a", 0, 1)
        assert not Prover(ctx).nonneg(a - 2)


class TestModuleConveniences:
    """One-off queries: a fresh ``Prover(ctx)`` per question."""

    def test_prove_nonneg(self):
        assert Prover().nonneg(Const(2))
        assert not Prover().nonneg(a)

    def test_prove_pos(self):
        ctx = Context().assume_lower("a", 3)
        assert Prover(ctx).pos(a)

    def test_prove_eq(self):
        assert Prover().eq(a + a, 2 * a)

    def test_prove_le_lt(self):
        ctx = Context().assume_range("a", 0, 4)
        assert Prover(ctx).le(a, 4)
        assert Prover(ctx).lt(a, 5)
        assert not Prover(ctx).lt(a, 4)
