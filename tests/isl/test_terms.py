"""Unit tests for the affine set/relation term language (DESIGN.md §11)."""

from repro.isl.terms import (
    BasicRel,
    BasicSet,
    Constraint,
    IntSet,
    stride_constraint,
)
from repro.symbolic import SymExpr

x = SymExpr.var("x")
y = SymExpr.var("y")


def box(lo, hi, var=x, name="x"):
    return BasicSet(
        (name,), (Constraint.ge(var - lo), Constraint.ge(-var + hi))
    )


class TestConstraint:
    def test_negation_of_inequality(self):
        (neg,) = Constraint.ge(x).negated()
        # not (x >= 0)  ==  -x - 1 >= 0  ==  x <= -1
        assert neg.expr.evaluate({"x": -1}) == 0
        assert neg.expr.evaluate({"x": 0}) == -1

    def test_negation_of_equality_is_two_armed(self):
        arms = Constraint.eq(x).negated()
        assert len(arms) == 2
        # x == 1 satisfies one arm, x == -1 the other, x == 0 neither.
        assert sum(a.expr.evaluate({"x": 1}) >= 0 for a in arms) == 1
        assert sum(a.expr.evaluate({"x": -1}) >= 0 for a in arms) == 1
        assert all(a.expr.evaluate({"x": 0}) < 0 for a in arms)

    def test_affinity_check(self):
        assert Constraint.ge(x * 3 + y - 1).is_affine_in(["x", "y"])
        assert not Constraint.ge(x * x).is_affine_in(["x"])
        assert not Constraint.ge(x * y).is_affine_in(["x", "y"])
        # A parameter coefficient is fine: n*x is affine in x alone.
        n = SymExpr.var("n")
        assert Constraint.ge(n * x).is_affine_in(["x"])

    def test_stride_constraint_membership(self):
        k, c = stride_constraint(x, 3)
        s = BasicSet(("x",), (c,), (k,))
        assert s.contains_point((6,))
        assert s.contains_point((0,))
        assert not s.contains_point((7,))

    def test_stride_constraint_with_residue(self):
        k, c = stride_constraint(x, 4, 1)
        s = BasicSet(("x",), (c,), (k,))
        assert s.contains_point((5,))
        assert not s.contains_point((4,))


class TestBasicSet:
    def test_contains_point(self):
        s = box(0, 9)
        assert s.contains_point((0,)) and s.contains_point((9,))
        assert not s.contains_point((10,)) and not s.contains_point((-1,))

    def test_contains_point_with_env_parameters(self):
        n = SymExpr.var("n")
        s = BasicSet(
            ("x",), (Constraint.ge(x), Constraint.ge(n - 1 - x))
        )
        assert s.contains_point((3,), env={"n": 4})
        assert not s.contains_point((4,), env={"n": 4})

    def test_intersect_requires_same_dims(self):
        import pytest

        with pytest.raises(ValueError):
            box(0, 1).intersect(box(0, 1, var=y, name="y"))

    def test_intersect_refreshes_clashing_existentials(self):
        k1, c1 = stride_constraint(x, 2)
        a = BasicSet(("x",), (c1,), (k1,))
        # Reuse the *same* existential name in the second set: even = both.
        b = BasicSet(
            ("x",),
            (Constraint.eq(x - SymExpr.var(k1) * 3),),
            (k1,),
        )
        both = a.intersect(b)
        assert len(set(both.exists)) == 2
        assert both.contains_point((6,))  # 6 = 2*3 = 3*2
        assert not both.contains_point((2,))  # even but not a multiple of 3

    def test_project_onto_exists(self):
        s = BasicSet(
            ("x", "y"),
            (Constraint.eq(y - 2 * x), Constraint.ge(x), Constraint.ge(-x + 2)),
        )
        img = s.project_onto_exists(["x"])
        assert img.dims == ("y",)
        assert img.contains_point((4,))
        assert not img.contains_point((3,))


class TestIntSet:
    def test_difference_is_union_of_negated_atoms(self):
        whole = IntSet.of(box(0, 9))
        hole = box(3, 5)
        diff = whole.difference(hole)
        for p in range(0, 10):
            assert diff.contains_point((p,)) == (p < 3 or p > 5), p
        assert not diff.contains_point((10,))

    def test_difference_rejects_quantified_subtrahend(self):
        import pytest

        k, c = stride_constraint(x, 2)
        evens = BasicSet(("x",), (c,), (k,))
        with pytest.raises(ValueError):
            IntSet.of(box(0, 9)).difference(evens)

    def test_union_membership(self):
        u = IntSet.of(box(0, 1)).union(IntSet.of(box(5, 6)))
        assert u.contains_point((1,)) and u.contains_point((5,))
        assert not u.contains_point((3,))


class TestBasicRel:
    def rel_scale(self, factor, lo=0, hi=9):
        """{ [x] -> [y] : y == factor*x and lo <= x <= hi }"""
        return BasicRel(
            ("x",),
            ("y",),
            (
                Constraint.eq(y - factor * x),
                Constraint.ge(x - lo),
                Constraint.ge(-x + hi),
            ),
        )

    def test_range_existentializes_inputs(self):
        img = self.rel_scale(3).range()
        assert img.dims == ("y",)
        assert img.contains_point((9,))
        assert not img.contains_point((8,))

    def test_compose_chains_maps(self):
        double = self.rel_scale(2)
        triple = self.rel_scale(3, hi=18).rename({"x": "u", "y": "v"})
        six = double.compose(triple)
        assert six.in_dims == ("x",)
        # x -> 6x through an existential middle; 12 = 6*2 reachable.
        assert six.as_set().contains_point((2, 12), exist_bound=20)
        assert not six.as_set().contains_point((2, 13), exist_bound=20)

    def test_compose_arity_mismatch(self):
        import pytest

        two_out = BasicRel(("x",), ("a", "b"))
        with pytest.raises(ValueError):
            two_out.compose(self.rel_scale(2))

    def test_intersect_domain_renames(self):
        r = self.rel_scale(2, hi=100)
        dom = box(0, 3, var=SymExpr.var("d"), name="d")
        rd = r.intersect_domain(dom)
        assert rd.as_set().contains_point((3, 6))
        assert not rd.as_set().contains_point((4, 8))
