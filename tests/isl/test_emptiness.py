"""Exactness of the emptiness decision, checked against brute force.

The contract (DESIGN.md §11): ``EMPTY`` is always exact, ``NONEMPTY``
is exact because every generated set here is affine with concrete
coefficients (no parameter lifting involved), and ``UNKNOWN`` is an
allowed answer for anything.  The randomized differential enforces the
two directions that matter:

* no false ``EMPTY`` -- an enumerated witness refutes it immediately;
* no false ``NONEMPTY`` -- every generated set carries explicit box
  bounds, so an exhaustive grid scan is a complete witness search.
"""

import random

import pytest

from repro.isl.emptiness import Verdict, basic_empty
from repro.isl.terms import BasicSet, Constraint, IntSet, stride_constraint
from repro.symbolic import Context, Prover, SymExpr

x = SymExpr.var("x")
y = SymExpr.var("y")

BOUND = 6  # every random set lives in [-BOUND, BOUND]^2


def prover():
    return Prover(Context())


def boxed(constraints, exists=()):
    base = [
        Constraint.ge(x + BOUND),
        Constraint.ge(-x + BOUND),
        Constraint.ge(y + BOUND),
        Constraint.ge(-y + BOUND),
    ]
    return BasicSet(("x", "y"), tuple(base) + tuple(constraints), exists)


def enumerate_members(s: BasicSet):
    return [
        (i, j)
        for i in range(-BOUND, BOUND + 1)
        for j in range(-BOUND, BOUND + 1)
        if s.contains_point((i, j), exist_bound=4 * BOUND)
    ]


class TestKnownSets:
    def test_empty_box(self):
        s = BasicSet(
            ("x",), (Constraint.ge(x - 5), Constraint.ge(-x + 3))
        )
        assert basic_empty(s, prover()) is Verdict.EMPTY

    def test_nonempty_box(self):
        s = BasicSet(
            ("x",), (Constraint.ge(x), Constraint.ge(-x + 3))
        )
        assert basic_empty(s, prover()) is Verdict.NONEMPTY

    def test_dark_shadow_integer_gap(self):
        """2x == 1 has a rational solution but no integer one."""
        s = BasicSet(("x",), (Constraint.eq(2 * x - 1),))
        assert basic_empty(s, prover()) is Verdict.EMPTY

    def test_stride_gap(self):
        """x even and x odd simultaneously: empty over Z."""
        k1, c1 = stride_constraint(x, 2)
        k2, c2 = stride_constraint(x, 2, 1)
        s = BasicSet(("x",), (c1, c2), (k1, k2))
        assert basic_empty(s, prover()) is Verdict.EMPTY

    def test_strides_meet(self):
        """Multiples of 2 and of 3 share 6k: nonempty."""
        k1, c1 = stride_constraint(x, 2)
        k2, c2 = stride_constraint(x, 3)
        s = BasicSet(
            ("x",),
            (c1, c2, Constraint.ge(x - 1), Constraint.ge(-x + 12)),
            (k1, k2),
        )
        assert basic_empty(s, prover()) is Verdict.NONEMPTY

    def test_symbolic_parameter_empty(self):
        """0 <= x <= n-1 and x >= n is empty for every n."""
        n = SymExpr.var("n")
        s = BasicSet(
            ("x",),
            (
                Constraint.ge(x),
                Constraint.ge(n - 1 - x),
                Constraint.ge(x - n),
            ),
        )
        assert basic_empty(s, prover()) is Verdict.EMPTY

    def test_union_emptiness(self):
        both_empty = IntSet.of(
            BasicSet(("x",), (Constraint.ge(x - 5), Constraint.ge(-x + 3))),
            BasicSet(("x",), (Constraint.eq(2 * x - 1),)),
        )
        verdicts = [basic_empty(p, prover()) for p in both_empty.pieces]
        assert verdicts == [Verdict.EMPTY, Verdict.EMPTY]
        one_full = both_empty.union(
            IntSet.of(BasicSet(("x",), (Constraint.eq(x - 2),)))
        )
        verdicts = [basic_empty(p, prover()) for p in one_full.pieces]
        assert Verdict.NONEMPTY in verdicts


def random_basic_set(rng: random.Random) -> BasicSet:
    cons = []
    exists = []
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = rng.randint(-6, 6)
        expr = a * x + b * y + c
        cons.append(
            Constraint.eq(expr) if rng.random() < 0.25 else Constraint.ge(expr)
        )
    if rng.random() < 0.4:
        m = rng.randint(2, 4)
        k, c = stride_constraint(
            rng.choice([x, y, x + y]), m, rng.randint(0, m - 1)
        )
        cons.append(c)
        exists.append(k)
    return boxed(cons, tuple(exists))


@pytest.mark.parametrize("seed", range(8))
def test_randomized_differential(seed):
    rng = random.Random(1000 + seed)
    p = prover()
    checked = {Verdict.EMPTY: 0, Verdict.NONEMPTY: 0, Verdict.UNKNOWN: 0}
    for _ in range(25):
        s = random_basic_set(rng)
        verdict = basic_empty(s, p)
        members = enumerate_members(s)
        if verdict is Verdict.EMPTY:
            assert not members, (str(s), members[:3])
        elif verdict is Verdict.NONEMPTY:
            assert members, str(s)
        checked[verdict] += 1
    # The generator must exercise both exact verdicts, or the test is
    # vacuous for one direction.
    assert checked[Verdict.EMPTY] > 0
    assert checked[Verdict.NONEMPTY] > 0


@pytest.mark.parametrize("seed", range(4))
def test_randomized_differential_pairs(seed):
    """Intersections of two random sets: the emptiness the passes ask."""
    rng = random.Random(9000 + seed)
    p = prover()
    for _ in range(12):
        a, b = random_basic_set(rng), random_basic_set(rng)
        both = a.intersect(b)
        verdict = basic_empty(both, p)
        members = enumerate_members(both)
        if verdict is Verdict.EMPTY:
            assert not members, str(both)
        elif verdict is Verdict.NONEMPTY:
            assert members, str(both)


class TestSharedPointRefutation:
    """``PolyEngine.accesses_disjoint`` settles a pair whose first points
    provably coincide without running elimination at all."""

    @staticmethod
    def lud_context(z_hi=0):
        b, q = SymExpr.var("b"), SymExpr.var("q")
        ctx = Context()
        ctx.define("n", b * q)
        ctx.assume_lower("b", 2)
        ctx.assume_lower("q", 2)
        ctx.assume_range("k", 0, q - 1)
        ctx.assume_range("z", 0, z_hi)
        return ctx

    @staticmethod
    def block(offset, rows):
        from repro.lmad.lmad import Lmad, LmadDim

        b, n = SymExpr.var("b"), SymExpr.var("n")
        return Lmad(offset, (LmadDim(rows, n), LmadDim(b, SymExpr.const(1))))

    @pytest.fixture
    def no_elimination(self, monkeypatch):
        import repro.isl.emptiness as emptiness

        def boom(*args, **kw):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(emptiness, "_empty_rec", boom)

    def test_lud_pair_is_nonempty_by_inspection(self, no_elimination):
        """lud's width-1 map: ``b*k*n + b*k + z`` against ``b*k*n + b*k``
        under ``0 <= z <= 0``, every extent ``b >= 2``."""
        from repro.isl.engine import PolyEngine

        b, k, n, z = (SymExpr.var(v) for v in "bknz")
        base = b * k * n + b * k
        engine = PolyEngine(Prover(self.lud_context()))
        verdict = engine.accesses_disjoint(
            self.block(base + z, b), self.block(base, b)
        )
        assert verdict is Verdict.NONEMPTY
        assert engine.shared_point == base

    def test_extent_not_provably_positive_is_not_refuted(self, monkeypatch):
        """Equal offsets, but ``m`` may be 0: one side may be empty, so
        the shortcut must not fire (and what elimination then says about
        a lifted parameter is at most UNKNOWN)."""
        import repro.isl.emptiness as emptiness
        from repro.isl.engine import PolyEngine

        ran = []
        real = emptiness._empty_rec
        monkeypatch.setattr(
            emptiness, "_empty_rec",
            lambda *a, **kw: ran.append(1) or real(*a, **kw),
        )
        b, k, n, m = (SymExpr.var(v) for v in "bknm")
        ctx = self.lud_context()
        ctx.assume_range("m", 0, 4)
        base = b * k * n + b * k
        engine = PolyEngine(Prover(ctx))
        verdict = engine.accesses_disjoint(
            self.block(base, m), self.block(base, b)
        )
        assert engine.shared_point is None
        assert ran, "the pair must have gone to elimination"
        assert verdict is not Verdict.NONEMPTY

    def test_offsets_not_provably_equal_are_not_refuted(self):
        from repro.isl.engine import PolyEngine

        b, k, n, z = (SymExpr.var(v) for v in "bknz")
        base = b * k * n + b * k
        engine = PolyEngine(Prover(self.lud_context(z_hi=1)))
        engine.accesses_disjoint(self.block(base + z, b), self.block(base, b))
        assert engine.shared_point is None
