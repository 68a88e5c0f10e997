"""Tests for sum-of-strided-intervals conversion and offset distribution."""

from repro.lmad import lmad
from repro.lmad.interval import (
    StridedInterval,
    distribute_offset,
    pair_to_sums_of_intervals,
    stride_sort_key,
)
from repro.symbolic import Context, Prover, Var, sym

n, b, q, i = Var("n"), Var("b"), Var("q"), Var("i")


def nw_prover():
    ctx = Context()
    ctx.define("n", q * b + 1)
    ctx.assume_lower("q", 2)
    ctx.assume_lower("b", 2)
    ctx.assume_range("i", 0, q - 1)
    return Prover(ctx)


class TestStridedInterval:
    def test_shift(self):
        iv = StridedInterval(sym(0), b, n)
        s = iv.shifted(1)
        assert s.lo == sym(1)
        assert s.hi == b + 1

    def test_span(self):
        iv = StridedInterval(sym(1), b, n)
        assert iv.span() == b * n

    def test_str(self):
        assert "[0..3]" in str(StridedInterval(sym(0), sym(3), sym(2)))


class TestStrideOrdering:
    def test_constants_before_symbolic(self):
        assert stride_sort_key(sym(1)) < stride_sort_key(n)

    def test_degree_order(self):
        assert stride_sort_key(n) < stride_sort_key(n * b)

    def test_consistent_total_order(self):
        strides = [sym(1), n, n * b - b, sym(4)]
        assert sorted(strides, key=stride_sort_key) == [
            sym(1),
            sym(4),
            n,
            n * b - b,
        ]


class TestDistribution:
    def test_zero_delta(self):
        p = Prover()
        pos, neg = distribute_offset(sym(0), [sym(1), n], p)
        assert pos == {} and neg == {}

    def test_constant_to_stride1(self):
        p = Prover()
        pos, neg = distribute_offset(sym(3), [sym(1), n], p)
        assert pos == {0: sym(3)} and neg == {}

    def test_negative_constant_to_other_side(self):
        p = Prover()
        pos, neg = distribute_offset(sym(-2), [sym(1), n], p)
        assert pos == {} and neg == {0: sym(2)}

    def test_footnote_27_example(self):
        """delta = n*b - b - n - 1 over strides (n*b - b, n, 1):
        +1 on the n*b-b interval of I1, +1 on n and +1 on 1 of I2."""
        p = nw_prover()
        strides = [sym(1), n, n * b - b]
        pos, neg = distribute_offset(n * b - b - n - 1, strides, p)
        assert pos == {2: sym(1)}
        assert neg == {1: sym(1), 0: sym(1)}

    def test_reconstruction_identity(self):
        p = nw_prover()
        strides = [sym(1), n, n * b - b]
        delta = n + 1
        pos, neg = distribute_offset(delta, strides, p)
        total = sym(0)
        for k, amt in pos.items():
            total = total + amt * strides[k]
        for k, amt in neg.items():
            total = total - amt * strides[k]
        assert total == delta

    def test_unmatchable_fails(self):
        p = Prover()
        # No stride matches the variable q at all; only stride is n.
        assert distribute_offset(q, [n], p) is None


class TestPairConversion:
    def test_nw_matches_fig9(self):
        """The converted pair must be exactly fig. 9's W and Rvert sums."""
        p = nw_prover()
        w = lmad(i * b + n + 1, [(i + 1, n * b - b), (b, n), (b, 1)])
        rvert = lmad(i * b, [(i + 1, n * b - b), (b + 1, n)])
        i1, i2 = pair_to_sums_of_intervals(w, rvert, p)
        # ascending stride order: 1, n, n*b-b
        assert i1.intervals[0].lo == sym(1) and i1.intervals[0].hi == b
        assert i1.intervals[1].lo == sym(1) and i1.intervals[1].hi == b
        assert i1.intervals[2].lo == sym(0) and i1.intervals[2].hi == i
        assert i2.intervals[0].lo == sym(0) and i2.intervals[0].hi == sym(0)
        assert i2.intervals[1].lo == sym(0) and i2.intervals[1].hi == b
        assert i2.intervals[2].lo == sym(0) and i2.intervals[2].hi == i

    def test_unit_dims_dropped(self):
        p = Prover()
        a = lmad(0, [(1, 100), (4, 1)])
        bb = lmad(4, [(4, 1)])
        i1, i2 = pair_to_sums_of_intervals(a, bb, p)
        assert len(i1.intervals) == len(i2.intervals)

    def test_negative_strides_normalized(self):
        p = Prover()
        a = lmad(3, [(4, -1)])  # {3,2,1,0}
        bb = lmad(4, [(4, 1)])  # {4,5,6,7}
        pair = pair_to_sums_of_intervals(a, bb, p)
        assert pair is not None
        i1, i2 = pair
        assert i1.intervals[0].lo == sym(0)

    def test_unknown_stride_sign_fails(self):
        p = Prover()
        a = lmad(0, [(4, Var("s"))])
        bb = lmad(0, [(4, 1)])
        assert pair_to_sums_of_intervals(a, bb, p) is None
