"""Tests for the LMAD non-overlap test (paper fig. 8 / section V-C)."""

import itertools

import pytest

from repro.lmad import Lmad, NonOverlapChecker, lmad, lmads_nonoverlapping
from repro.lmad.overlap import lmad_injective
from repro.symbolic import Context, Prover, Var
from tests.lmad import enumerate_offsets


class TestConcreteCases:
    def test_disjoint_ranges(self):
        a = lmad(0, [(10, 1)])
        b = lmad(10, [(10, 1)])
        assert lmads_nonoverlapping(a, b)

    def test_adjacent_touching_not_overlapping(self):
        a = lmad(0, [(5, 1)])
        b = lmad(5, [(5, 1)])
        assert lmads_nonoverlapping(a, b)

    def test_overlapping_ranges_not_proven(self):
        a = lmad(0, [(10, 1)])
        b = lmad(5, [(10, 1)])
        assert not lmads_nonoverlapping(a, b)

    def test_interleaved_strides(self):
        """Evens vs odds: same span, stride 2, offsets 0/1 -> disjoint."""
        a = lmad(0, [(8, 2)])
        b = lmad(1, [(8, 2)])
        assert lmads_nonoverlapping(a, b)

    def test_same_lmad_not_proven(self):
        a = lmad(0, [(8, 2)])
        assert not lmads_nonoverlapping(a, a)

    def test_2d_row_blocks(self):
        """Two row blocks of a 10-column matrix."""
        top = lmad(0, [(3, 10), (10, 1)])
        bottom = lmad(30, [(3, 10), (10, 1)])
        assert lmads_nonoverlapping(top, bottom)

    def test_2d_column_blocks(self):
        left = lmad(0, [(4, 10), (5, 1)])
        right = lmad(5, [(4, 10), (5, 1)])
        assert lmads_nonoverlapping(left, right)

    def test_column_vs_rest_of_matrix(self):
        col0 = lmad(0, [(4, 10)])
        col3 = lmad(3, [(4, 10)])
        assert lmads_nonoverlapping(col0, col3)

    def test_empty_lmad_trivially_disjoint(self):
        empty = lmad(0, [(0, 1)])
        other = lmad(0, [(10, 1)])
        assert lmads_nonoverlapping(empty, other)


class TestSymbolicCases:
    def test_disjoint_halves_symbolic(self):
        n = Var("n")
        ctx = Context().assume_lower("n", 1)
        p = Prover(ctx)
        a = lmad(0, [(n, 1)])
        b = lmad(n, [(n, 1)])
        assert lmads_nonoverlapping(a, b, p)

    def test_rows_i_and_i_plus_1(self):
        n, i = Var("n"), Var("i")
        ctx = Context().assume_lower("n", 1).assume_range("i", 0, n - 2)
        p = Prover(ctx)
        row_i = lmad(i * n, [(n, 1)])
        row_next = lmad((i + 1) * n, [(n, 1)])
        assert lmads_nonoverlapping(row_i, row_next, p)

    def test_unknown_relation_not_proven(self):
        n, mvar = Var("n"), Var("m")
        p = Prover(Context().assume_lower("n", 1).assume_lower("m", 1))
        a = lmad(0, [(n, 1)])
        b = lmad(mvar, [(n, 1)])  # m could be < n
        assert not lmads_nonoverlapping(a, b, p)

    def test_diagonal_vs_first_row_fig1(self):
        """Paper fig. 1 (left): diagonal (stride n+1) vs row 0 (stride 1).

        They share element (0,0), so non-overlap must NOT be proven; the
        paper handles fig. 1 via last-use (the row read happens before the
        diagonal write in the same map), not via disjointness.
        """
        n = Var("n")
        p = Prover(Context().assume_lower("n", 2))
        diag = lmad(0, [(n, n + 1)])
        row0 = lmad(0, [(n, 1)])
        assert not lmads_nonoverlapping(diag, row0, p)

    def test_diagonal_vs_second_row(self):
        """Diagonal except (1,1) does not meet row 1... but (1,1) is on both:
        again must not be proven."""
        n = Var("n")
        p = Prover(Context().assume_lower("n", 2))
        diag = lmad(0, [(n, n + 1)])
        row1 = lmad(n, [(n, 1)])
        assert not lmads_nonoverlapping(diag, row1, p)


class TestNWFig9:
    """The full NW proof of paper fig. 9."""

    @pytest.fixture
    def prover(self):
        n, q, b, i = Var("n"), Var("q"), Var("b"), Var("i")
        ctx = Context()
        ctx.define("n", q * b + 1)
        ctx.assume_lower("q", 2)
        ctx.assume_lower("b", 2)
        ctx.assume_range("i", 0, q - 1)
        return Prover(ctx)

    @pytest.fixture
    def slices(self):
        n, b, i = Var("n"), Var("b"), Var("i")
        w = lmad(i * b + n + 1, [(i + 1, n * b - b), (b, n), (b, 1)])
        rvert = lmad(i * b, [(i + 1, n * b - b), (b + 1, n)])
        rhoriz = lmad(i * b + 1, [(i + 1, n * b - b), (b, 1)])
        return w, rvert, rhoriz

    def test_w_vs_rvert(self, prover, slices):
        w, rvert, _ = slices
        assert lmads_nonoverlapping(w, rvert, prover)

    def test_w_vs_rhoriz(self, prover, slices):
        w, _, rhoriz = slices
        assert lmads_nonoverlapping(w, rhoriz, prover)

    def test_w_vs_w_not_proven(self, prover, slices):
        w, _, _ = slices
        assert not lmads_nonoverlapping(w, w, prover)

    def test_requires_splitting(self, prover, slices):
        """The paper's extension over Hoeflinger et al. [9]: without
        dimension splitting the NW proof fails."""
        w, rvert, _ = slices
        assert not lmads_nonoverlapping(
            w, rvert, prover, enable_splitting=False
        )

    def test_trace_records_splits(self, prover, slices):
        w, rvert, _ = slices
        chk = NonOverlapChecker(prover)
        assert chk.check(w, rvert)
        assert any("split" in line for line in chk.trace)

    def test_concrete_grid_agrees(self, slices):
        """Ground truth: enumerate offsets for a grid of (q, b, i)."""
        w, rvert, rhoriz = slices
        for qv, bv in itertools.product(range(2, 5), range(2, 4)):
            nv = qv * bv + 1
            for iv in range(qv):
                env = {"q": qv, "b": bv, "n": nv, "i": iv}
                ws = set(enumerate_offsets(w, env))
                assert ws.isdisjoint(enumerate_offsets(rvert, env))
                assert ws.isdisjoint(enumerate_offsets(rhoriz, env))


class TestInjectivity:
    def test_row_major_injective(self):
        assert lmad_injective(Lmad.row_major([4, 5]))

    def test_diagonal_injective(self):
        n = Var("n")
        p = Prover(Context().assume_lower("n", 1))
        assert lmad_injective(lmad(0, [(n, n + 1)]), p)

    def test_zero_stride_not_injective(self):
        assert not lmad_injective(lmad(0, [(4, 0)]))

    def test_overlapping_dims_not_injective(self):
        # stride 2 with inner span 3: {0,1,2,3} x {0,2,4}: 2 reachable twice
        assert not lmad_injective(lmad(0, [(3, 2), (4, 1)]))

    def test_symbolic_blocked_injective(self):
        n, b = Var("n"), Var("b")
        ctx = Context().assume_lower("n", 1).assume_lower("b", 1)
        # blocks of b at stride n*b needs n*b > (b-1)*1, i.e. always true
        p = Prover(ctx)
        assert lmad_injective(lmad(0, [(n, n * b), (b, 1)]), p)

    def test_nw_write_set_injective(self):
        # nw's blocked anti-diagonal write set: i + 1 blocks of b x b
        q, b, i = Var("q"), Var("b"), Var("i")
        n = q * b + 1
        ctx = (
            Context()
            .define("n", n)
            .assume_lower("q", 2)
            .assume_lower("b", 2)
            .assume_range("i", 0, q - 1)
        )
        w = lmad(i * b + n + 1, [(i + 1, n * b - b), (b, n), (b, 1)])
        assert lmad_injective(w, Prover(ctx))
