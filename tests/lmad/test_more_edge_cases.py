"""Additional edge-case coverage for the LMAD layer."""

import numpy as np

from repro.lmad import IndexFn, lmad, lmads_nonoverlapping
from repro.lmad.aggregate import aggregate_over_loop
from repro.lmad.interval import synthesize_strides, stride_sort_key
from repro.symbolic import Context, Prover, Var, sym
from tests.lmad import col_major, enumerate_offsets

n, m, i, j = Var("n"), Var("m"), Var("i"), Var("j")


class TestSyntheticStrides:
    """The offset-term distribution extension (paper footnote 14/27)."""

    def test_point_pair_needs_synthesis(self):
        ctx = Context().assume_lower("n", 1)
        ctx.assume_range("i", 0, n - 1)
        ctx.assume_range("j", i + 1, n - 1)
        p = Prover(ctx)
        # Point (i, i) vs point (0, j) of an n x n matrix: disjoint.
        a = lmad(i * (n + 1), [])
        b = lmad(j, [])
        assert lmads_nonoverlapping(a, b, p)

    def test_synthesis_requires_bounded_multiplier(self):
        p = Prover(Context())  # no bounds on anything
        out = synthesize_strides((Var("i") * n), [sym(1)], p)
        assert out == []  # i unbounded: nothing synthesized

    def test_synthesis_extracts_stride(self):
        ctx = Context().assume_range("i", 0, n - 1)
        p = Prover(ctx)
        out = synthesize_strides(Var("i") * n, [sym(1)], p)
        assert out == [n]

    def test_well_matched_terms_not_synthesized(self):
        ctx = Context().assume_range("i", 0, n - 1)
        p = Prover(ctx)
        out = synthesize_strides(Var("i") * n + 3, [sym(1), n], p)
        assert out == []


class TestStrideOrderingEdge:
    def test_mixed_constants_and_symbolic(self):
        strides = [n * n, sym(16), sym(1), n]
        ordered = sorted(strides, key=stride_sort_key)
        assert ordered[0] == sym(1)
        assert ordered[1] == sym(16)
        assert ordered[-1] == n * n


class TestAggregationEdge:
    def test_aggregate_preserves_concrete_union_3d(self):
        p = Prover(Context().assume_lower("n", 1))
        acc = lmad(i * 7, [(2, 3), (3, 1)])
        agg = aggregate_over_loop(acc, "i", 4, p)
        assert agg is not None
        concrete = set()
        for iv in range(4):
            concrete |= set(enumerate_offsets(acc.substitute({"i": iv}), {}))
        assert set(enumerate_offsets(agg, {})) == concrete

    def test_count_zero_loop(self):
        p = Prover()
        agg = aggregate_over_loop(lmad(i * 4, [(2, 1)]), "i", 0, p)
        assert agg is not None
        assert enumerate_offsets(agg, {}) == []


class TestIndexFnEdge:
    def test_rank0_fix_dim_apply(self):
        f = IndexFn.row_major([5]).fix_dim(0, 3)
        assert f.rank == 0
        assert f.apply_concrete([], {}) == 3

    def test_unit_extent_slices(self):
        arr = np.arange(12)
        f = IndexFn.row_major([3, 4]).slice_triplets([(1, 1, 1), (0, 4, 1)])
        assert (arr[f.gather_offsets({})] == arr.reshape(3, 4)[1:2]).all()

    def test_zero_extent_gather(self):
        f = IndexFn.row_major([4]).slice_triplets([(0, 0, 1)])
        assert f.gather_offsets({}).size == 0

    def test_double_reshape_composition_depth(self):
        p = Prover()
        f = IndexFn((col_major([3, 4]),)).flatten(p)  # composed
        g = f.reshape([4, 3], p)  # reshape of a composition
        arr = np.arange(12)
        ref = arr.reshape(4, 3).T.reshape(-1).reshape(4, 3)
        assert (arr[g.gather_offsets({})] == ref).all()

    def test_reverse_of_slice_of_transpose(self):
        arr = np.arange(30)
        f = (
            IndexFn.row_major([5, 6])
            .transpose()
            .slice_triplets([(1, 4, 1), (0, 5, 1)])
            .reverse(1)
        )
        ref = arr.reshape(5, 6).T[1:5, 0:5][:, ::-1]
        assert (arr[f.gather_offsets({})] == ref).all()


class TestOverlapRegressions:
    def test_touching_3d_blocks(self):
        p = Prover(Context().assume_lower("n", 4))
        a = lmad(0, [(2, n * n), (2, n), (2, 1)])
        b = lmad(2, [(2, n * n), (2, n), (2, 1)])
        assert lmads_nonoverlapping(a, b, p)

    def test_interleaved_rows_not_columns(self):
        # Even rows vs odd rows of an n-column matrix.
        p = Prover(Context().assume_lower("n", 1).assume_lower("m", 1))
        even = lmad(0, [(m, 2 * n), (n, 1)])
        odd = lmad(n, [(m, 2 * n), (n, 1)])
        assert lmads_nonoverlapping(even, odd, p)

    def test_same_region_different_shape_not_proven(self):
        p = Prover()
        a = lmad(0, [(4, 4), (4, 1)])  # dense 16
        b = lmad(0, [(16, 1)])  # dense 16, rank 1
        assert not lmads_nonoverlapping(a, b, p)
