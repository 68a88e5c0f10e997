"""Unit tests for the LMAD data type (repro.lmad.lmad)."""

import numpy as np
import pytest

from repro.lmad import Lmad, LmadDim, lmad
from repro.symbolic import Prover, Var, sym
from tests.lmad import col_major, enumerate_offsets

n, m, k, t, i = Var("n"), Var("m"), Var("k"), Var("t"), Var("i")


class TestConstructors:
    def test_row_major_strides(self):
        l = Lmad.row_major([n, m])
        assert l.offset == sym(0)
        assert l.dims[0] == LmadDim(n, m)
        assert l.dims[1] == LmadDim(m, sym(1))

    def test_col_major_strides(self):
        l = col_major([n, m])
        assert l.dims[0] == LmadDim(n, sym(1))
        assert l.dims[1] == LmadDim(m, n)

    def test_row_major_3d(self):
        l = Lmad.row_major([2, 3, 4])
        assert [d.stride.as_int() for d in l.dims] == [12, 4, 1]

    def test_lmad_helper(self):
        l = lmad(t, [(n, m), (m, 1)])
        assert l.offset == t
        assert l.rank == 2

    def test_dim_helper_coerces_ints(self):
        d = LmadDim(3, 4)
        assert d.shape == sym(3)
        assert d.stride == sym(4)


class TestQueries:
    def test_shape_and_size(self):
        l = lmad(0, [(n, m), (m, 1)])
        assert l.shape == (n, m)
        assert l.size() == n * m

    def test_free_vars(self):
        l = lmad(t, [(n, k)])
        assert l.free_vars() == frozenset({"t", "n", "k"})

    def test_apply_row_major(self):
        l = Lmad.row_major([n, m])
        assert l.apply([i, k]) == i * m + k

    def test_apply_rank_mismatch(self):
        with pytest.raises(ValueError):
            Lmad.row_major([n, m]).apply([i])

    def test_max_offset(self):
        l = Lmad.row_major([3, 4])
        assert l.max_offset().as_int() == 11


class TestTransformations:
    def test_permute_identity(self):
        l = Lmad.row_major([n, m])
        assert l.permute([0, 1]) == l

    def test_transpose_swaps_dims(self):
        l = Lmad.row_major([n, m]).transpose()
        assert l.dims[0] == LmadDim(m, sym(1))
        assert l.dims[1] == LmadDim(n, m)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Lmad.row_major([n, m]).permute([0, 0])

    def test_slice_triplets_column_extraction(self):
        """Paper section IV-B: column i of row-major n x m matrix."""
        l = Lmad.row_major([n, m]).slice_triplets([(0, n, 1), (i, 1, 0)])
        assert l.offset == i
        assert l.dims[0] == LmadDim(n, m)
        assert l.dims[1] == LmadDim(sym(1), sym(0))

    def test_slice_triplets_requires_all_dims(self):
        with pytest.raises(ValueError):
            Lmad.row_major([n, m]).slice_triplets([(0, n, 1)])

    def test_fix_dim_drops_rank(self):
        l = Lmad.row_major([n, m]).fix_dim(0, i)
        assert l.rank == 1
        assert l.offset == i * m

    def test_reverse_1d(self):
        """Paper footnote 13: L_rev = n-1 + {(n : -1)}."""
        l = Lmad.row_major([n]).reverse(0)
        assert l.offset == n - 1
        assert l.dims[0].stride == sym(-1)

    def test_compose_slice_nw_vertical_bars(self):
        """NW R_vert slice of a flat array (paper section III-B)."""
        b, q = Var("b"), Var("q")
        flat = Lmad.row_major([n * n])
        rvert = lmad(i * b, [(i + 1, n * b - b), (b + 1, n)])
        sliced = flat.compose_slice(rvert)
        assert sliced.offset == i * b
        assert sliced.dims[0] == LmadDim(i + 1, n * b - b)
        assert sliced.dims[1] == LmadDim(b + 1, n)

    def test_compose_slice_respects_base_stride(self):
        base = lmad(t, [(n, 2)])  # every-other-element view
        s = lmad(1, [(3, 5)])
        out = base.compose_slice(s)
        assert out.offset == t + 2
        assert out.dims[0] == LmadDim(sym(3), sym(10))

    def test_compose_slice_rejects_rank2(self):
        with pytest.raises(ValueError):
            Lmad.row_major([n, m]).compose_slice(lmad(0, [(2, 1)]))


class TestReshape:
    def test_coalesce_row_major(self):
        p = Prover()
        flat = Lmad.row_major([4, 5]).coalesce_all(p)
        assert flat is not None
        assert flat.dims[0] == LmadDim(sym(20), sym(1))

    def test_coalesce_symbolic(self):
        p = Prover()
        flat = Lmad.row_major([n, m]).coalesce_all(p)
        assert flat is not None
        assert flat.dims[0].shape == n * m

    def test_coalesce_fails_on_transposed(self):
        p = Prover()
        assert Lmad.row_major([4, 5]).transpose().coalesce_all(p) is None

    def test_coalesce_rank0(self):
        p = Prover()
        flat = Lmad(sym(7), ()).coalesce_all(p)
        assert flat is not None and flat.rank == 1

    def test_split_into(self):
        p = Prover()
        l = Lmad.row_major([24]).split_into([2, 3, 4], p)
        assert l is not None
        assert [d.stride.as_int() for d in l.dims] == [12, 4, 1]

    def test_split_rejects_wrong_size(self):
        p = Prover()
        assert Lmad.row_major([24]).split_into([2, 3, 5], p) is None

    def test_reshape_roundtrip(self):
        p = Prover()
        l = Lmad.row_major([6, 4]).reshape([3, 8], p)
        assert l is not None
        arr = np.arange(24)
        got = np.array(enumerate_offsets(l, {})).reshape(3, 8)
        assert (arr.reshape(6, 4).reshape(3, 8) == arr[got]).all()

    def test_reshape_of_colmajor_fails(self):
        p = Prover()
        assert col_major([4, 5]).reshape([20], p) is None


class TestSetOperations:
    def test_normalize_positive_noop(self):
        p = Prover()
        l = Lmad.row_major([4, 5])
        assert l.normalize_positive(p) == l

    def test_normalize_positive_reversed(self):
        p = Prover()
        rev = Lmad.row_major([5]).reverse(0)
        norm = rev.normalize_positive(p)
        assert norm is not None
        assert norm.offset == sym(0)
        assert norm.dims[0].stride == sym(1)
        # Same abstract set:
        assert sorted(enumerate_offsets(rev, {})) == sorted(
            enumerate_offsets(norm, {})
        )

    def test_normalize_unknown_sign_fails(self):
        p = Prover()
        l = lmad(0, [(4, k)])  # sign of k unknown
        assert l.normalize_positive(p) is None

    def test_drop_unit_dims(self):
        p = Prover()
        l = lmad(3, [(1, 9), (4, 1)]).drop_unit_dims(p)
        assert l.rank == 1

    def test_is_contiguous(self):
        p = Prover()
        assert Lmad.row_major([4, 5]).coalesce_all(p).dims == (LmadDim(20, 1),)
        assert Lmad.row_major([4, 5]).transpose().coalesce_all(p) is None
        assert lmad(0, [(4, 2)]).coalesce_all(p).dims == (LmadDim(4, 2),)


class TestConcrete:
    def test_enumerate_offsets_row_major(self):
        l = Lmad.row_major([2, 3])
        assert enumerate_offsets(l, {}) == [0, 1, 2, 3, 4, 5]

    def test_enumerate_offsets_strided(self):
        l = lmad(1, [(3, 4)])
        assert enumerate_offsets(l, {}) == [1, 5, 9]

    def test_enumerate_with_env(self):
        l = lmad(t, [(n, 2)])
        assert enumerate_offsets(l, {"t": 10, "n": 3}) == [10, 12, 14]

    def test_concrete_shape(self):
        l = lmad(0, [(n, 1)])
        assert l.concrete_shape({"n": 7}) == (7,)

    def test_concrete_shape_unbound_raises(self):
        l = lmad(0, [(n, 1)])
        with pytest.raises((ValueError, KeyError)):
            l.concrete_shape({})

    def test_paper_ii_b_aggregated_write_set(self):
        """Section II-B: W = t + {(m:m),(n:k)} covers the loop's writes."""
        tv, mv, nv, kv = 1, 8, 3, 2
        env = {"t": tv, "m": mv, "n": nv, "k": kv}
        w = lmad(t, [(m, m), (n, k)])
        expected = sorted(
            tv + iv * mv + jv * kv for iv in range(mv) for jv in range(nv)
        )
        assert sorted(enumerate_offsets(w, env)) == expected

    def test_str_rendering(self):
        assert str(lmad(t, [(n, 1)])) == "t + {(n : 1)}"
