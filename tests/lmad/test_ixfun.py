"""Tests for index functions, including the paper's fig. 3 walkthrough."""

import copy
import pickle

import numpy as np
import pytest

from repro.lmad import IndexFn, Lmad, lmad
from repro.symbolic import Prover, Var, sym
from tests.lmad import col_major

n, m = Var("n"), Var("m")


@pytest.fixture
def prover():
    return Prover()


class TestBasics:
    def test_row_major_shape(self):
        f = IndexFn.row_major([n, m])
        assert f.shape == (n, m)
        assert f.rank == 2
        assert f.is_single()

    def test_is_direct(self, prover):
        assert IndexFn.row_major([4, 5]).is_direct(prover)
        assert not IndexFn.row_major([4, 5], offset=3).is_direct(prover)
        assert not IndexFn((col_major([4, 5]),)).is_direct(prover)
        assert not IndexFn.row_major([4, 5]).transpose().is_direct(prover)

    def test_apply_symbolic_single(self):
        f = IndexFn.row_major([n, m])
        i, j = Var("i"), Var("j")
        assert f.as_single().apply([i, j]) == i * m + j

    def test_apply_symbolic_composed_raises(self, prover):
        f = IndexFn((col_major([4, 5]),)).reshape([20], prover)
        assert not f.is_single()
        assert f.as_single() is None

    def test_needs_at_least_one_lmad(self):
        with pytest.raises(ValueError):
            IndexFn(())

    def test_substitute(self):
        f = IndexFn.row_major([n, m]).substitute({"n": 4, "m": 5})
        assert f.shape[0].as_int() == 4


class TestAgainstNumPy:
    """gather_offsets must agree with numpy's own view semantics."""

    def test_transpose(self):
        arr = np.arange(20)
        f = IndexFn.row_major([4, 5]).transpose()
        assert (arr[f.gather_offsets({})] == arr.reshape(4, 5).T).all()

    def test_triplet_slice(self):
        arr = np.arange(42)
        f = IndexFn.row_major([6, 7]).slice_triplets([(1, 2, 2), (3, 4, 1)])
        ref = arr.reshape(6, 7)[1:5:2, 3:7]
        assert (arr[f.gather_offsets({})] == ref).all()

    def test_negative_step_slice(self):
        arr = np.arange(10)
        f = IndexFn.row_major([10]).slice_triplets([(9, 10, -1)])
        assert (arr[f.gather_offsets({})] == arr[::-1]).all()

    def test_reverse(self):
        arr = np.arange(12)
        f = IndexFn.row_major([3, 4]).reverse(1)
        assert (arr[f.gather_offsets({})] == arr.reshape(3, 4)[:, ::-1]).all()

    def test_fix_dim(self):
        arr = np.arange(12)
        f = IndexFn.row_major([3, 4]).fix_dim(0, 2)
        assert (arr[f.gather_offsets({})] == arr.reshape(3, 4)[2]).all()

    def test_reshape_direct(self, ):
        p = Prover()
        arr = np.arange(24)
        f = IndexFn.row_major([6, 4]).reshape([2, 12], p)
        assert f.is_single()
        assert (arr[f.gather_offsets({})] == arr.reshape(2, 12)).all()

    def test_reshape_composed_colmajor_flatten(self):
        """Flattening a column-major matrix needs a composition (paper IV-B)."""
        p = Prover()
        arr = np.arange(20)
        f = IndexFn((col_major([4, 5]),)).flatten(p)
        assert not f.is_single()
        ref = arr.reshape(5, 4).T.flatten()  # col-major 4x5 of flat data
        assert (arr[f.gather_offsets({})] == ref).all()

    def test_chain_with_symbolic_env(self):
        arr = np.arange(30)
        f = IndexFn.row_major([n, m]).transpose().fix_dim(0, 1)
        env = {"n": 5, "m": 6}
        ref = arr.reshape(5, 6).T[1]
        assert (arr[f.gather_offsets(env)] == ref).all()


class TestFig3:
    """The paper's fig. 3, line by line, ending at es[5] -> flat offset 59."""

    @pytest.fixture
    def es(self, prover):
        as_ = IndexFn.row_major([64])  # let as = 0..63
        bs = as_.reshape([8, 8], prover)  # unflatten 8 8 as
        cs = bs.transpose()  # transpose bs
        ds = cs.slice_triplets([(1, 2, 2), (4, 4, 1)])  # cs[1:3:2, 4:8:1]
        return ds.flatten(prover).slice_triplets([(2, 6, 1)])  # (flatten ds)[2:]

    def test_bs_ixfn(self, prover):
        bs = IndexFn.row_major([64]).reshape([8, 8], prover)
        assert bs.is_single()
        assert bs.inner == Lmad.row_major([8, 8])

    def test_cs_ixfn(self, prover):
        cs = IndexFn.row_major([64]).reshape([8, 8], prover).transpose()
        assert cs.inner == lmad(0, [(8, 1), (8, 8)])

    def test_ds_ixfn(self, prover):
        ds = (
            IndexFn.row_major([64])
            .reshape([8, 8], prover)
            .transpose()
            .slice_triplets([(1, 2, 2), (4, 4, 1)])
        )
        assert ds.inner == lmad(33, [(2, 2), (4, 8)])

    def test_es_is_composed(self, es):
        assert len(es.lmads) == 2
        assert es.lmads[1] == lmad(2, [(6, 1)])  # L1
        assert es.lmads[0] == lmad(33, [(2, 2), (4, 8)])  # L2

    def test_es_5_is_59(self, es):
        assert es.apply_concrete([5], {}) == 59

    def test_es_full_contents(self, es):
        arr = np.arange(64)
        ref = arr.reshape(8, 8).T[1:5:2, 4:8].flatten()[2:]
        assert (arr[es.gather_offsets({})] == ref).all()

    def test_no_manifestation(self, es):
        """All of fig. 3 is O(1) metadata: two LMADs, no data movement."""
        assert len(es.lmads) == 2

    def test_str_shows_composition(self, es):
        assert " o " in str(es)


class TestLmadSlice:
    def test_nw_slice_on_flat(self):
        """LMAD slicing extracts all NW anti-diagonal vertical bars at once."""
        nv, bv, iv = 7, 2, 1  # n = q*b+1 with q=3
        arr = np.arange(nv * nv)
        rvert = lmad(
            sym(iv) * bv, [(iv + 1, nv * bv - bv), (bv + 1, nv)]
        )
        f = IndexFn.row_major([nv * nv]).lmad_slice(rvert)
        got = arr[f.gather_offsets({})]
        assert got.shape == (iv + 1, bv + 1)
        # First vertical bar starts at flat i*b = 2, column stride n.
        assert list(got[0]) == [2, 9, 16]


class TestInstanceMemoization:
    """Derivation results are cached on the (frozen) instance: the hot
    executor paths re-derive the same handful of index functions per
    thread/iteration, so repeated calls must return the same object."""

    def test_fix_dim_is_cached(self):
        f = IndexFn.row_major([n, m])
        assert f.fix_dim(0, 3) is f.fix_dim(0, 3)
        assert f.fix_dim(0, 3) is not f.fix_dim(0, 4)

    def test_substitute_is_cached(self):
        f = IndexFn.row_major([n])
        assert f.substitute({"n": 8}) is f.substitute({"n": 8})
        assert f.substitute({"n": 8}) is not f.substitute({"n": 9})

    def test_lmad_slice_is_cached(self):
        f = IndexFn.row_major([sym(64)])
        s = lmad(0, [(8, 2)])
        assert f.lmad_slice(s) is f.lmad_slice(s)

    def test_caches_do_not_affect_equality_or_hash(self):
        a = IndexFn.row_major([n])
        b = IndexFn.row_major([n])
        a.fix_dim(0, 1)  # populate a cache on one side only
        assert a == b and hash(a) == hash(b)


class TestInstantiation:
    """``instantiate`` (the executor's) takes Python ints in
    ``var_order()`` and keys its memo by that tuple; ``substitute`` keys
    its own by the sorted ``(name, SymExpr)`` pairs; the memos and the
    cached free variables never leave the instance."""

    def test_instantiate_takes_ints_in_var_order(self):
        f = self.fn()
        assert f.var_order() == ("m", "n")
        got = f.instantiate((3, 5))
        assert got == f.substitute({"m": 3, "n": 5})
        assert f.instantiate((3, 5)) is got
        assert f.instantiate((5, 3)) != got

    def fn(self):
        return IndexFn.row_major([n, m], offset=n * m + 1).transpose()

    def test_int_and_symexpr_mappings_agree(self):
        ints = self.fn().substitute({"m": 3, "n": 5})
        syms = self.fn().substitute({"n": sym(5), "m": sym(3)})
        assert ints == syms
        assert ints.free_vars() == frozenset()
        assert ints.gather_offsets({}).tolist() == syms.gather_offsets({}).tolist()

    def test_a_repeated_int_lookup_is_the_same_object(self):
        f = self.fn()
        first = f.substitute({"n": 5, "m": 3})
        assert f.substitute({"m": 3, "n": 5}) is first
        assert f.substitute({"n": 6, "m": 3}) is not first
        # A bool is not an int binding: it takes the SymExpr key, which
        # refuses it as before.
        with pytest.raises(TypeError):
            f.substitute({"n": True, "m": 3})

    def test_pickle_and_deepcopy_carry_only_the_lmads(self):
        f = self.fn()
        assert f.free_vars() == frozenset({"n", "m"})
        f.substitute({"n": 5, "m": 3})
        assert {"_fv", "_subst_cache"} <= set(f.__dict__)
        for clone in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert clone == f
            assert set(clone.__dict__) == {"lmads"}
        assert f.__reduce__() == (IndexFn, (f.lmads,))
