"""Property-based tests for LMAD machinery.

The critical soundness property: whenever the static checker proves two
LMADs disjoint, their concretely enumerated offset sets must be disjoint.
A violation here would mean short-circuiting could corrupt user data.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.lmad import IndexFn, lmad, lmads_nonoverlapping
from repro.lmad.overlap import lmad_injective
from repro.symbolic import Prover
from tests.lmad import enumerate_offsets


@st.composite
def concrete_lmads(draw, max_rank=3, max_extent=5, max_stride=8, max_offset=30):
    rank = draw(st.integers(1, max_rank))
    dims = [
        (
            draw(st.integers(1, max_extent)),
            draw(st.integers(-max_stride, max_stride)),
        )
        for _ in range(rank)
    ]
    return lmad(draw(st.integers(0, max_offset)), dims)


@given(concrete_lmads(), concrete_lmads())
@settings(max_examples=200)
def test_nonoverlap_soundness(l1, l2):
    """Prover says disjoint => concretely disjoint."""
    if lmads_nonoverlapping(l1, l2):
        s1 = set(enumerate_offsets(l1, {}))
        s2 = set(enumerate_offsets(l2, {}))
        assert s1.isdisjoint(s2), f"unsound: {l1} vs {l2}"


@given(concrete_lmads())
@settings(max_examples=150)
def test_injectivity_soundness(l):
    """Prover says injective => all enumerated offsets distinct."""
    if lmad_injective(l):
        offsets = enumerate_offsets(l, {})
        assert len(offsets) == len(set(offsets)), f"unsound: {l}"


@given(concrete_lmads())
@settings(max_examples=100)
def test_normalize_positive_preserves_set(l):
    p = Prover()
    norm = l.normalize_positive(p)
    assert norm is not None  # concrete strides always have provable signs
    assert sorted(enumerate_offsets(norm, {})) == sorted(enumerate_offsets(l, {}))


@given(concrete_lmads())
@settings(max_examples=100)
def test_self_overlap_never_proven(l):
    """A non-empty LMAD always intersects itself."""
    assume(all(d.shape.as_int() >= 1 for d in l.dims))
    assert not lmads_nonoverlapping(l, l)


@st.composite
def lmad_pairs_often_sharing_an_offset(draw):
    """Two small LMADs, extents from 0 (empty) up, the second one's
    offset equal to the first one's half of the time."""
    def one(offset):
        dims = [
            (draw(st.integers(0, 4)), draw(st.integers(-6, 6)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        return lmad(offset, dims)

    off = draw(st.integers(0, 20))
    same = draw(st.booleans())
    return one(off), one(off if same else draw(st.integers(0, 20)))


@given(lmad_pairs_often_sharing_an_offset())
@settings(max_examples=150, deadline=None)
def test_shared_point_refutation_soundness(pair):
    """Engine says "first points coincide" => brute force finds a common
    offset; equal offsets with an empty side never fire it."""
    from repro.isl.emptiness import Verdict
    from repro.isl.engine import PolyEngine

    l1, l2 = pair
    engine = PolyEngine(Prover())
    verdict = engine.accesses_disjoint(l1, l2)
    common = set(enumerate_offsets(l1, {})) & set(enumerate_offsets(l2, {}))
    if engine.shared_point is not None:
        assert verdict is Verdict.NONEMPTY
        assert engine.shared_point.as_int() in common, f"{l1} vs {l2}"
    elif verdict is Verdict.NONEMPTY:
        assert common, f"{l1} vs {l2}"
    elif verdict is Verdict.EMPTY:
        assert not common, f"{l1} vs {l2}"


@st.composite
def transformation_chains(draw):
    """A random chain of change-of-layout ops applied to a fresh 2-D array."""
    h = draw(st.integers(2, 6))
    w = draw(st.integers(2, 6))
    arr = np.arange(h * w)
    view = arr.reshape(h, w)
    f = IndexFn.row_major([h, w])
    for _ in range(draw(st.integers(0, 4))):
        if view.ndim != 2:
            break
        op = draw(st.sampled_from(["transpose", "reverse0", "reverse1", "slice"]))
        if op == "transpose":
            view = view.T
            f = f.transpose()
        elif op == "reverse0":
            view = view[::-1]
            f = f.reverse(0)
        elif op == "reverse1":
            view = view[:, ::-1]
            f = f.reverse(1)
        else:
            if view.shape[0] < 2 or view.shape[1] < 2:
                continue
            r0 = draw(st.integers(1, view.shape[0]))
            r1 = draw(st.integers(1, view.shape[1]))
            view = view[:r0, :r1]
            f = f.slice_triplets([(0, r0, 1), (0, r1, 1)])
    return arr, view, f


@given(transformation_chains())
@settings(max_examples=150)
def test_gather_matches_numpy_views(chain):
    """Index functions agree with numpy view semantics on random op chains."""
    arr, view, f = chain
    assert (arr[f.gather_offsets({})] == view).all()


@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5))
def test_reshape_preserves_elements(a, b, c):
    """reshape (possibly composed) visits the same elements in C order."""
    p = Prover()
    arr = np.arange(a * b * c)
    # Start from a transposed (non-contiguous) layout to force composition.
    f = IndexFn.row_major([a, b * c]).transpose().reshape([b * c * a], p)
    ref = arr.reshape(a, b * c).T.reshape(-1)
    assert (arr[f.gather_offsets({})] == ref).all()
