"""NN (Rodinia) -- k-nearest neighbours of one query among n records.

A distances map followed by k rounds of (arg-)minimum extraction.  The
functional formulation must separate the reduction (reading the distances)
from the invalidation of the found minimum (writing the distances), and
the conservative race-free version copies the distances before the
in-place invalidation -- the paper's "loop with a reduction whose result
is used in an in-place update, resulting in a copy" (section VI-H).

Short-circuiting recognizes that the copied distances can live in the dead
source's memory block (the copy's source is lastly used), turning the
per-round O(n) copy into a no-op.  The reference model additionally
charges Rodinia's *sequential* reduction (one dependent latency per
element), which is why the paper's table VII shows Futhark 5x-200x faster
than the reference.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32, i64
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.symbolic import SymExpr, Var

INF = 1e30
K_NEIGHBOURS = 5

n = Var("n")


def build(k: int = K_NEIGHBOURS) -> Fun:
    bld = FunBuilder("nn")
    bld.param("n", ScalarType("i64"))
    lat = bld.param("lat", f32(n))
    lng = bld.param("lng", f32(n))
    bld.param("qlat", ScalarType("f32"))
    bld.param("qlng", ScalarType("f32"))
    bld.assume_lower("n", 1)

    # Squared distances and the square root are written as a two-stage
    # producer/consumer pipeline, as Rodinia's separate kernels would be;
    # fusion inlines the producer so the compiled program is exactly the
    # classic one-kernel distances map (``nofuse`` pays the sq round trip).
    mp = bld.map_(n, index="i")
    i = mp.idx
    dx = mp.binop("-", mp.index(lat, [i]), "qlat")
    dy = mp.binop("-", mp.index(lng, [i]), "qlng")
    sqd = mp.binop("+", mp.binop("*", dx, dx), mp.binop("*", dy, dy))
    mp.returns(sqd)
    (sq,) = mp.end()

    mc = bld.map_(n, index="i2")
    dist = mc.unop("sqrt", mc.index(sq, [mc.idx]))
    mc.returns(dist)
    (dists,) = mc.end()

    res0 = bld.scratch("f32", [k])
    idx0 = bld.scratch("i64", [k])
    lp = bld.loop(
        count=k, carried=[("res", res0), ("rix", idx0), ("ds", dists)], index="j"
    )
    v, ix = lp.argmin(lp["ds"])
    res2 = lp.update_point(lp["res"], [lp.idx], v)
    rix2 = lp.update_point(lp["rix"], [lp.idx], ix)
    # Conservative race-free invalidation: copy, then write the found slot.
    dcopy = lp.copy(lp["ds"])
    inf = lp.lit(INF, "f32")
    d2 = lp.update_point(dcopy, [SymExpr.var(ix)], inf)
    lp.returns(res2, rix2, d2)
    res, rix, _ = lp.end()
    bld.returns(res, rix)
    return bld.build()


# ----------------------------------------------------------------------
def reference(
    lat: np.ndarray, lng: np.ndarray, qlat: float, qlng: float, k: int = K_NEIGHBOURS
) -> Tuple[np.ndarray, np.ndarray]:
    d = np.sqrt((lat - np.float32(qlat)) ** 2 + (lng - np.float32(qlng)) ** 2).astype(
        np.float32
    )
    vals = np.empty(k, dtype=np.float32)
    idxs = np.empty(k, dtype=np.int64)
    work = d.copy()
    for j in range(k):
        ix = int(np.argmin(work))
        vals[j] = work[ix]
        idxs[j] = ix
        work[ix] = np.float32(INF)
    return vals, idxs


def make_inputs(nv: int, seed: int = 0) -> Dict[str, object]:
    rng = np.random.RandomState(seed)
    return {
        "n": nv,
        "lat": (rng.rand(nv) * 90).astype(np.float32),
        "lng": (rng.rand(nv) * 180).astype(np.float32),
        "qlat": np.float32(45.0),
        "qlng": np.float32(90.0),
    }


def inputs_for(nv: int) -> Dict[str, object]:
    return make_inputs(nv)


def dry_inputs_for(nv: int) -> Dict[str, object]:
    return {"n": nv, "qlat": np.float32(45.0), "qlng": np.float32(90.0)}


#: Paper datasets (table VII): Rodinia's hurricane record counts.
PAPER_DATASETS: Dict[str, Tuple[int]] = {
    "855280": (855280,),
    "8552800": (8552800,),
    "85528000": (85528000,),
}

TEST_DATASETS: Dict[str, Tuple[int]] = {
    "tiny": (23,),
    "small": (200,),
}


def ref_traffic(nv: int, k: int = K_NEIGHBOURS) -> Tuple[int, int, int]:
    """(bytes_read, bytes_written, sequential_elems) of Rodinia's version:
    distances kernel + a *sequential host-side* k-min scan."""
    reads = 2 * nv * 4 + k * nv * 4
    writes = nv * 4
    return (reads, writes, nv)
