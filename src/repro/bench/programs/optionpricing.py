"""OptionPricing (FinPar) -- Monte-Carlo pricing with a Brownian-bridge-style
path construction.

Substitution note (DESIGN.md): FinPar's engine drives Sobol quasi-random
numbers through a Brownian bridge and prices multi-date contracts.  We keep
the memory structure -- per path, a *local* vector of quasi-random draws
and a *local* path vector built by a sequential recurrence, materialized
into a paths matrix -- and substitute a deterministic integer hash for
Sobol and an AR(1) recurrence for the bridge (same per-thread local-array
build, which is what the optimization touches).

Two kernels:

1. ``paths = map (p < npaths) { local draws -> local path -> path }`` --
   the per-thread path vector short-circuits into the paths matrix
   (mapnest implicit circuit point);
2. ``spots = map (p) { map (d) { S0 * exp(sigma * path) } }`` -- the
   spot grid, staged as its own batched rank-2 kernel feeding *two*
   pricing consumers;
3. ``payoffs = map (p < npaths) { reduce over dates }`` twice -- once
   for the call leg and once for the put leg (a put-call pair priced
   off the same spot grid) -- then sum reductions.  Mapnest fusion
   duplicates the cheap spot computation into both consumers (one
   ``FusedRecord`` each, ``duplicated=True`` on the second), so the
   full [npaths][ndates] spot matrix is never materialized; the
   pricing step itself is unaffected by short-circuiting, which
   dilutes that pass's impact to the paper's modest 1.03-1.21x
   (table V).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.symbolic import SymExpr, Var

AR = 0.9  # path recurrence coefficient
SC = 0.5  # draw scale
S0 = 100.0
SIGMA = 0.2
STRIKE = 100.0

npaths, ndates = Var("npaths"), Var("ndates")


def _draw(bb, p, d):
    """Deterministic pseudo-draw in [-0.5, 0.5): hash of (path, date)."""
    h = bb.scalar(p * 2654435761 + d * 40503 + 12345)
    hm = bb.binop("%", h, 65536)
    hf = bb.unop("f32", hm)
    return bb.binop("-", bb.binop("/", hf, 65536.0), 0.5)


def build() -> Fun:
    bld = FunBuilder("optionpricing")
    bld.param("npaths", ScalarType("i64"))
    bld.param("ndates", ScalarType("i64"))
    bld.assume_lower("npaths", 1)
    bld.assume_lower("ndates", 1)

    # Kernel 1: build all paths.
    mp = bld.map_(npaths, index="p")
    p = mp.idx
    path0 = mp.scratch("f32", [ndates])
    z0 = _draw(mp, p, SymExpr.const(0))
    path1 = mp.update_point(path0, [0], mp.binop("*", z0, SC))
    walk = mp.loop(count=ndates - 1, carried=[("pt", path1)], index="d")
    d = walk.idx
    prev = walk.index(walk["pt"], [d])
    z = _draw(walk, p, d + 1)
    nxt = walk.binop("+", walk.binop("*", prev, AR), walk.binop("*", z, SC))
    path2 = walk.update_point(walk["pt"], [d + 1], nxt)
    walk.returns(path2)
    (path,) = walk.end()
    mp.returns(path)
    (paths,) = mp.end()

    # Kernel 2: the spot grid, a batched rank-2 producer read by both
    # pricing legs below.  The body is cheap (one exp), so fusion
    # duplicates it into each consumer instead of materializing the
    # [npaths][ndates] matrix; ``nofuse`` pays its write plus two reads.
    sp = bld.map_(npaths, index="sp")
    sr = sp.map_(ndates, index="sd")
    bval = sr.index(paths, [sp.idx, sr.idx])
    sv = sr.binop("*", S0, sr.unop("exp", sr.binop("*", bval, SIGMA)))
    sr.returns(sv)
    (sprow,) = sr.end()
    sp.returns(sprow)
    (spots,) = sp.end()

    # Kernel 3a: call leg (average of date payoffs per path).
    pm = bld.map_(npaths, index="p")
    pp = pm.idx
    acc0 = pm.lit(0.0, "f32")
    pl = pm.loop(count=ndates, carried=[("acc", acc0)], index="d")
    spot = pl.index(spots, [pp, pl.idx])
    pay = pl.binop("max", pl.binop("-", spot, STRIKE), 0.0)
    acc2 = pl.binop("+", pl["acc"], pay)
    pl.returns(acc2)
    (total,) = pl.end()
    avg = pm.binop("/", total, pm.unop("f32", pm.scalar(ndates)))
    pm.returns(avg)
    (payoffs,) = pm.end()

    # Kernel 3b: put leg off the same spot grid.
    qm = bld.map_(npaths, index="p2")
    qp = qm.idx
    qacc0 = qm.lit(0.0, "f32")
    ql = qm.loop(count=ndates, carried=[("qacc", qacc0)], index="d2")
    spot2 = ql.index(spots, [qp, ql.idx])
    qpay = ql.binop("max", ql.binop("-", STRIKE, spot2), 0.0)
    qacc2 = ql.binop("+", ql["qacc"], qpay)
    ql.returns(qacc2)
    (qtotal,) = ql.end()
    qavg = qm.binop("/", qtotal, qm.unop("f32", qm.scalar(ndates)))
    qm.returns(qavg)
    (put_payoffs,) = qm.end()

    price = bld.reduce("+", payoffs)
    put_price = bld.reduce("+", put_payoffs)
    bld.returns(price, put_price)
    return bld.build()


# ----------------------------------------------------------------------
def reference(npathsv: int, ndatesv: int) -> Tuple[float, float]:
    p = np.arange(npathsv, dtype=np.int64)[:, None]
    d = np.arange(ndatesv, dtype=np.int64)[None, :]
    h = (p * 2654435761 + d * 40503 + 12345) % 65536
    z = (h.astype(np.float32) / np.float32(65536.0)) - np.float32(0.5)
    paths = np.empty((npathsv, ndatesv), dtype=np.float32)
    paths[:, 0] = z[:, 0] * np.float32(SC)
    for k in range(1, ndatesv):
        paths[:, k] = paths[:, k - 1] * np.float32(AR) + z[:, k] * np.float32(SC)
    spot = np.float32(S0) * np.exp(paths * np.float32(SIGMA))
    call = np.maximum(spot - np.float32(STRIKE), 0).astype(np.float32)
    put = np.maximum(np.float32(STRIKE) - spot, 0).astype(np.float32)
    return (
        float(call.mean(axis=1, dtype=np.float32).sum(dtype=np.float32)),
        float(put.mean(axis=1, dtype=np.float32).sum(dtype=np.float32)),
    )


def inputs_for(npathsv: int, ndatesv: int) -> Dict[str, object]:
    return {"npaths": npathsv, "ndates": ndatesv}


dry_inputs_for = inputs_for

#: Paper datasets (table V): FinPar's medium and large contracts.
PAPER_DATASETS: Dict[str, Tuple[int, int]] = {
    "medium": (32768, 256),
    "large": (262144, 128),
}

TEST_DATASETS: Dict[str, Tuple[int, int]] = {
    "tiny": (4, 5),
    "small": (16, 8),
}


def ref_traffic(npathsv: int, ndatesv: int) -> Tuple[int, int]:
    """Hand-written engine keeps paths in registers and prices both
    legs in one pass: write paths once, read once for pricing."""
    elems = npathsv * ndatesv * 4
    return (elems, elems)
