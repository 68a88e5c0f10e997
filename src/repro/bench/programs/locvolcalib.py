"""LocVolCalib (FinPar) -- local-volatility calibration kernels.

Substitution note (DESIGN.md): FinPar's LocVolCalib runs, per outer
instance, ``numT`` time steps each consisting of directional implicit
sweeps (tridiagonal solves) over a 2-D price grid with transposition
between directions.  We build the 1-D equivalent: per instance a ``numX``
price vector, per time step one Thomas-algorithm tridiagonal solve whose
sweep direction alternates (the result is *reversed* between steps, a
change-of-layout view standing in for FinPar's between-sweep transposes).

The memory behaviour the paper exploits is preserved:

* per-step scratch arrays (rhs ``d``, sweep coefficients ``cp``/``dp``)
  are per-thread expanded allocations;
* the step result is a reversed **view**, so the step's value is not in
  normalized form and the memory pipeline must insert a copy -- the copy
  that short-circuiting then removes (rebasing the whole solve chain into
  the reversed region), mirroring the paper's modest 1.04-1.12x impacts;
* the per-thread final vector short-circuits into the result matrix
  through the timestep loop (fig. 5b + fig. 6b combined).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.symbolic import SymExpr, Var

#: Tridiagonal coefficients (diagonally dominant).
CA, CB, CC = 0.1, 0.8, 0.1

numX, numT, m = Var("numX"), Var("numT"), Var("m")


def build() -> Fun:
    bld = FunBuilder("locvolcalib")
    bld.param("m", ScalarType("i64"))
    bld.param("numX", ScalarType("i64"))
    bld.param("numT", ScalarType("i64"))
    bld.assume_lower("m", 1)
    bld.assume_lower("numX", 3)
    bld.assume_lower("numT", 1)

    mp = bld.map_(m, index="o")
    o = mp.idx

    # Initial condition: a call-option payoff parameterized by instance,
    # staged as FinPar stages it -- a grid-minus-strike producer feeding
    # the payoff clamp.  Fusion inlines the producer (one init kernel, as
    # the classic code); ``nofuse`` materializes the per-thread
    # differences vector in expanded global memory.
    grid = mp.map_(numX, index="ig")
    xi = grid.binop("*", grid.unop("f32", grid.scalar(grid.idx)), 0.01)
    ko = grid.binop("*", grid.unop("f32", grid.scalar(o)), 0.02)
    dv = grid.binop("-", xi, ko)
    grid.returns(dv)
    (diffs,) = grid.end()

    init = mp.map_(numX, index="i")
    pay = init.binop("max", init.index(diffs, [init.idx]), 0.0)
    init.returns(pay)
    (u0,) = init.end()

    lp = mp.loop(count=numT, carried=[("u", u0)], index="t")
    u = lp["u"]

    # --- rhs d from the explicit part (reads of the iteration input) ---
    d0 = lp.scratch("f32", [numX])
    dl = lp.update_point(d0, [0], lp.index(u, [SymExpr.const(0)]))
    bd = lp.loop(count=numX - 2, carried=[("dc", dl)], index="i")
    i = bd.idx
    t1 = bd.binop("*", bd.index(u, [i]), CA)
    t2 = bd.binop("*", bd.index(u, [i + 1]), CB)
    t3 = bd.binop("*", bd.index(u, [i + 2]), CC)
    rhs = bd.binop("+", bd.binop("+", t1, t2), t3)
    d2 = bd.update_point(bd["dc"], [i + 1], rhs)
    bd.returns(d2)
    (d3,) = bd.end()
    dn = lp.update_point(d3, [numX - 1], lp.index(u, [numX - 1]))

    # --- forward sweep of the Thomas algorithm ---
    cp0 = lp.scratch("f32", [numX])
    dp0 = lp.scratch("f32", [numX])
    cp1 = lp.update_point(cp0, [0], lp.binop("/", CC, CB))
    dp1 = lp.update_point(dp0, [0], lp.binop("/", lp.index(dn, [SymExpr.const(0)]), CB))
    fw = lp.loop(count=numX - 1, carried=[("cp", cp1), ("dp", dp1)], index="i")
    i = fw.idx
    denom = fw.binop("-", CB, fw.binop("*", CA, fw.index(fw["cp"], [i])))
    minv = fw.binop("/", 1.0, denom)
    cp2 = fw.update_point(fw["cp"], [i + 1], fw.binop("*", CC, minv))
    dnum = fw.binop("-", fw.index(dn, [i + 1]), fw.binop("*", CA, fw.index(fw["dp"], [i])))
    dp2 = fw.update_point(fw["dp"], [i + 1], fw.binop("*", dnum, minv))
    fw.returns(cp2, dp2)
    cpf, dpf = fw.end()

    # --- backward substitution into a fresh vector ---
    w0 = lp.scratch("f32", [numX])
    w1 = lp.update_point(w0, [numX - 1], lp.index(dpf, [numX - 1]))
    bw = lp.loop(count=numX - 1, carried=[("w", w1)], index="i")
    i = bw.idx
    idx = numX - 2 - i
    wv = bw.binop(
        "-",
        bw.index(dpf, [idx]),
        bw.binop("*", bw.index(cpf, [idx]), bw.index(bw["w"], [idx + 1])),
    )
    w2 = bw.update_point(bw["w"], [idx], wv)
    bw.returns(w2)
    (wf,) = bw.end()

    # Alternate the sweep direction: the step result is a reversed view.
    urev = lp.reverse(wf, 0)
    lp.returns(urev)
    (ufinal,) = lp.end()
    mp.returns(ufinal)
    (res,) = mp.end()
    bld.returns(res)
    return bld.build()


# ----------------------------------------------------------------------
def reference(mv: int, numXv: int, numTv: int) -> np.ndarray:
    """Vectorized NumPy implementation across instances."""
    i = np.arange(numXv, dtype=np.float32)
    o = np.arange(mv, dtype=np.float32)[:, None]
    u = np.maximum(i[None, :] * np.float32(0.01) - o * np.float32(0.02), 0).astype(
        np.float32
    )
    a, b, c = np.float32(CA), np.float32(CB), np.float32(CC)
    for _ in range(numTv):
        d = np.empty_like(u)
        d[:, 0] = u[:, 0]
        d[:, -1] = u[:, -1]
        d[:, 1:-1] = a * u[:, :-2] + b * u[:, 1:-1] + c * u[:, 2:]
        cp = np.empty_like(u)
        dp = np.empty_like(u)
        cp[:, 0] = c / b
        dp[:, 0] = d[:, 0] / b
        for k in range(1, numXv):
            minv = np.float32(1.0) / (b - a * cp[:, k - 1])
            cp[:, k] = c * minv
            dp[:, k] = (d[:, k] - a * dp[:, k - 1]) * minv
        w = np.empty_like(u)
        w[:, -1] = dp[:, -1]
        for k in range(numXv - 2, -1, -1):
            w[:, k] = dp[:, k] - cp[:, k] * w[:, k + 1]
        u = w[:, ::-1].astype(np.float32)
    return u


def inputs_for(mv: int, numXv: int, numTv: int) -> Dict[str, object]:
    return {"m": mv, "numX": numXv, "numT": numTv}


dry_inputs_for = inputs_for

#: Paper datasets (table VI): FinPar's small/medium/large, with the 2-D
#: grids folded to 1-D solves of comparable footprint.
PAPER_DATASETS: Dict[str, Tuple[int, int, int]] = {
    "small": (16, 256, 256),
    "medium": (32, 256, 128),
    "large": (128, 256, 64),
}

TEST_DATASETS: Dict[str, Tuple[int, int, int]] = {
    "tiny": (2, 5, 2),
    "small": (3, 8, 3),
}


def ref_traffic(mv: int, numXv: int, numTv: int) -> Tuple[int, int]:
    """Hand-written ADI sweep: ~6 reads + 4 writes per element per step."""
    per_step = mv * numXv * 4
    return (6 * per_step * numTv, 4 * per_step * numTv)
