"""LBM -- Lattice-Boltzmann Method (Parboil) as a D2Q9 simulation.

Substitution note (DESIGN.md): Parboil's LBM is a 3-D D3Q19 solver over a
120x120x150 channel; we build the 2-D D2Q9 equivalent on an ``n x n``
periodic grid.  The code path the paper's optimization touches is
identical: a time-step loop around a mapnest whose per-thread result (the
9 distribution values of one cell) is built incrementally in a *local
array* through sequential loops -- the fig. 6b pattern.  Short-circuiting
re-homes that per-thread array (its whole scratch/update/loop chain) into
the result grid's memory, eliminating the per-cell private-array round
trip ("This has high impact on the LBM ... benchmarks", paper V-A-e).

State layout: ``f : [n*n][9]f32`` (cell-major, distributions contiguous).
Per step and cell: *stream* (gather each direction's distribution from the
upwind neighbour, periodic wrap) then *collide* (BGK relaxation towards
the D2Q9 equilibrium).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32, i64
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.symbolic import SymExpr, Var

OMEGA = 1.2

#: D2Q9 direction vectors and weights.
DIRS = np.array(
    [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]],
    dtype=np.int64,
)
WEIGHTS = np.array(
    [4 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 9, 1 / 36, 1 / 36, 1 / 36, 1 / 36],
    dtype=np.float32,
)

n = Var("n")


def build() -> Fun:
    bld = FunBuilder("lbm")
    bld.param("n", ScalarType("i64"))
    bld.param("steps", ScalarType("i64"))
    f0 = bld.param("f", f32(n * n, 9))
    dirs = bld.param("dirs", i64(9, 2))
    w = bld.param("w", f32(9))
    bld.assume_lower("n", 2)
    bld.assume_lower("steps", 1)

    lp = bld.loop(count=Var("steps"), carried=[("fc", f0)], index="t")
    fcur = lp["fc"]

    # --- stream, staged as Parboil's separate kernel: gather every
    # (cell, direction) upwind distribution into a streamed grid copy,
    # shaped as the rank-2 mapnest it really is ([n*n][9], cell rows).
    # Mapnest fusion inlines the gather at its single read site inside
    # the per-cell kernel below, restoring the classic one-kernel
    # stream+collide step (the row/column decomposition it recomputes
    # per read is arithmetic, not traffic); ``nofuse`` materializes the
    # full [n*n][9] streamed grid and pays its write+read round trip
    # every time step.
    st = lp.map_(n * n, index="cl")
    cell2 = st.idx
    r2 = st.binop("//", cell2, SymExpr.var("n"))
    c2 = st.binop("%", cell2, SymExpr.var("n"))
    sd = st.map_(9, index="sdir")
    d2 = sd.idx
    dr = sd.index(dirs, [d2, 0])
    dc = sd.index(dirs, [d2, 1])
    # (r - dr + n) % n, (c - dc + n) % n  -- periodic upwind neighbour
    rsub = sd.binop("-", SymExpr.var(r2), dr)
    radd = sd.binop("+", rsub, SymExpr.var("n"))
    rn = sd.binop("%", radd, SymExpr.var("n"))
    csub = sd.binop("-", SymExpr.var(c2), dc)
    cadd = sd.binop("+", csub, SymExpr.var("n"))
    cn = sd.binop("%", cadd, SymExpr.var("n"))
    src = sd.binop("*", rn, SymExpr.var("n"))
    srcc = sd.binop("+", src, cn)
    sv = sd.index(fcur, [SymExpr.var(srcc), d2])
    sd.returns(sv)
    (srow,) = sd.end()
    st.returns(srow)
    (fstr,) = st.end()

    mp = lp.map_(n * n, index="cell")
    cell = mp.idx

    # --- pull the 9 streamed distributions into a local array ---
    fin0 = mp.scratch("f32", [9])
    s1 = mp.loop(count=9, carried=[("fin", fin0)], index="d")
    d = s1.idx
    v = s1.index(fstr, [cell, d])
    fin1 = s1.update_point(s1["fin"], [d], v)
    s1.returns(fin1)
    (fin,) = s1.end()

    # --- moments: density and momentum ---
    zero = mp.lit(0.0, "f32")
    m1 = mp.loop(count=9, carried=[("rho", zero), ("mx", zero), ("my", zero)], index="d")
    d = m1.idx
    fv = m1.index(fin, [d])
    drf = m1.unop("f32", m1.index(dirs, [d, 0]))
    dcf = m1.unop("f32", m1.index(dirs, [d, 1]))
    rho2 = m1.binop("+", m1["rho"], fv)
    mx2 = m1.binop("+", m1["mx"], m1.binop("*", drf, fv))
    my2 = m1.binop("+", m1["my"], m1.binop("*", dcf, fv))
    m1.returns(rho2, mx2, my2)
    rho, mx, my = m1.end()

    ux = mp.binop("/", mx, rho)
    uy = mp.binop("/", my, rho)
    usq = mp.binop("+", mp.binop("*", ux, ux), mp.binop("*", uy, uy))

    # --- collide: BGK relaxation towards equilibrium, in place ---
    c1 = mp.loop(count=9, carried=[("fout", fin)], index="d")
    d = c1.idx
    fv = c1.index(c1["fout"], [d])
    wv = c1.index(w, [d])
    drf = c1.unop("f32", c1.index(dirs, [d, 0]))
    dcf = c1.unop("f32", c1.index(dirs, [d, 1]))
    cu = c1.binop("+", c1.binop("*", drf, ux), c1.binop("*", dcf, uy))
    cu3 = c1.binop("*", cu, 3.0)
    cu45 = c1.binop("*", c1.binop("*", cu, cu), 4.5)
    us15 = c1.binop("*", usq, 1.5)
    inner = c1.binop("-", c1.binop("+", c1.binop("+", 1.0, cu3), cu45), us15)
    feq = c1.binop("*", c1.binop("*", wv, rho), inner)
    delta = c1.binop("*", c1.binop("-", feq, fv), OMEGA)
    nv = c1.binop("+", fv, delta)
    fo2 = c1.update_point(c1["fout"], [d], nv)
    c1.returns(fo2)
    (fout,) = c1.end()

    mp.returns(fout)
    (fnew,) = mp.end()
    lp.returns(fnew)
    (res,) = lp.end()
    bld.returns(res)
    return bld.build()


# ----------------------------------------------------------------------
def reference(f: np.ndarray, nv: int, steps: int) -> np.ndarray:
    """Vectorized NumPy D2Q9 with periodic boundaries."""
    cur = f.reshape(nv, nv, 9).astype(np.float32).copy()
    w = WEIGHTS
    for _ in range(steps):
        fin = np.empty_like(cur)
        for d in range(9):
            dr, dc = DIRS[d]
            fin[..., d] = np.roll(cur[..., d], shift=(dr, dc), axis=(0, 1))
        rho = fin.sum(axis=2)
        mx = (fin * DIRS[:, 0].astype(np.float32)).sum(axis=2)
        my = (fin * DIRS[:, 1].astype(np.float32)).sum(axis=2)
        ux, uy = mx / rho, my / rho
        usq = ux * ux + uy * uy
        out = np.empty_like(fin)
        for d in range(9):
            cu = DIRS[d, 0] * ux + DIRS[d, 1] * uy
            feq = w[d] * rho * (1 + 3 * cu + 4.5 * cu * cu - 1.5 * usq)
            out[..., d] = fin[..., d] + np.float32(OMEGA) * (feq - fin[..., d])
        cur = out.astype(np.float32)
    return cur.reshape(nv * nv, 9)


def make_f0(nv: int, seed: int = 0) -> np.ndarray:
    rng = np.random.RandomState(seed)
    rho = (1.0 + 0.01 * rng.rand(nv * nv, 1)).astype(np.float32)
    return (WEIGHTS[None, :] * rho).astype(np.float32)


def inputs_for(nv: int, steps: int) -> Dict[str, object]:
    return {
        "n": nv,
        "steps": steps,
        "f": make_f0(nv),
        "dirs": DIRS.copy(),
        "w": WEIGHTS.copy(),
    }


def dry_inputs_for(nv: int, steps: int) -> Dict[str, int]:
    return {"n": nv, "steps": steps}


#: Paper datasets (table IV): Parboil's short (100 steps) and long (3000
#: steps) runs; grid scaled so cell count ~ 120*120*150.
PAPER_DATASETS: Dict[str, Tuple[int, int]] = {
    "short": (1470, 100),
    "long": (1470, 3000),
}

TEST_DATASETS: Dict[str, Tuple[int, int]] = {
    "tiny": (4, 2),
    "small": (8, 3),
}


def ref_traffic(nv: int, steps: int) -> Tuple[int, int]:
    """Hand-written LBM: read 9 + write 9 f32 per cell per step."""
    per_step = nv * nv * 9 * 4
    return (per_step * steps, per_step * steps)
