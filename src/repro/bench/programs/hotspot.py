"""Hotspot (Rodinia) -- repeated 5-point stencil with boundary decomposition.

The paper's fig. 10b: corners/edges are handled separately from the
interior because their neighbour sets differ, and the parts are assembled
with ``concat`` at the end of every time step.  Without short-circuiting
each part lives in its own block and is copied into the result; with it,
every part is constructed directly in the result's memory, giving the
paper's largest impacts (1.78x - 2.05x, table III).

Structure per time step (2-D ``[n][n]`` grids):

    top    = map (c < n)   { boundary cell (0, c) }           -- edge row
    middle = map (r < n-2) {
        left  = boundary cell (r+1, 0)
        sums  = map (c < n-2) { up+down+left+right }          -- producer
        inner = map (c < n-2) { update from sums[c] }         -- consumer
        right = boundary cell (r+1, n-1)
        in concat (replicate 1 left) inner (replicate 1 right)-- row chain
    }
    bottom = map (c < n)   { boundary cell (n-1, c) }
    next   = concat (reshape [1,n] top) middle (reshape [1,n] bottom)

so the optimization must chain: row parts -> per-thread row -> map result
-> the outer concat -> the step's result (paper fig. 6a transitive
chaining, resolved over fixpoint rounds).

Update rule (Rodinia's explicit Euler step with edge replication):

    T'[r,c] = T[r,c] + K*(up + down + left + right - 4*T[r,c]) + C*P[r,c]
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.symbolic import SymExpr, Var

K = 0.1
C = 0.05

n = Var("n")


def _cell(bb, T: str, P: str, r, c, up, down, left, right) -> str:
    """Emit the update formula for cell (r, c) with given neighbour indices."""
    t = bb.index(T, [r, c])
    u = bb.index(T, up)
    d = bb.index(T, down)
    l = bb.index(T, left)
    rr = bb.index(T, right)
    p = bb.index(P, [r, c])
    s1 = bb.binop("+", u, d)
    s2 = bb.binop("+", l, rr)
    s3 = bb.binop("+", s1, s2)
    t4 = bb.binop("*", t, 4.0)
    diff = bb.binop("-", s3, t4)
    kd = bb.binop("*", diff, K)
    cp = bb.binop("*", p, C)
    out = bb.binop("+", t, bb.binop("+", kd, cp))
    return out


def _edge_row(parent, T: str, P: str, r, up, down) -> str:
    """Row ``r`` as a width-n map whose vertical neighbours are rows
    ``up`` and ``down`` (row ``r`` itself at a replicated edge)."""
    mp = parent.map_(n, index="c")
    c = mp.idx

    # Left/right neighbours need clamping at the row ends.
    cond_l = mp.binop("==", c, 0)
    ih = mp.if_(cond_l)
    lv = ih.then_builder.index(T, [r, c])
    ih.then_builder.returns(lv)
    lv2 = ih.else_builder.index(T, [r, c - 1])
    ih.else_builder.returns(lv2)
    (left,) = ih.end()

    cond_r = mp.binop("==", c, n - 1)
    ih2 = mp.if_(cond_r)
    rv = ih2.then_builder.index(T, [r, c])
    ih2.then_builder.returns(rv)
    rv2 = ih2.else_builder.index(T, [r, c + 1])
    ih2.else_builder.returns(rv2)
    (right,) = ih2.end()

    t = mp.index(T, [r, c])
    u = mp.index(T, [up, c])
    d = mp.index(T, [down, c])
    p = mp.index(P, [r, c])
    s3 = mp.binop("+", mp.binop("+", u, d), mp.binop("+", left, right))
    diff = mp.binop("-", s3, mp.binop("*", t, 4.0))
    out = mp.binop("+", t, mp.binop("+", mp.binop("*", diff, K), mp.binop("*", p, C)))
    mp.returns(out)
    (row,) = mp.end()
    return row


def build(iters: int | None = None) -> Fun:
    """The hotspot IR program; ``iters`` as a parameter when None."""
    bld = FunBuilder("hotspot")
    bld.param("n", ScalarType("i64"))
    bld.param("iters", ScalarType("i64"))
    T0 = bld.param("T", f32(n, n))
    P = bld.param("P", f32(n, n))
    bld.assume_lower("n", 4)
    bld.assume_lower("iters", 1)

    lp = bld.loop(count=Var("iters"), carried=[("Tc", T0)], index="t")
    T = lp["Tc"]

    r0, rn = SymExpr.const(0), n - 1
    top = _edge_row(lp, T, P, r0, r0, r0 + 1)
    bottom = _edge_row(lp, T, P, rn, rn - 1, rn)

    # Interior neighbour sums, staged as the separate whole-grid kernel a
    # naive stencil compiler emits: a rank-2 [n-2][n-2] mapnest producer
    # feeding the update consumer below.  Mapnest fusion inlines the
    # producer at its single (r, c) read site and restores the classic
    # one-kernel interior; ``nofuse`` materializes the full interior sum
    # grid in global memory and pays its write+read round trip per step.
    sums = lp.map_(n - 2, index="rs")
    rr2 = sums.idx + 1
    srow = sums.map_(n - 2, index="cs")
    cc = srow.idx + 1
    u = srow.index(T, [rr2 - 1, cc])
    d = srow.index(T, [rr2 + 1, cc])
    lf = srow.index(T, [rr2, cc - 1])
    rt = srow.index(T, [rr2, cc + 1])
    s3p = srow.binop("+", srow.binop("+", u, d), srow.binop("+", lf, rt))
    srow.returns(s3p)
    (sumrow,) = srow.end()
    sums.returns(sumrow)
    (nsum,) = sums.end()

    mid = lp.map_(n - 2, index="r")
    ri = mid.idx
    r = mid.idx + 1  # actual row
    # Left edge cell of the row.
    left_cell = _cell(
        mid, T, P, r, SymExpr.const(0),
        [r - 1, SymExpr.const(0)], [r + 1, SymExpr.const(0)],
        [r, SymExpr.const(0)], [r, SymExpr.const(1)],
    )
    inner = mid.map_(n - 2, index="c")
    ci = inner.idx
    c = inner.idx + 1
    t = inner.index(T, [r, c])
    p = inner.index(P, [r, c])
    s3 = inner.index(nsum, [ri, ci])
    t4 = inner.binop("*", t, 4.0)
    diff = inner.binop("-", s3, t4)
    kd = inner.binop("*", diff, K)
    cp = inner.binop("*", p, C)
    val = inner.binop("+", t, inner.binop("+", kd, cp))
    inner.returns(val)
    (inner_row,) = inner.end()
    # Right edge cell of the row.
    right_cell = _cell(
        mid, T, P, r, n - 1,
        [r - 1, n - 1], [r + 1, n - 1], [r, n - 2], [r, n - 1],
    )
    la = mid.replicate([1], left_cell)
    ra = mid.replicate([1], right_cell)
    row = mid.concat(la, inner_row, ra)
    mid.returns(row)
    (middle,) = mid.end()

    top1 = lp.reshape(top, [1, n])
    bot1 = lp.reshape(bottom, [1, n])
    nxt = lp.concat(top1, middle, bot1)
    lp.returns(nxt)
    (res,) = lp.end()
    bld.returns(res)
    return bld.build()


def build_rect() -> Fun:
    """One time step on a row slab with explicit halo rows (sharding).

    The slab is ``[h+2][n]``: rows ``1..h`` are the device's own grid
    rows, rows ``0`` and ``h+1`` are ghost rows :mod:`repro.shard` fills
    before every step (neighbour exchange, or edge replication at the
    global boundary).  Every interior cell then uses the *uniform*
    5-point formula -- with ghost rows equal to the clamped neighbours,
    this is bit-identical to :func:`build`'s boundary-decomposed step,
    because every cell variant there shares the same f32 expression
    tree ``t + (K*((u+d)+(l+r) - 4t) + C*p)``.  Ghost rows pass through
    unchanged (identity slices), so the output has the slab's shape and
    the runner can chain steps.
    """
    bld = FunBuilder("hotspot_rect")
    bld.param("h", ScalarType("i64"))
    bld.param("n", ScalarType("i64"))
    h = Var("h")
    T = bld.param("T", f32(h + 2, n))
    P = bld.param("P", f32(h + 2, n))
    bld.assume_lower("h", 1)
    bld.assume_lower("n", 4)

    mid = bld.map_(h, index="ri")
    r = mid.idx + 1  # slab row of the cell being updated
    rowv = _edge_row(mid, T, P, r, r - 1, r + 1)
    mid.returns(rowv)
    (interior,) = mid.end()

    top = bld.slice(T, [(0, 1, 1), (0, n, 1)])
    bot = bld.slice(T, [(h + 1, 1, 1), (0, n, 1)])
    nxt = bld.concat(top, interior, bot)
    bld.returns(nxt)
    return bld.build()


# ----------------------------------------------------------------------
def reference(T: np.ndarray, P: np.ndarray, iters: int) -> np.ndarray:
    """Vectorized NumPy stencil with edge replication."""
    cur = T.astype(np.float32).copy()
    Pf = P.astype(np.float32)
    for _ in range(iters):
        pad = np.pad(cur, 1, mode="edge")
        up = pad[:-2, 1:-1]
        down = pad[2:, 1:-1]
        left = pad[1:-1, :-2]
        right = pad[1:-1, 2:]
        cur = cur + np.float32(K) * (up + down + left + right - 4 * cur) + np.float32(C) * Pf
    return cur


def make_inputs(nv: int, seed: int = 0) -> Dict[str, np.ndarray]:
    rng = np.random.RandomState(seed)
    return {
        "T": (300 + 10 * rng.rand(nv, nv)).astype(np.float32),
        "P": rng.rand(nv, nv).astype(np.float32),
    }


def inputs_for(nv: int, iters: int) -> Dict[str, object]:
    out: Dict[str, object] = {"n": nv, "iters": iters}
    out.update(make_inputs(nv))
    return out


def dry_inputs_for(nv: int, iters: int) -> Dict[str, int]:
    return {"n": nv, "iters": iters}


#: Paper datasets (table III): label -> (n, iterations).
PAPER_DATASETS: Dict[str, Tuple[int, int]] = {
    "8192": (8192, 10),
    "16384": (16384, 10),
    "32768": (32768, 10),
}

TEST_DATASETS: Dict[str, Tuple[int, int]] = {
    "tiny": (6, 2),
    "small": (16, 3),
}


def ref_traffic(nv: int, iters: int) -> Tuple[int, int]:
    """Hand-written stencil: read grid + power, write grid, per step
    (neighbour reads hit cache)."""
    cells = nv * nv
    return (2 * cells * 4 * iters, cells * 4 * iters)
