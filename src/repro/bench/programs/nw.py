"""Needleman-Wunsch (Rodinia) -- the paper's running example (sections III, VI-B).

The sequence-alignment DP fills an ``n x n`` score matrix where each cell
depends on its north, west and north-west neighbours.  Rodinia
parallelizes it by block tiling + loop skewing: the ``b x b`` blocks of an
anti-diagonal are independent (paper fig. 2).  Here, exactly as in paper
section III-A, the matrix is kept *flat* and the generalized LMAD slices
express, per anti-diagonal ``i``:

* ``R_vert  = i*b     + {(cnt : n*b-b), (b+1 : n)}`` -- the vertical bars,
* ``R_horiz = i*b + 1 + {(cnt : n*b-b), (b   : 1)}`` -- the horizontal bars,
* ``W = i*b + n+1 + {(cnt : n*b-b), (b : n), (b : 1)}`` -- the blocks.

``let X = map process_block ...`` then ``let A[W] = X`` is the circuit
point; proving ``W`` disjoint from the bars is the fig. 9 proof, which
requires the dimension-splitting extension of the non-overlap test.

The similarity score of global cell ``(r, c)`` is the data-independent
``((r + c) mod 3) - 1`` (a stand-in for Rodinia's BLOSUM lookup that both
the IR program and the NumPy reference share), with gap penalty 1.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.lmad import lmad
from repro.symbolic import Var

PENALTY = 1.0

n, q, b = Var("n"), Var("q"), Var("b")


def build() -> Fun:
    """The NW IR program: two skewed loops over anti-diagonals."""
    bld = FunBuilder("nw")
    bld.param("q", ScalarType("i64"))
    bld.param("b", ScalarType("i64"))
    bld.param("n", ScalarType("i64"))
    A = bld.param("A", f32(n * n))
    bld.define("n", q * b + 1)
    bld.assume_lower("q", 2)
    bld.assume_lower("b", 2)

    def half(parent, Acur_name: str, first: bool) -> str:
        """One skewed loop (first or second half of the anti-diagonals)."""
        count = q if first else q - 1
        pname = "Ac1" if first else "Ac2"
        lp = parent.loop(count=count, carried=[(pname, Acur_name)], index="i")
        i = lp.idx
        cnt = i + 1 if first else q - 1 - i
        if first:
            w_off = i * b + n + 1
        else:
            w_off = ((i + 1) * b + 1) * n + (q - 1) * b + 1
        rv_off = w_off - n - 1
        rh_off = w_off - n
        diag = i if first else q + i  # global anti-diagonal index in blocks

        rv = lp.lmad_slice(
            lp[pname], lmad(rv_off, [(cnt, n * b - b), (b + 1, n)])
        )
        rh = lp.lmad_slice(lp[pname], lmad(rh_off, [(cnt, n * b - b), (b, 1)]))

        # Per-diagonal similarity table, staged as Rodinia stages its
        # BLOSUM ``reference`` matrix: a separate kernel materializes the
        # per-block similarity rows ([cnt][2b-1], one entry per interior
        # anti-diagonal of a block) that the DP sweep then reads per
        # cell.  Mapnest fusion inlines the (data-independent) lookup
        # back into the block kernel; ``nofuse`` pays the table's
        # write+read round trip per anti-diagonal sweep.
        sims = lp.map_(cnt, index="sj")
        srow = sims.map_(b + b - 1, index="sk")
        sg = srow.scalar(diag * b + srow.idx + 2)  # global r + global c
        sgm = srow.binop("%", sg, 3)
        sv = srow.unop("f32", srow.binop("-", sgm, 1))
        srow.returns(sv)
        (simrow,) = srow.end()
        sims.returns(simrow)
        (simtab,) = sims.end()

        mp = lp.map_(cnt, index="j")
        jj = mp.idx
        blk = mp.scratch("f32", [b + 1, b + 1])
        # Fill the left column from the vertical bar.
        f1 = mp.loop(count=b + 1, carried=[("bkv", blk)], index="r")
        v = f1.index(rv, [jj, f1.idx])
        bk1 = f1.update_point(f1["bkv"], [f1.idx, 0], v)
        f1.returns(bk1)
        (blk1,) = f1.end()
        # Fill the top row from the horizontal bar.
        f2 = mp.loop(count=b, carried=[("bkh", blk1)], index="c")
        h = f2.index(rh, [jj, f2.idx])
        bk2 = f2.update_point(f2["bkh"], [0, f2.idx + 1], h)
        f2.returns(bk2)
        (blk2,) = f2.end()
        # The DP recurrence over the block interior.
        f3 = mp.loop(count=b, carried=[("bkr", blk2)], index="r")
        f4 = f3.loop(count=b, carried=[("bki", f3["bkr"])], index="c")
        r_, c_ = f3.idx, f4.idx
        nw_ = f4.index(f4["bki"], [r_, c_])
        up = f4.index(f4["bki"], [r_, c_ + 1])
        lf = f4.index(f4["bki"], [r_ + 1, c_])
        sim = f4.index(simtab, [jj, r_ + c_])
        t1 = f4.binop("+", nw_, sim)
        t2 = f4.binop("max", f4.binop("-", up, PENALTY), f4.binop("-", lf, PENALTY))
        val = f4.binop("max", t1, t2)
        bk3 = f4.update_point(f4["bki"], [r_ + 1, c_ + 1], val)
        f4.returns(bk3)
        (blk3,) = f4.end()
        f3.returns(blk3)
        (blk4,) = f3.end()
        out = mp.slice(blk4, [(1, b, 1), (1, b, 1)])
        mp.returns(out)
        (X,) = mp.end()

        W = lmad(w_off, [(cnt, n * b - b), (b, n), (b, 1)])
        A2 = lp.update_lmad(lp[pname], W, X)
        lp.returns(A2)
        (res,) = lp.end()
        return res

    A1 = half(bld, A, first=True)
    A2 = half(bld, A1, first=False)
    bld.returns(A2)
    return bld.build()


# ----------------------------------------------------------------------
# Reference implementation (the role of Rodinia's hand-written kernel)
# ----------------------------------------------------------------------
def reference(A: np.ndarray, nv: int) -> np.ndarray:
    """Sequential NumPy NW: anti-diagonal vectorized DP sweep."""
    F = A.reshape(nv, nv).astype(np.float32).copy()
    # Vectorize along anti-diagonals of the (n-1)x(n-1) interior.
    for d in range(2, 2 * nv - 1):
        rs = np.arange(max(1, d - nv + 1), min(d - 1, nv - 1) + 1)
        cs = d - rs
        sim = (((rs + cs) % 3) - 1).astype(np.float32)
        F[rs, cs] = np.maximum(
            F[rs - 1, cs - 1] + sim,
            np.maximum(F[rs - 1, cs] - PENALTY, F[rs, cs - 1] - PENALTY),
        )
    return F.reshape(-1)


def make_input(nv: int, seed: int = 0) -> np.ndarray:
    """Boundary-initialized score matrix (first row/col hold gap scores)."""
    A = np.zeros((nv, nv), dtype=np.float32)
    A[0, :] = -np.arange(nv, dtype=np.float32)
    A[:, 0] = -np.arange(nv, dtype=np.float32)
    return A.reshape(-1)


def inputs_for(qv: int, bv: int) -> Dict[str, object]:
    nv = qv * bv + 1
    return {"q": qv, "b": bv, "n": nv, "A": make_input(nv)}


def dry_inputs_for(qv: int, bv: int) -> Dict[str, int]:
    return {"q": qv, "b": bv, "n": qv * bv + 1}


#: Paper datasets (table I): row label -> (q, b) with n = q*b + 1 ~ label.
PAPER_DATASETS: Dict[str, Tuple[int, int]] = {
    "8192": (512, 16),
    "16384": (1024, 16),
    "32768": (2048, 16),
}

#: Small datasets for correctness validation against the reference.
TEST_DATASETS: Dict[str, Tuple[int, int]] = {
    "tiny": (3, 4),
    "small": (4, 8),
}


def ref_traffic(qv: int, bv: int) -> Tuple[int, int]:
    """(bytes_read, bytes_written) of the hand-written reference.

    Rodinia's kernel streams each block's two input bars in and its b*b
    cells out, once per cell overall: ~2 reads + 1 write per cell of the
    interior (the in-place hand-written code has no extra copies).
    """
    nv = qv * bv + 1
    cells = (nv - 1) * (nv - 1)
    return (2 * cells * 4, cells * 4)
