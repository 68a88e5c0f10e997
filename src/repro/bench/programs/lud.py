"""LUD (Rodinia) -- blocked LU decomposition (paper section VI-C, fig. 10a).

The matrix (flat, ``n = q*b``) is processed along the block diagonal; at
step ``k`` four phases run, each a mapnest whose result updates a region of
the matrix through a generalized LMAD slice:

1. **diagonal** (green): in-block LU of block (k,k), one thread;
2. **row strip** (one perimeter colour): forward-substitution of blocks
   (k, j) for j > k against the diagonal's L factor;
3. **column strip** (the other perimeter colour): back-substitution of
   blocks (i, k) against the diagonal's U factor;
4. **interior** (red): rank-b update ``A[i,j] -= L[i,k] @ U[k,j]`` over the
   (q-1-k)^2 remaining blocks, as a nested map (a 2-D kernel).

Every phase's ``let A[W] = X`` is a circuit point; phases read regions the
previous phases just wrote, so legality rests on the non-overlap proofs
between block regions (strips vs. interior etc.).  The paper reports the
yellow/red phases short-circuit while green/blue do not (for Futhark-
specific layout reasons); the corresponding shape here is that the wide
phases carry the traffic that matters.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.lmad import lmad
from repro.symbolic import Var

n, q, b = Var("n"), Var("q"), Var("b")


def _load_block(bb, A: str, row0, col0) -> str:
    """Copy a b x b block of the flat matrix into a local scratch array."""
    blk = bb.scratch("f32", [b, b])
    lr = bb.loop(count=b, carried=[("lb_r", blk)], index="r")
    lc = lr.loop(count=b, carried=[("lb_c", lr["lb_r"])], index="c")
    v = lc.index(A, [(row0 + lr.idx) * n + col0 + lc.idx])
    blk2 = lc.update_point(lc["lb_c"], [lr.idx, lc.idx], v)
    lc.returns(blk2)
    (blk3,) = lc.end()
    lr.returns(blk3)
    (blk4,) = lr.end()
    return blk4


def build() -> Fun:
    bld = FunBuilder("lud")
    bld.param("q", ScalarType("i64"))
    bld.param("b", ScalarType("i64"))
    bld.param("n", ScalarType("i64"))
    A0 = bld.param("A", f32(n * n))
    bld.define("n", q * b)
    bld.assume_lower("q", 2)
    bld.assume_lower("b", 2)

    lp = bld.loop(count=q, carried=[("Ak", A0)], index="k")
    k = lp.idx
    Ak = lp["Ak"]
    cnt = q - 1 - k
    diag0 = k * b * n + k * b  # flat offset of block (k,k)

    # ---- phase 1: in-block LU of the diagonal block -------------------
    p1 = lp.map_(1, index="z")
    blk = _load_block(p1, Ak, k * b, k * b)
    lu_c = p1.loop(count=b - 1, carried=[("lu", blk)], index="c")
    c = lu_c.idx
    piv = lu_c.index(lu_c["lu"], [c, c])
    lu_r = lu_c.loop(count=b - 1 - c, carried=[("lur", lu_c["lu"])], index="rr")
    r = lu_r.idx + c + 1
    lval = lu_r.binop("/", lu_r.index(lu_r["lur"], [r, c]), piv)
    s1 = lu_r.update_point(lu_r["lur"], [r, c], lval)
    el = lu_r.loop(count=b - 1 - c, carried=[("le", s1)], index="cc")
    c2 = el.idx + c + 1
    upd = el.binop(
        "-",
        el.index(el["le"], [r, c2]),
        el.binop("*", lval, el.index(el["le"], [c, c2])),
    )
    s2 = el.update_point(el["le"], [r, c2], upd)
    el.returns(s2)
    (s3,) = el.end()
    lu_r.returns(s3)
    (s4,) = lu_r.end()
    lu_c.returns(s4)
    (lu_done,) = lu_c.end()
    p1.returns(lu_done)
    (Xdiag,) = p1.end()
    Wdiag = lmad(diag0, [(1, 1), (b, n), (b, 1)])
    A1 = lp.update_lmad(Ak, Wdiag, Xdiag)

    # ---- phase 2: row strip (k, j) for j > k ---------------------------
    p2 = lp.map_(cnt, index="j")
    j = p2.idx
    col0 = (k + 1 + j) * b
    out0 = p2.scratch("f32", [b, b])
    oc = p2.loop(count=b, carried=[("rs_c", out0)], index="c")
    orow = oc.loop(count=b, carried=[("rs_r", oc["rs_c"])], index="r")
    r = orow.idx
    a0 = orow.index(Ak if False else A1, [(k * b + r) * n + col0 + oc.idx])
    acc = orow.loop(count=r, carried=[("acc", a0)], index="t")
    lv = acc.index(A1, [(k * b + r) * n + k * b + acc.idx])
    xv = acc.index(acc["rs_r"] if False else orow["rs_r"], [acc.idx, oc.idx])
    acc2 = acc.binop("-", acc["acc"], acc.binop("*", lv, xv))
    acc.returns(acc2)
    (sfin,) = acc.end()
    o2 = orow.update_point(orow["rs_r"], [r, oc.idx], sfin)
    orow.returns(o2)
    (o3,) = orow.end()
    oc.returns(o3)
    (o4,) = oc.end()
    p2.returns(o4)
    (Xrow,) = p2.end()
    Wrow = lmad(k * b * n + (k + 1) * b, [(cnt, b), (b, n), (b, 1)])
    A2 = lp.update_lmad(A1, Wrow, Xrow)

    # ---- phase 3: column strip (i, k) for i > k ------------------------
    p3 = lp.map_(cnt, index="i2")
    i2 = p3.idx
    row0 = (k + 1 + i2) * b
    cs0 = p3.scratch("f32", [b, b])
    pr = p3.loop(count=b, carried=[("cs_r", cs0)], index="r")
    pc = pr.loop(count=b, carried=[("cs_c", pr["cs_r"])], index="c")
    c = pc.idx
    a0 = pc.index(A2, [(row0 + pr.idx) * n + k * b + c])
    acc = pc.loop(count=c, carried=[("acc2", a0)], index="t")
    xv = acc.index(pc["cs_c"], [pr.idx, acc.idx])
    uv = acc.index(A2, [(k * b + acc.idx) * n + k * b + c])
    acc2 = acc.binop("-", acc["acc2"], acc.binop("*", xv, uv))
    acc.returns(acc2)
    (sfin,) = acc.end()
    udiag = pc.index(A2, [(k * b + c) * n + k * b + c])
    final = pc.binop("/", sfin, udiag)
    c2_ = pc.update_point(pc["cs_c"], [pr.idx, c], final)
    pc.returns(c2_)
    (c3,) = pc.end()
    pr.returns(c3)
    (c4,) = pr.end()
    p3.returns(c4)
    (Xcol,) = p3.end()
    Wcol = lmad((k + 1) * b * n + k * b, [(cnt, b * n), (b, n), (b, 1)])
    A3 = lp.update_lmad(A2, Wcol, Xcol)

    # ---- phase 4: interior rank-b update (nested 2-D map) -------------
    # The dot products ``L[i,k] @ U[k,j]``, staged as the separate
    # GEMM-like kernel a library call would be: a rank-4 [cnt][cnt][b][b]
    # mapnest producer whose innermost value is a scalar accumulation
    # loop over the two panel strips.  Mapnest fusion inlines it at its
    # single read site in the update kernel below -- legal only because
    # the per-read *footprint* proof narrows the producer's reads to the
    # row/column panel regions, which are disjoint from the interior
    # region the fused kernel writes (whole-array reasoning would see
    # A's block and give up).  ``nofuse`` materializes all
    # (q-1-k)^2 * b^2 dot products and pays their write+read round trip
    # every step.
    dt = lp.map_(cnt, index="di")
    dro = (k + 1 + dt.idx) * b
    dtj = dt.map_(cnt, index="dj")
    dco = (k + 1 + dtj.idx) * b
    dtr = dtj.map_(b, index="dr")
    dtc = dtr.map_(b, index="dc")
    dz = dtc.lit(0.0, "f32")
    dacc = dtc.loop(count=b, carried=[("dsum", dz)], index="dt")
    dlv = dacc.index(A3, [(dro + dtr.idx) * n + k * b + dacc.idx])
    duv = dacc.index(A3, [(k * b + dacc.idx) * n + dco + dtc.idx])
    dacc2 = dacc.binop("+", dacc["dsum"], dacc.binop("*", dlv, duv))
    dacc.returns(dacc2)
    (dsum,) = dacc.end()
    dtc.returns(dsum)
    (dcrow,) = dtc.end()
    dtr.returns(dcrow)
    (dblk,) = dtr.end()
    dtj.returns(dblk)
    (dbrow,) = dtj.end()
    dt.returns(dbrow)
    (dots,) = dt.end()

    p4o = lp.map_(cnt, index="bi")
    bi = p4o.idx
    p4i = p4o.map_(cnt, index="bj")
    bj = p4i.idx
    r0 = (k + 1 + bi) * b
    c0 = (k + 1 + bj) * b
    int0 = p4i.scratch("f32", [b, b])
    ir = p4i.loop(count=b, carried=[("in_r", int0)], index="r")
    ic = ir.loop(count=b, carried=[("in_c", ir["in_r"])], index="c")
    a0 = ic.index(A3, [(r0 + ir.idx) * n + c0 + ic.idx])
    dv = ic.index(dots, [bi, bj, ir.idx, ic.idx])
    sfin = ic.binop("-", a0, dv)
    i2_ = ic.update_point(ic["in_c"], [ir.idx, ic.idx], sfin)
    ic.returns(i2_)
    (i3,) = ic.end()
    ir.returns(i3)
    (i4,) = ir.end()
    p4i.returns(i4)
    (inner_row,) = p4i.end()
    p4o.returns(inner_row)
    (Xint,) = p4o.end()
    Wint = lmad(
        (k + 1) * b * (n + 1), [(cnt, b * n), (cnt, b), (b, n), (b, 1)]
    )
    A4 = lp.update_lmad(A3, Wint, Xint)

    lp.returns(A4)
    (res,) = lp.end()
    bld.returns(res)
    return bld.build()


# ----------------------------------------------------------------------
def reference(A: np.ndarray, nv: int) -> np.ndarray:
    """In-place LU without pivoting (Doolittle), vectorized."""
    F = A.reshape(nv, nv).astype(np.float32).copy()
    for kk in range(nv - 1):
        F[kk + 1 :, kk] = (F[kk + 1 :, kk] / F[kk, kk]).astype(np.float32)
        F[kk + 1 :, kk + 1 :] -= np.outer(F[kk + 1 :, kk], F[kk, kk + 1 :]).astype(
            np.float32
        )
    return F.reshape(-1)


def make_input(nv: int, seed: int = 0) -> np.ndarray:
    """Diagonally dominant matrix (pivoting-free LU is stable on it)."""
    rng = np.random.RandomState(seed)
    A = rng.rand(nv, nv).astype(np.float32)
    A += np.eye(nv, dtype=np.float32) * nv
    return A.reshape(-1)


def inputs_for(qv: int, bv: int) -> Dict[str, object]:
    nv = qv * bv
    return {"q": qv, "b": bv, "n": nv, "A": make_input(nv)}


def dry_inputs_for(qv: int, bv: int) -> Dict[str, int]:
    return {"q": qv, "b": bv, "n": qv * bv}


#: Paper datasets (table II): label -> (q, b), n = q*b.
PAPER_DATASETS: Dict[str, Tuple[int, int]] = {
    "8192": (512, 16),
    "16384": (1024, 16),
    "32768": (2048, 16),
}

TEST_DATASETS: Dict[str, Tuple[int, int]] = {
    "tiny": (2, 3),
    "small": (3, 4),
}


def ref_traffic(qv: int, bv: int) -> Tuple[int, int]:
    """Rodinia LUD with block tiling: ~2 reads + 1 write per interior
    element per step k, summed over steps."""
    nv = qv * bv
    total = 0
    for kk in range(qv):
        rem = (qv - 1 - kk) * bv
        total += (rem + bv) ** 2
    return (2 * total * 4, total * 4)
