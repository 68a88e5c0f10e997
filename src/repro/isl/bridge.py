"""LMAD / index-function to integer-set conversions.

An LMAD ``t + {(n1:s1), ..., (nq:sq)}`` *is* an affine relation from
index space to flat offsets:

    { [i1..iq] -> [a] : a == t + i1*s1 + ... + iq*sq
                        and 0 <= ik and ik <= nk - 1 }

so the whole access-set vocabulary of the structural checker embeds
exactly.  :func:`ixfn_to_relation` extends this to *composed* index
functions -- the ones :func:`IndexFn.as_single` gives up on -- by
row-major unranking each intermediate flat offset through the next
LMAD's shape with existential coordinates, mirroring the concrete
``np.unravel_index`` step in :meth:`IndexFn.gather_offsets`:

    prev == y1*R1 + ... + yq*Rq,   0 <= yk < shape_k,
    next == t + y1*s1 + ... + yq*sq

with ``Rk`` the row-major strides of the shape.  The divs/mods of
unranking thus become stride constraints with existentials, never
explicit operators.

Parameter lifting (:func:`lift_parameters`) promotes free symbols that
only occur additively (loop counters, thread indices) into constrained
dimensions using the prover context's bounds -- Fourier-Motzkin can
then chain those bounds where the interval strategies of
:class:`~repro.symbolic.Prover` give up.  Lifting is sound for EMPTY
verdicts (the true parameter values satisfy their bounds) but forfeits
NONEMPTY exactness, which the engine accounts for.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.isl.terms import BasicRel, BasicSet, Constraint, fresh_name
from repro.lmad.lmad import Lmad
from repro.symbolic.expr import SymExpr, sym


def lmad_to_relation(l: Lmad, tag: str = "i") -> BasicRel:
    """The access relation ``[index tuple] -> [flat offset]`` of one LMAD."""
    dims = [fresh_name(f"_{tag}") for _ in l.dims]
    addr = fresh_name("_a")
    expr = l.offset
    cons: List[Constraint] = []
    for name, d in zip(dims, l.dims):
        v = SymExpr.var(name)
        expr = expr + v * d.stride
        cons.append(Constraint.ge(v))
        cons.append(Constraint.ge(d.shape - 1 - v))
    cons.append(Constraint.eq(SymExpr.var(addr) - expr))
    return BasicRel(tuple(dims), (addr,), tuple(cons))


def lmad_to_set(l: Lmad) -> BasicSet:
    """The abstract *offset set* of an LMAD (indices existentialized)."""
    return lmad_to_relation(l, "i").range()


def unrank_relation(shape: Sequence[SymExpr], out: Lmad) -> BasicRel:
    """``[flat] -> [addr]``: row-major unranking through ``shape``,
    then application of ``out``'s strides (one composition step)."""
    flat = fresh_name("_f")
    addr = fresh_name("_a")
    coords = [fresh_name("_y") for _ in shape]
    cons: List[Constraint] = []
    rank_expr = sym(0)
    stride: SymExpr = sym(1)
    row_strides: List[SymExpr] = []
    for extent in reversed(list(shape)):
        row_strides.append(stride)
        stride = stride * extent
    row_strides.reverse()
    addr_expr = out.offset
    for name, extent, rstride, d in zip(coords, shape, row_strides, out.dims):
        v = SymExpr.var(name)
        rank_expr = rank_expr + v * rstride
        addr_expr = addr_expr + v * d.stride
        cons.append(Constraint.ge(v))
        cons.append(Constraint.ge(extent - 1 - v))
    cons.append(Constraint.eq(SymExpr.var(flat) - rank_expr))
    cons.append(Constraint.eq(SymExpr.var(addr) - addr_expr))
    return BasicRel((flat,), (addr,), tuple(cons), tuple(coords))


def ixfn_to_relation(ixfn) -> BasicRel:
    """Access relation ``[index tuple] -> [flat offset]`` of any IndexFn.

    Works for compositions (the non-invertible case): each outer LMAD
    contributes an unranking step with existential coordinates.
    """
    rel = lmad_to_relation(ixfn.lmads[-1])
    for outer in reversed(ixfn.lmads[:-1]):
        rel = rel.compose(unrank_relation(outer.shape, outer))
    return rel


def ixfn_to_set(ixfn) -> BasicSet:
    return ixfn_to_relation(ixfn).range()


def overlap_set(a, b) -> BasicSet:
    """The set of flat offsets touched by *both* access relations.

    ``a`` and ``b`` may be LMADs or IndexFns; the result is empty iff
    the two access sets are disjoint.
    """
    sa = _as_set(a)
    sb = _as_set(b)
    sb = sb.rename(dict(zip(sb.dims, sa.dims)))
    return sa.intersect(sb)


def _as_set(x) -> BasicSet:
    if isinstance(x, Lmad):
        return lmad_to_set(x)
    return ixfn_to_set(x)


def slice_box_difference(
    widened: Lmad, starts: Sequence[SymExpr], counts: Sequence[SymExpr]
) -> "IntSet":
    """Offsets of ``widened`` *outside* the box ``starts/counts``.

    This is the non-convex "extra" region a widened slice inverse drags
    in: the widened LMAD's full footprint minus the sub-box that the
    original slice actually covered.  Because the widened LMAD's own
    index coordinates are available (we built it), the difference is
    taken in index space -- one basic set per box face -- and pushed
    through the address map, sidestepping the universal quantifier a
    flat-space complement would need.
    """
    from repro.isl.terms import IntSet

    rel = lmad_to_relation(widened)
    pieces: List[BasicSet] = []
    for k, (s, c) in enumerate(zip(starts, counts)):
        v = SymExpr.var(rel.in_dims[k])
        below = rel.intersect_domain(
            BasicSet(rel.in_dims, (Constraint.ge(sym(s) - 1 - v),))
        )
        above = rel.intersect_domain(
            BasicSet(rel.in_dims, (Constraint.ge(v - sym(s) - sym(c)),))
        )
        pieces.append(below.range())
        pieces.append(above.range())
    return IntSet(tuple(pieces))


#: Parameters :func:`lift_parameters` promotes at most (each one is a
#: Fourier-Motzkin dimension).
_MAX_LIFT = 12


def lift_parameters(bs: BasicSet, ctx) -> Tuple[BasicSet, bool]:
    """Promote additively-occurring free parameters into bounded dims.

    A parameter qualifies when every occurrence across all constraints
    is linear with an integer coefficient (i.e. it is an offset-like
    quantity such as a loop counter, not a stride).  Its context bounds
    become constraints; parameters without any bound are still lifted
    (Fourier-Motzkin simply drops them), which lets *relative* facts
    like ``j_other >= j + 1`` participate.

    Returns the lifted set and whether anything was lifted (in which
    case a NONEMPTY verdict must degrade to UNKNOWN).

    Constraints are rewritten through ``ctx.normalize`` *first*: a
    parameter that looks additive in the raw constraints may reappear
    inside a product after equality rewriting (``n == q*b + 1`` turns an
    additive ``b`` into a stride), and lifting it would make the set
    non-affine.
    """
    bs = BasicSet(
        bs.dims,
        tuple(Constraint(ctx.normalize(c.expr), c.is_eq) for c in bs.constraints),
        bs.exists,
    )
    taken = set(bs.all_vars())
    candidates: List[str] = []
    free: set = set()
    for c in bs.constraints:
        free |= set(c.expr.free_vars())
    for v in sorted(free - taken):
        ok = True
        for c in bs.constraints:
            coeffs = c.expr.coefficients_in(v)
            for power, coeff in coeffs.items():
                if power > 1 or (power == 1 and coeff.free_vars() & taken):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            candidates.append(v)
        if len(candidates) >= _MAX_LIFT:
            break
    # A candidate whose coefficient mentions *another* candidate would
    # become bilinear once both are set variables; drop until stable.
    while True:
        cset = set(candidates)
        dropped = False
        for v in list(candidates):
            for c in bs.constraints:
                coeffs = c.expr.coefficients_in(v)
                if any(
                    p == 1 and coeff.free_vars() & (cset - {v})
                    for p, coeff in coeffs.items()
                ):
                    candidates.remove(v)
                    dropped = True
                    break
        if not dropped:
            break
    if not candidates:
        return bs, False

    extra: List[Constraint] = []
    for v in candidates:
        b = ctx.bound(v)
        ve = SymExpr.var(v)
        if b.lower is not None:
            extra.append(Constraint.ge(ve - b.lower))
        if b.upper is not None:
            extra.append(Constraint.ge(b.upper - ve))
    lifted = BasicSet(
        bs.dims,
        bs.constraints + tuple(extra),
        bs.exists + tuple(candidates),
    )
    return lifted, True
