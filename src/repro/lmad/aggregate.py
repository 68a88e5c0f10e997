"""Aggregation of LMAD access summaries across loops (paper section II-B).

Given the access set ``W_i`` of one iteration of a loop ``i = 0 .. m-1``,
the union ``W = union_i W_i`` is computed by *promoting* the loop index to a
new LMAD dimension:

* the new dimension's cardinality is the trip count ``m``;
* its stride is ``W_{i+1}.offset - W_i.offset``, which must be independent
  of ``i`` (quasi-affine offsets only);
* the base offset is ``W_i.offset`` at ``i = 0``.

If the loop index occurs in a *cardinality*, the paper (footnote 8) permits
a sound overestimate by substituting whichever loop bound maximizes it; an
occurrence in a *stride* makes aggregation fail (conservative).

These are exactly the "repeated unions of LMADs" that the short-circuiting
summaries ``U_xss`` / ``W_bs`` need (paper section V-B) -- no subtraction or
intersection operators are required.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lmad.lmad import Lmad, LmadDim
from repro.symbolic import Prover, SymExpr, sym
from repro.symbolic.expr import ExprLike


def aggregate_over_loop(
    access: Lmad,
    var: str,
    count: ExprLike,
    prover: Prover,
) -> Optional[Lmad]:
    """Union of ``access`` over ``var = 0 .. count-1`` as a single LMAD.

    Returns ``None`` when the access is not quasi-affine in ``var`` (the
    caller then falls back to an unknown/top summary).  The result may be an
    overestimate (a superset), which is sound for the non-overlap test.
    """
    count = sym(count)

    # Promote the offset's dependence on `var` to a new dimension.
    shifted = access.substitute({var: SymExpr.var(var) + 1})
    stride_new = shifted.offset - access.offset
    if var in stride_new.free_vars():
        return None  # offset not affine in the loop index

    dims: List[LmadDim] = []
    for d in access.dims:
        shape, stride = d.shape, d.stride
        if var in stride.free_vars():
            return None
        if var in shape.free_vars():
            # Footnote 8: overestimate the cardinality with whichever bound
            # maximizes it.  Try the upper bound first, then the lower.
            hi = shape.substitute({var: count - 1})
            lo = shape.substitute({var: sym(0)})
            if prover.nonneg(hi - lo):
                shape = hi
            elif prover.nonneg(lo - hi):
                shape = lo
            else:
                return None
        dims.append(LmadDim(shape, stride))

    offset0 = access.offset.substitute({var: sym(0)})
    if stride_new.is_zero():
        # The access does not move with the loop: the union is one iteration
        # (with over-approximated cardinalities).
        return Lmad(offset0, tuple(dims))
    return Lmad(offset0, (LmadDim(count, stride_new),) + tuple(dims))
