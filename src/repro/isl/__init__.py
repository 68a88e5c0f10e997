"""``repro.isl``: a Presburger-style integer-set-relations engine.

The polyhedral fallback tier behind the structural LMAD machinery
(DESIGN.md §11).  Affine sets and relations over
:class:`~repro.symbolic.SymExpr` coefficients, existential dimensions
with mod/div normalized to stride constraints, and an exact emptiness
test (Fourier-Motzkin with integer tightening, dark shadow, and omega
splintering) with an explicit UNKNOWN verdict.
"""

from repro.isl.bridge import (
    ixfn_to_relation,
    ixfn_to_set,
    lift_parameters,
    lmad_to_relation,
    lmad_to_set,
    overlap_set,
    slice_box_difference,
    unrank_relation,
)
from repro.isl.emptiness import Verdict, basic_empty
from repro.isl.engine import PolyEngine
from repro.isl.terms import (
    BasicRel,
    BasicSet,
    Constraint,
    IntSet,
    fresh_name,
    stride_constraint,
)

__all__ = [
    "BasicRel",
    "BasicSet",
    "Constraint",
    "IntSet",
    "PolyEngine",
    "Verdict",
    "basic_empty",
    "fresh_name",
    "ixfn_to_relation",
    "ixfn_to_set",
    "lift_parameters",
    "lmad_to_relation",
    "lmad_to_set",
    "overlap_set",
    "slice_box_difference",
    "stride_constraint",
    "unrank_relation",
]
