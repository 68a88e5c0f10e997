"""Linear Memory Access Descriptors and the analyses built on them.

An LMAD (Paek, Hoeflinger, Padua) ``t + {(n1:s1), ..., (nq:sq)}`` denotes the
set of flat indices ``{ t + i1*s1 + ... + iq*sq | 0 <= ik < nk }``.  The paper
(SC22) uses LMADs in three roles, and so does this package:

1. **Generalized slices** at the language level (:class:`~repro.lmad.lmad.Lmad`
   values used as slice descriptors, e.g. all NW anti-diagonal blocks).
2. **Index functions** mapping array indices to flat offsets in a memory
   block (:class:`~repro.lmad.ixfun.IndexFn`, possibly a composition of
   several LMADs with run-time unranking, paper fig. 3).
3. **Abstract access sets** for the short-circuiting index analysis:
   aggregation across loops (:mod:`~repro.lmad.aggregate`, paper section
   II-B) and the static non-overlap test (:mod:`~repro.lmad.overlap`, paper
   fig. 8 and the Non-Overlap theorem of section V-C).

Anti-unification of index functions (paper section IV-C, used when the two
branches of an ``if`` return arrays with different layouts) lives in
:mod:`~repro.lmad.antiunify`.
"""

from repro.lmad.lmad import Lmad, LmadDim, dim, lmad
from repro.lmad.ixfun import IndexFn
from repro.lmad.interval import StridedInterval, SumOfIntervals
from repro.lmad.overlap import NonOverlapChecker, ProverPool, lmads_nonoverlapping
from repro.lmad.aggregate import aggregate_over_loop
from repro.lmad.antiunify import antiunify_ixfns, AntiUnifyResult

__all__ = [
    "Lmad",
    "LmadDim",
    "dim",
    "lmad",
    "IndexFn",
    "StridedInterval",
    "SumOfIntervals",
    "NonOverlapChecker",
    "ProverPool",
    "lmads_nonoverlapping",
    "aggregate_over_loop",
    "antiunify_ixfns",
    "AntiUnifyResult",
]
