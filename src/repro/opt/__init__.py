"""The array short-circuiting optimization (paper section V).

At every *circuit point* -- ``let xss[W] = b_lu``, ``let x = concat a b_lu``,
or the implicit per-thread result write of a mapnest -- the pass tries to
construct the lastly-used array ``b`` (and every alias of it) directly in
the destination memory block, so the copy becomes a no-op.

The analysis is bottom-up: from the circuit point towards the creation of
``b``'s fresh array, maintaining two summaries of memory locations as
unions of LMADs:

* ``U_xss`` -- uses (reads and writes) of the destination memory between
  the current statement and the circuit point;
* ``W_bs`` -- writes performed through the rebased candidate.

Every write through the candidate must be provably disjoint from every
later use of the destination (checked by the LMAD non-overlap test of
:mod:`repro.lmad.overlap`); change-of-layout chains are rebased through
operation inverses; ``if``/``loop`` definitions recurse into the bodies
with the cross-iteration conditions of paper section V-B; transitive
chaining (fig. 6a) falls out of running the pass to a fixpoint.
"""

from repro.opt.summaries import AccessSet
from repro.opt.shortcircuit import ShortCircuitStats, short_circuit_fun
from repro.opt.fuse import FuseStats, fuse_fun

__all__ = [
    "AccessSet",
    "ShortCircuitStats",
    "short_circuit_fun",
    "FuseStats",
    "fuse_fun",
]
