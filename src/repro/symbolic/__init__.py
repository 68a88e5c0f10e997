"""Symbolic integer algebra for compile-time index reasoning.

This package is the reproduction's stand-in for the external SMT solver the
paper used to discharge the inequalities produced by the LMAD non-overlap
test (SC22 paper, section V-C/V-D).  The authors note they were "working on
replacing this with a simpler symbolic algebra engine inside the compiler" --
this package *is* that engine.

The core objects are:

- :class:`~repro.symbolic.expr.SymExpr` -- multivariate integer polynomials in
  a canonical (expanded, sorted-monomial) normal form, with full operator
  overloading so compiler code can write ``i * b + n + 1`` directly.
- :class:`~repro.symbolic.assumptions.Context` -- a set of assumptions about
  program variables: equality substitutions (``n == q*b + 1``) and one-sided
  bounds (``q >= 2``, ``b >= 1``).
- :mod:`~repro.symbolic.prove` -- a sound-but-incomplete prover for sign
  questions (``e >= 0``?, ``e > 0``?, ``e == 0``?) under a context, built
  from equality saturation + bound substitution + interval evaluation.

Soundness contract: every :class:`Prover` query may answer ``False`` ("could
not prove") for a true fact, but never ``True`` for a false one.  The
short-circuiting pass treats "could not prove" as "keep the copy", so an
incomplete prover costs performance, never correctness -- exactly the
trade-off the paper describes in section III-D.
"""

from repro.symbolic.expr import SymExpr, Var, sym
from repro.symbolic.assumptions import Context, Bound
from repro.symbolic.prove import Prover, Sign

__all__ = [
    "SymExpr",
    "Var",
    "sym",
    "Context",
    "Bound",
    "Prover",
    "Sign",
]
