"""The polyhedral fallback prover: one facade over terms + emptiness.

A :class:`PolyEngine` wraps a :class:`~repro.symbolic.Prover` (for
coefficient signs, ground facts, and the assumption context) and
answers the disjointness / containment questions the optimization
passes ask, as relation-emptiness problems.  Every public query returns
a :class:`~repro.isl.emptiness.Verdict`; ``EMPTY`` is exact and is the
only verdict the passes act on.

The engine keeps no answers of its own: finished disjointness verdicts
are remembered one level up, by the compilation's
:class:`~repro.lmad.overlap.ProverPool`, keyed by the facts they were
proved under rather than by this object.
"""

from __future__ import annotations

from typing import Optional

from repro.isl.bridge import (
    lift_parameters,
    overlap_set,
)
from repro.isl.emptiness import Verdict, basic_empty
from repro.isl.terms import BasicSet, Constraint, IntSet
from repro.lmad.lmad import Lmad
from repro.symbolic.expr import ExprLike, SymExpr, sym
from repro.symbolic.prove import Prover


class PolyEngine:
    """Presburger-style emptiness queries bound to one prover context."""

    def __init__(self, prover: Prover):
        self.prover = prover
        #: The offset both operands of the most recent
        #: :meth:`accesses_disjoint` call provably contain, when that is
        #: how it reached ``NONEMPTY``; ``None`` otherwise.
        self.shared_point: Optional[SymExpr] = None

    # ------------------------------------------------------------------
    def set_is_empty(self, s) -> Verdict:
        """Emptiness of a :class:`BasicSet`/:class:`IntSet`, with
        parameter lifting applied per basic piece."""
        pieces = s.pieces if isinstance(s, IntSet) else (s,)
        verdicts = []
        for piece in pieces:
            lifted, did_lift = lift_parameters(piece, self.prover.ctx)
            v = basic_empty(lifted, self.prover)
            if v is Verdict.NONEMPTY and did_lift:
                v = Verdict.UNKNOWN
            verdicts.append(v)
        if any(v is Verdict.NONEMPTY for v in verdicts):
            return Verdict.NONEMPTY
        if all(v is Verdict.EMPTY for v in verdicts):
            return Verdict.EMPTY
        return Verdict.UNKNOWN

    # ------------------------------------------------------------------
    def accesses_disjoint(self, a, b) -> Verdict:
        """Are the access sets of two LMADs / IndexFns disjoint?

        ``EMPTY`` = provably disjoint; ``NONEMPTY`` = provably sharing
        at least one offset; ``UNKNOWN`` otherwise.
        """
        self.shared_point = self._shared_first_point(a, b)
        if self.shared_point is not None:
            return Verdict.NONEMPTY
        try:
            return self.set_is_empty(overlap_set(a, b))
        except (ValueError, OverflowError):
            return Verdict.UNKNOWN

    def _shared_first_point(self, a, b) -> Optional[SymExpr]:
        """Refutation by inspection: two LMADs whose offsets are provably
        equal and whose every dimension provably has at least one point
        both contain that offset (index tuple all zeros), whatever the
        parameters.  Elimination cannot say more than ``NONEMPTY`` about
        such a pair, and under lifted parameters it says less after
        searching for longer."""
        if not (isinstance(a, Lmad) and isinstance(b, Lmad)):
            return None
        ctx = self.prover.ctx
        if ctx.numeric_range(a.offset - b.offset) != (0, 0):
            return None
        if not all(self.prover.pos(d.shape) for l in (a, b) for d in l.dims):
            return None
        return b.offset

    def disjoint_from_extra(self, access, extra: IntSet) -> Verdict:
        """Is ``access``'s offset set disjoint from the ``extra`` region?

        ``extra`` is a union of address-space basic sets (e.g. the
        non-convex leftovers of a widened slice inverse); ``access`` is
        an LMAD or IndexFn.
        """
        from repro.isl.bridge import _as_set

        try:
            sa = _as_set(access)
            verdicts = []
            for piece in extra.pieces:
                pc = piece.rename(dict(zip(piece.dims, sa.dims)))
                verdicts.append(self.set_is_empty(sa.intersect(pc)))
        except (ValueError, OverflowError):
            return Verdict.UNKNOWN
        if all(v is Verdict.EMPTY for v in verdicts):
            return Verdict.EMPTY
        if any(v is Verdict.NONEMPTY for v in verdicts):
            return Verdict.NONEMPTY
        return Verdict.UNKNOWN

    def lmad_injective(self, l) -> Verdict:
        """Injectivity as emptiness: can two *distinct* index tuples map
        to the same flat offset?

        Builds two copies of the access relation sharing the address
        output, plus one "indices differ in dim k" piece per dimension
        and direction; ``EMPTY`` on every piece proves injectivity.
        """
        from repro.isl.bridge import lmad_to_relation

        try:
            r1 = lmad_to_relation(l)
            r2 = lmad_to_relation(l)
            r2 = r2.rename(dict(zip(r2.out_dims, r1.out_dims)))
            base = BasicSet(
                r1.in_dims + r2.in_dims,
                r1.constraints + r2.constraints,
                r1.exists + r2.exists + r1.out_dims,
            )
            verdicts = []
            for a, b in zip(r1.in_dims, r2.in_dims):
                diff = SymExpr.var(a) - SymExpr.var(b)
                for piece in (
                    base.with_constraints([Constraint.ge(diff - 1)]),
                    base.with_constraints([Constraint.ge(-diff - 1)]),
                ):
                    verdicts.append(self.set_is_empty(piece))
        except (ValueError, OverflowError):
            verdicts = [Verdict.UNKNOWN]
        if not verdicts or all(v is Verdict.EMPTY for v in verdicts):
            return Verdict.EMPTY
        if any(v is Verdict.NONEMPTY for v in verdicts):
            return Verdict.NONEMPTY
        return Verdict.UNKNOWN

    # ------------------------------------------------------------------
    def entails_nonneg(self, expr: ExprLike) -> bool:
        """Fallback for ``expr >= 0`` when the interval prover gives up.

        Encodes the *negation* ``expr <= -1`` as a set over the
        expression's bounded free variables and proves it empty --
        Fourier-Motzkin chains symbolic bounds that the substitution
        strategies of :class:`~repro.symbolic.Prover` miss.
        """
        e = self.prover.ctx.normalize(sym(expr))
        if e.as_int() is not None:
            return e.as_int() >= 0
        probe = BasicSet((), (Constraint.ge(-e - 1),))
        return self.set_is_empty(probe) is Verdict.EMPTY
