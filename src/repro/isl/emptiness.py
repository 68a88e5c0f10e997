"""Exact emptiness for affine integer sets (omega-style elimination).

The algorithm eliminates set variables one at a time until only
parameter ("ground") facts remain, then asks the interval/rewrite
:class:`~repro.symbolic.Prover` to settle those:

1. **Normalization / tightening**: constraint expressions are rewritten
   with the context's equalities (``n == q*b + 1`` style), ground facts
   are discharged or flagged as contradictions, and inequalities with
   integer variable coefficients are divided by their gcd with the
   constant floor-tightened (the classic integer tightening step).
   Equalities get the gcd divisibility test: ``2x + 4y + 1 == 0`` is
   immediately empty.

2. **Equality substitution**: an equality with a ``+-1`` coefficient on
   some variable is solved and substituted (exact over Z).  A non-unit
   integer coefficient is used when the rest divides exactly.

3. **Fourier-Motzkin** on a variable whose coefficient *signs* are all
   decidable (integer, or settled by the prover for symbolic strides).
   A variable bounded on one side only is eliminated by dropping its
   constraints (exact).  Each lower/upper pair combines into the *real
   shadow*; a derived contradiction is sound for Z regardless of
   coefficients.  When both coefficients are non-unit integers the
   elimination is inexact, so the *dark shadow* (``a*B - c*A >=
   (a-1)(c-1)``) is kept alongside: a point in the dark shadow is
   guaranteed to extend to an integer value of the eliminated variable.
   If the dark shadow is empty but the real shadow is not, the omega
   test *splinters*: integer solutions, if any, sit on one of finitely
   many hyperplanes ``a*v == alpha + i``, each checked recursively.

Verdicts are tri-state.  ``EMPTY`` is exact (never claimed unless the
set truly has no integer points); ``NONEMPTY`` is only claimed when
every elimination step was integer-exact; anything else is ``UNKNOWN``.
"""

from __future__ import annotations

import enum
from math import gcd
from typing import List, Optional, Sequence, Tuple

from repro.isl.terms import BasicSet, Constraint
from repro.symbolic.expr import SymExpr
from repro.symbolic.prove import Prover, Sign


class Verdict(enum.Enum):
    EMPTY = "empty"
    NONEMPTY = "nonempty"
    UNKNOWN = "unknown"


def _lin_coeffs(t: SymExpr, vset) -> List[SymExpr]:
    out = []
    for v in t.free_vars():
        coeff = t.coefficients_in(v).get(1)
        if coeff is not None:
            out.append(coeff)
    return out


#: Caps keeping elimination from blowing up on adversarial inputs; a cap
#: hit degrades the verdict to UNKNOWN, never to a wrong answer.
MAX_CONSTRAINTS = 160
MAX_STEPS = 48
MAX_SPLINTERS = 24
MAX_DEPTH = 5
BRANCH_BUDGET = 2
MAX_PIVOTS = 6


def basic_empty(bs: BasicSet, prover: Prover) -> Verdict:
    if not bs.is_affine():
        return Verdict.UNKNOWN
    return _empty_rec(
        prover, list(bs.all_vars()), list(bs.constraints), 0, BRANCH_BUDGET
    )


def _empty_rec(
    prover: Prover,
    variables: List[str],
    cons: List[Constraint],
    depth: int,
    budget: int,
) -> Verdict:
    """Elimination, then integer branch-and-bound on a unit bound.

    When elimination degrades to UNKNOWN (symbolic non-unit coefficient
    pairs -- e.g. ``n*r`` bounded into an interval shorter than ``n``),
    the integer dichotomy ``v == L  or  v >= L + 1`` taken at an
    *existing* unit-coefficient bound ``v >= L`` partitions the set
    exactly; each arm is usually settled by plain Fourier-Motzkin.
    This is the integer-set analogue of the structural checker's
    dimension splitting ``[l..u] -> {l} union [l+1..u]``.
    """
    elim = _Eliminator(prover)
    verdict = elim.run(list(variables), list(cons), depth)
    if verdict is not Verdict.UNKNOWN or budget <= 0:
        return verdict
    for var, bound, from_below in _unit_pivots(variables, cons):
        v = SymExpr.var(var)
        if from_below:  # v >= bound is entailed
            arms = (
                cons + [Constraint.eq(v - bound)],
                cons + [Constraint.ge(v - bound - 1)],
            )
        else:  # v <= bound is entailed
            arms = (
                cons + [Constraint.eq(v - bound)],
                cons + [Constraint.ge(bound - 1 - v)],
            )
        results = [
            _empty_rec(prover, variables, arm, depth + 1, budget - 1)
            for arm in arms
        ]
        if any(r is Verdict.NONEMPTY for r in results):
            return Verdict.NONEMPTY
        if all(r is Verdict.EMPTY for r in results):
            return Verdict.EMPTY
    return Verdict.UNKNOWN


def _unit_pivots(variables: Sequence[str], cons: Sequence[Constraint]):
    """Candidate ``(var, bound_expr, is_lower)`` branch pivots.

    A pivot is a unit-coefficient inequality bound on a variable; the
    branch at such a bound covers the set exactly.  Variables that also
    appear somewhere with a *symbolic* coefficient come first: those are
    the ones elimination got stuck on.
    """
    vset = set(variables)
    stuck = set()
    for c in cons:
        for mono, _coeff in c.expr.terms.items():
            mvars = [mv for mv, _p in mono if mv in vset]
            if len(mvars) == 1 and len(mono) > 1:
                stuck.add(mvars[0])

    pivots = []
    for c in cons:
        if c.is_eq:
            continue
        for var in vset & set(c.expr.free_vars()):
            coeff = c.expr.coefficients_in(var).get(1)
            ci = coeff.as_int() if coeff is not None else None
            if ci not in (1, -1):
                continue
            rest = c.expr - SymExpr.var(var) * ci
            if rest.free_vars() & vset:
                continue  # bound must be in terms of parameters only
            if ci == 1:  # var + rest >= 0  ==>  var >= -rest
                pivots.append((var, -rest, True))
            else:  # -var + rest >= 0  ==>  var <= rest
                pivots.append((var, rest, False))
    pivots.sort(key=lambda p: (p[0] not in stuck,))
    return pivots[:MAX_PIVOTS]


class _Eliminator:
    def __init__(self, prover: Prover):
        self.prover = prover
        self.exact = True
        self.steps = 0

    # ------------------------------------------------------------------
    def run(
        self, variables: List[str], cons: List[Constraint], depth: int = 0
    ) -> Verdict:
        if depth > MAX_DEPTH:
            return Verdict.UNKNOWN
        residual_unknown = False
        while True:
            self.steps += 1
            if self.steps > MAX_STEPS or len(cons) > MAX_CONSTRAINTS:
                return Verdict.UNKNOWN

            simplified = self._simplify(variables, cons)
            if simplified is None:
                return Verdict.EMPTY
            cons, ground_unknown = simplified
            residual_unknown = residual_unknown or ground_unknown

            variables = [
                v
                for v in variables
                if any(v in c.expr.free_vars() for c in cons)
            ]
            if not variables:
                if residual_unknown or not self.exact:
                    return Verdict.UNKNOWN
                return Verdict.NONEMPTY

            if self._substitute_equality(variables, cons):
                continue

            fm = self._fourier_motzkin(variables, cons, depth)
            if fm is None:
                return Verdict.UNKNOWN
            verdict, cons = fm
            if verdict is Verdict.NONEMPTY and (
                residual_unknown or not self.exact
            ):
                # The dark-shadow witness lives in an over-approximation
                # (an earlier elimination was inexact), so it proves
                # nothing about the original set.  EMPTY claims are
                # unaffected: emptiness of an over-approximation is
                # emptiness of the set.
                return Verdict.UNKNOWN
            if verdict is not None:
                return verdict

    # ------------------------------------------------------------------
    def _simplify(
        self, variables: Sequence[str], cons: List[Constraint]
    ) -> Optional[Tuple[List[Constraint], bool]]:
        """Normalize, tighten, and discharge ground constraints.

        Returns ``None`` on a provable contradiction (set is empty);
        otherwise the surviving constraints and whether an undecidable
        ground fact was dropped (which forfeits a NONEMPTY claim).
        """
        vset = set(variables)
        out: List[Constraint] = []
        seen = set()
        ground_unknown = False
        for c in cons:
            e = self.prover.ctx.normalize(c.expr)
            fv = e.free_vars() & vset
            if not fv:
                if c.is_eq:
                    if e.is_zero():
                        continue
                    if self.prover.pos(e) or self.prover.neg(e):
                        return None
                    ground_unknown = True
                    continue
                if self.prover.nonneg(e):
                    continue
                if self.prover.neg(e):
                    return None
                ground_unknown = True
                continue

            tightened = self._tighten(e, fv, c.is_eq)
            if tightened is None:
                return None
            key = (tightened, c.is_eq)
            if key not in seen:
                seen.add(key)
                out.append(Constraint(tightened, c.is_eq))
                if not c.is_eq:
                    derived = self._symbolic_tighten(tightened, vset)
                    if derived is not None:
                        dkey = (derived, False)
                        if dkey not in seen:
                            seen.add(dkey)
                            out.append(Constraint.ge(derived))
        return out, ground_unknown

    def _symbolic_tighten(self, e: SymExpr, vset) -> Optional[SymExpr]:
        """Integer tightening across a *symbolic* common coefficient.

        If the variable part of ``e >= 0`` factors as ``a*T`` with ``a``
        a provably-positive parameter expression and ``T`` an integer
        combination of set variables, then ``a*T >= alpha`` implies
        ``T >= ceil(alpha/a)`` -- resolved by asking the prover to
        compare ``alpha`` against small multiples of ``a``.  This is
        what turns ``n*(r - i) >= n + 1`` into the unit-coefficient
        fact ``r - i >= 2`` that Fourier-Motzkin can finish off.
        """
        var_part = SymExpr.const(0)
        for v in vset & set(e.free_vars()):
            coeff = e.coefficients_in(v).get(1)
            if coeff is not None:
                var_part = var_part + SymExpr.var(v) * coeff
        alpha = -(e - var_part)  # a*T >= alpha
        for v in sorted(vset & set(e.free_vars())):
            a = e.coefficients_in(v).get(1)
            if a is None or a.as_int() is not None:
                continue
            sign = self.prover.sign(a)
            if sign is Sign.NEGATIVE:
                a = -a
            elif sign is not Sign.POSITIVE:
                continue
            t = var_part.div_exact(a)
            if t is None or not (t.free_vars() <= vset):
                continue
            if any(coeff.as_int() is None for coeff in _lin_coeffs(t, vset)):
                continue
            for k in (3, 2, 1, 0, -1):
                # alpha > (k-1)*a  ==>  T >= k  (T integral, a > 0)
                if self.prover.pos(alpha - (k - 1) * a):
                    return t - k
            return None
        return None

    def _tighten(
        self, e: SymExpr, fv, is_eq: bool
    ) -> Optional[SymExpr]:
        """GCD-normalize variable coefficients; None means contradiction."""
        coeffs: List[int] = []
        for v in fv:
            coeff = e.coefficients_in(v).get(1)
            ci = coeff.as_int() if coeff is not None else None
            if ci is None:
                return e  # symbolic stride: leave untouched
            coeffs.append(ci)
        g = 0
        for ci in coeffs:
            g = gcd(g, abs(ci))
        if g <= 1:
            return e
        var_part = SymExpr.const(0)
        for v in fv:
            ci = e.coefficients_in(v).get(1).as_int()
            var_part = var_part + SymExpr.var(v) * ci
        rest = e - var_part
        rest_div = rest.div_exact(g)
        if rest_div is not None:
            return var_part.div_exact(g) + rest_div
        rest_int = rest.as_int()
        if rest_int is None:
            return e
        if is_eq:
            return None if rest_int % g != 0 else e
        # c + g*(...) >= 0  ==>  floor(c/g) + (...) >= 0 over Z.
        return var_part.div_exact(g) + (rest_int // g)

    # ------------------------------------------------------------------
    def _substitute_equality(
        self, variables: List[str], cons: List[Constraint]
    ) -> bool:
        """Solve one equality for a variable and substitute (exact)."""
        for idx, c in enumerate(cons):
            if not c.is_eq:
                continue
            for v in variables:
                coeff = c.expr.coefficients_in(v).get(1)
                if coeff is None:
                    continue
                ci = coeff.as_int()
                if ci is None:
                    continue
                rest = c.expr - SymExpr.var(v) * ci
                if abs(ci) == 1:
                    solution = rest * (-ci)  # v == -rest/ci
                elif (div := rest.div_exact(ci)) is not None:
                    solution = -div
                else:
                    continue
                del cons[idx]
                for j, other in enumerate(cons):
                    cons[j] = other.substitute({v: solution})
                variables.remove(v)
                return True
        return False

    # ------------------------------------------------------------------
    def _fourier_motzkin(
        self, variables: List[str], cons: List[Constraint], depth: int
    ) -> Optional[Tuple[Optional[Verdict], List[Constraint]]]:
        """Eliminate one variable.  None means every variable is blocked."""
        best = None
        for v in variables:
            split = self._classify(v, cons)
            if split is None:
                continue
            lowers, uppers, others = split
            # Exact eliminations first: a pair is integer-exact when either
            # coefficient is literally 1, so count the pairs that are not.
            inexact = sum(
                1
                for a, _ in lowers
                for c, _ in uppers
                if a.as_int() != 1 and c.as_int() != 1
            )
            cost = (inexact, len(lowers) * len(uppers))
            if best is None or cost < best[0]:
                best = (cost, v, lowers, uppers, others)
        if best is None:
            return None
        _, v, lowers, uppers, others = best
        variables.remove(v)

        if not lowers or not uppers:
            # Unbounded on one side: always satisfiable in v (exact).
            return None if others is None else (None, others)

        real: List[Constraint] = list(others)
        dark: List[Constraint] = list(others)
        inexact_pairs = []
        for a, alpha in lowers:  # a*v >= alpha, a > 0
            for cc, beta in uppers:  # c*v <= beta, c > 0
                shadow = self._scaled_sum(cc, alpha, a, beta)
                real.append(Constraint.ge(shadow))
                ai, ci = a.as_int(), cc.as_int()
                if ai == 1 or ci == 1:
                    dark.append(Constraint.ge(shadow))
                else:
                    dark.append(Constraint.ge(shadow - (a - 1) * (cc - 1)))
                    inexact_pairs.append((a, cc))

        if not inexact_pairs:
            return None, real

        # Inexact elimination: try to keep an exact verdict the omega way.
        sub = _Eliminator(self.prover)
        if sub.run(list(variables), list(real), depth + 1) is Verdict.EMPTY:
            return Verdict.EMPTY, real
        dark_sub = _Eliminator(self.prover)
        dark_verdict = dark_sub.run(list(variables), dark, depth + 1)
        if dark_verdict is Verdict.NONEMPTY:
            return Verdict.NONEMPTY, real
        if dark_verdict is Verdict.EMPTY:
            splintered = self._splinter(
                v, variables, cons, lowers, uppers, depth
            )
            if splintered is not None:
                return splintered, real
        self.exact = False
        return None, real

    def _scaled_sum(self, cc, alpha, a, beta) -> SymExpr:
        """Real shadow of ``a*v >= alpha`` and ``c*v <= beta``."""
        return a * beta - cc * alpha

    def _classify(self, v: str, cons: List[Constraint]):
        """Split constraints by the sign of their coefficient on ``v``.

        Returns ``(lowers, uppers, others)`` with each bound as a
        ``(positive_coeff, bound_expr)`` pair, or ``None`` when some
        coefficient sign cannot be decided (variable is blocked).
        Equalities touching ``v`` are expanded into two inequalities.
        """
        lowers: List[Tuple[SymExpr, SymExpr]] = []
        uppers: List[Tuple[SymExpr, SymExpr]] = []
        others: List[Constraint] = []
        for c in cons:
            coeff = c.expr.coefficients_in(v).get(1)
            if coeff is None:
                others.append(c)
                continue
            exprs = [c.expr, -c.expr] if c.is_eq else [c.expr]
            for e in exprs:
                co = e.coefficients_in(v).get(1)
                rest = e - SymExpr.var(v) * co
                ci = co.as_int()
                if ci is not None:
                    sign = Sign.POSITIVE if ci > 0 else Sign.NEGATIVE
                else:
                    sign = self.prover.sign(co)
                if sign is Sign.POSITIVE:
                    # co*v + rest >= 0  ==>  co*v >= -rest
                    lowers.append((co, -rest))
                elif sign is Sign.NEGATIVE:
                    # co*v + rest >= 0  ==>  (-co)*v <= rest
                    uppers.append((-co, rest))
                else:
                    return None
        return lowers, uppers, others

    # ------------------------------------------------------------------
    def _splinter(
        self,
        v: str,
        variables: List[str],
        cons: List[Constraint],
        lowers,
        uppers,
        depth: int,
    ) -> Optional[Verdict]:
        """Omega splintering: exact check of the inexact shadow gap.

        Only runs with all-integer coefficients.  Any integer solution
        outside the dark shadow satisfies ``a*v == alpha + i`` for some
        lower bound ``(a, alpha)`` and ``0 <= i <= (a*c - a - c)/c``
        with ``c`` the largest upper coefficient.
        """
        coeff_ints = [a.as_int() for a, _ in lowers] + [
            c.as_int() for c, _ in uppers
        ]
        if any(ci is None for ci in coeff_ints):
            return None
        c_max = max(c.as_int() for c, _ in uppers)
        total = 0
        plan: List[Tuple[SymExpr, SymExpr, int]] = []
        for a, alpha in lowers:
            ai = a.as_int()
            hi = (ai * c_max - ai - c_max) // c_max
            total += hi + 1
            if total > MAX_SPLINTERS:
                return None
            plan.append((a, alpha, hi))
        for a, alpha, hi in plan:
            for i in range(hi + 1):
                branch = list(cons) + [
                    Constraint.eq(a * SymExpr.var(v) - alpha - i)
                ]
                sub = _Eliminator(self.prover)
                verdict = sub.run([v] + list(variables), branch, depth + 1)
                if verdict is Verdict.NONEMPTY:
                    return Verdict.NONEMPTY
                if verdict is Verdict.UNKNOWN:
                    return None
        return Verdict.EMPTY
