"""A sound, incomplete prover for integer polynomial sign questions.

This module discharges the inequalities generated by the LMAD non-overlap
theorem (paper section V-C) -- the role the external SMT solver played in the
authors' implementation.  The strategies, tried in order:

1. **Normalization**: rewrite with the context's equalities to a fixpoint
   (e.g. eliminate ``n`` via ``n == q*b + 1``), so facts about derived
   quantities become polynomial facts about base variables.
2. **Interval evaluation**: compute a numeric interval for the polynomial
   using the context's variable ranges; conclude if the interval is entirely
   on one side of zero.
3. **Bound substitution**: pick a variable ``v`` with a (possibly symbolic)
   lower bound ``L``; if the polynomial is non-decreasing in ``v`` (every
   coefficient of a positive power of ``v`` is provably non-negative), then
   ``e >= e[v := L]`` and we recurse on the substituted polynomial.  The dual
   (upper bound + non-increasing) is also tried.  This is the strategy that
   proves NW's ``q*b - b + 1 >= 1`` style facts that pure intervals miss.

Every strategy is sound; recursion is memoized and depth-bounded.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Optional, Tuple

from repro.symbolic.assumptions import Context
from repro.symbolic.expr import ExprLike, SymExpr, sym


class Sign(enum.Enum):
    """Provable sign information for an expression."""

    NEGATIVE = "negative"  # e <  0
    ZERO = "zero"  # e == 0
    POSITIVE = "positive"  # e >  0
    NONNEG = "nonneg"  # e >= 0 (but not provably > 0)
    NONPOS = "nonpos"  # e <= 0 (but not provably < 0)
    UNKNOWN = "unknown"


class Prover:
    """Prover instance with a memo table; cheap to construct per query batch."""

    def __init__(self, ctx: Optional[Context] = None, max_depth: int = 8):
        self.ctx = ctx if ctx is not None else Context()
        self.max_depth = max_depth
        # Both memos are keyed on the *normalized* expression and outlive
        # facts the context gains later: a remembered True stays true and
        # a remembered False stays conservative.
        self._nonneg_memo: Dict[SymExpr, bool] = {}
        self._pos_memo: Dict[SymExpr, bool] = {}

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def nonneg(self, expr: ExprLike) -> bool:
        """Is ``expr >= 0`` provable?"""
        e = self.ctx.normalize(expr)
        return self._prove_nonneg(e, self.max_depth, frozenset())

    def pos(self, expr: ExprLike) -> bool:
        """Is ``expr > 0`` provable?

        For integer polynomials ``e > 0`` iff ``e - 1 >= 0``, but the
        factored form ``e = mono * e'`` (with ``mono > 0`` and ``e' > 0``)
        is often provable when ``e - 1`` defeats the nonneg strategies, so
        both routes are tried.
        """
        e = self.ctx.normalize(expr)
        result = self._pos_memo.get(e)
        if result is None:
            result = self._prove_nonneg(
                e - 1, self.max_depth, frozenset()
            ) or self._prove_pos_factored(e, self.max_depth)
            self._pos_memo[e] = result
        return result

    def nonpos(self, expr: ExprLike) -> bool:
        return self.nonneg(-sym(expr))

    def neg(self, expr: ExprLike) -> bool:
        return self.pos(-sym(expr))

    def eq_zero(self, expr: ExprLike) -> bool:
        """Is ``expr == 0`` provable?  (Normalization + syntactic zero.)"""
        return self.ctx.normalize(expr).is_zero()

    def eq(self, a: ExprLike, b: ExprLike) -> bool:
        return self.eq_zero(sym(a) - sym(b))

    def le(self, a: ExprLike, b: ExprLike) -> bool:
        """Is ``a <= b`` provable?"""
        return self.nonneg(sym(b) - sym(a))

    def lt(self, a: ExprLike, b: ExprLike) -> bool:
        """Is ``a < b`` provable?"""
        return self.pos(sym(b) - sym(a))

    def sign(self, expr: ExprLike) -> Sign:
        """Best provable sign classification for ``expr``."""
        e = self.ctx.normalize(expr)
        if e.is_zero():
            return Sign.ZERO
        if self.pos(e):
            return Sign.POSITIVE
        if self.neg(e):
            return Sign.NEGATIVE
        if self.nonneg(e):
            return Sign.NONNEG
        if self.nonpos(e):
            return Sign.NONPOS
        return Sign.UNKNOWN

    # ------------------------------------------------------------------
    # Core engine
    # ------------------------------------------------------------------
    def _prove_nonneg(
        self, e: SymExpr, depth: int, banned: FrozenSet[Tuple[str, str]]
    ) -> bool:
        """Prove ``e >= 0``; ``banned`` avoids re-substituting a bound."""
        const = e.as_int()
        if const is not None:
            return const >= 0

        cached = self._nonneg_memo.get(e)
        if cached is not None:
            return cached
        # Optimistic False during in-flight computation to break any cycle.
        self._nonneg_memo[e] = False

        result = (
            self._try_interval(e, depth)
            or (depth > 0 and self._try_factor_nonneg(e, depth))
            or (depth > 0 and self._try_bound_substitution(e, depth, banned))
            or (depth > 0 and self._try_shift(e, depth, banned))
        )
        self._nonneg_memo[e] = result
        return result

    def _try_shift(
        self, e: SymExpr, depth: int, banned: FrozenSet[Tuple[str, str]]
    ) -> bool:
        """Shift a variable to its constant lower bound: ``v := lo + v'``.

        With ``v' >= 0`` the shifted polynomial often has all-non-negative
        coefficients even when the original mixes signs (e.g.
        ``n^2 - n - 3`` with ``n >= 4`` becomes ``k^2 + 7k + 9 - ...``),
        which the interval strategy then settles directly.
        """
        for var in sorted(e.free_vars()):
            if ("shift", var) in banned:
                continue
            b = self.ctx.bound(var)
            if b.lower is None:
                continue
            lo = self.ctx.normalize(b.lower).as_int()
            if lo is None or lo == 0:
                continue
            fresh = f"_shift_{var}"
            if fresh in e.free_vars():
                continue
            shifted = e.substitute({var: SymExpr.var(fresh) + lo})
            ctx2 = self.ctx.extended()
            ctx2.assume_lower(fresh, 0)
            if b.upper is not None:
                hi = self.ctx.normalize(b.upper)
                ctx2.assume_upper(fresh, hi - lo)
            sub = Prover(ctx2, max_depth=depth - 1)
            if sub._prove_nonneg(
                shifted, depth - 1, banned | {("shift", var)}
            ):
                return True
        return False

    def _common_monomial(self, e: SymExpr) -> Optional[SymExpr]:
        """Largest monomial (with positive content) dividing every term."""
        shared: Optional[Dict[str, int]] = None
        for mono, _ in e.terms.items():
            powers = dict(mono)
            if shared is None:
                shared = powers
            else:
                shared = {
                    v: min(p, powers[v])
                    for v, p in shared.items()
                    if v in powers and min(p, powers[v]) > 0
                }
            if not shared:
                return None
        if not shared:
            return None
        content = e.content()
        factor = SymExpr.const(max(content, 1))
        for v, p in shared.items():
            factor = factor * SymExpr.var(v) ** p
        if factor == SymExpr.const(1):
            return None
        return factor

    def _try_factor_nonneg(self, e: SymExpr, depth: int) -> bool:
        """``e = factor * rest`` with ``factor >= 0`` and ``rest >= 0``."""
        factor = self._common_monomial(e)
        if factor is None:
            return False
        rest = e.div_exact(factor)
        if rest is None or rest == e:
            return False
        return self._prove_nonneg(
            factor, depth - 1, frozenset()
        ) and self._prove_nonneg(rest, depth - 1, frozenset())

    def _prove_pos_factored(self, e: SymExpr, depth: int) -> bool:
        """``e = factor * rest`` with both factors strictly positive."""
        if depth <= 0:
            return False
        factor = self._common_monomial(e)
        if factor is None:
            return False
        rest = e.div_exact(factor)
        if rest is None or rest == e:
            return False

        def strictly_pos(x: SymExpr) -> bool:
            if self._prove_nonneg(x - 1, depth - 1, frozenset()):
                return True
            return self._prove_pos_factored(x, depth - 1)

        return strictly_pos(factor) and strictly_pos(rest)

    def _try_interval(self, e: SymExpr, depth: int) -> bool:
        lo, _hi = self.ctx.numeric_range(e, depth=max(2, depth))
        return lo is not None and lo >= 0

    def _try_bound_substitution(
        self, e: SymExpr, depth: int, banned: FrozenSet[Tuple[str, str]]
    ) -> bool:
        for var in sorted(e.free_vars()):
            b = self.ctx.bound(var)
            coeffs = e.coefficients_in(var)
            positive_powers = [p for p in coeffs if p > 0]
            if not positive_powers:
                continue

            # Monotone non-decreasing in var: every coefficient of a positive
            # power is >= 0 (requires var >= 0 for powers > 1 to be monotone;
            # we demand a non-negative lower bound in that case).
            if b.lower is not None and ("lo", var) not in banned:
                lower = self.ctx.normalize(b.lower)
                needs_nonneg_var = any(p > 1 for p in positive_powers)
                var_ok = not needs_nonneg_var or self._prove_nonneg(
                    lower, depth - 1, banned | {("lo", var)}
                )
                if var_ok and all(
                    self._prove_nonneg(coeffs[p], depth - 1, banned | {("lo", var)})
                    for p in positive_powers
                ):
                    substituted = e.substitute({var: lower})
                    if self._prove_nonneg(
                        substituted, depth - 1, banned | {("lo", var)}
                    ):
                        return True

            # Monotone non-increasing in var: every coefficient of a positive
            # power is <= 0; substitute the upper bound.
            if b.upper is not None and ("hi", var) not in banned:
                upper = self.ctx.normalize(b.upper)
                needs_nonneg_var = any(p > 1 for p in positive_powers)
                lo_v, _ = self.ctx.numeric_range(SymExpr.var(var), depth=2)
                var_ok = not needs_nonneg_var or (lo_v is not None and lo_v >= 0)
                if var_ok and all(
                    self._prove_nonneg(-coeffs[p], depth - 1, banned | {("hi", var)})
                    for p in positive_powers
                ):
                    substituted = e.substitute({var: upper})
                    if self._prove_nonneg(
                        substituted, depth - 1, banned | {("hi", var)}
                    ):
                        return True
        return False
