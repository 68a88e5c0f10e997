"""Assumption contexts: what the compiler knows about program variables.

A :class:`Context` records two kinds of facts gathered while walking the IR:

* **equalities** -- ``n == q*b + 1`` style definitions, used as rewrite
  rules (applied to a fixpoint).  These arise from ``let`` bindings of
  scalar integer expressions and from dataset invariants (the NW benchmark's
  ``n = q*b + 1``).
* **bounds** -- one-sided inequalities ``lo <= v`` / ``v <= hi`` where the
  bound may itself be symbolic.  These arise from loop ranges
  (``0 <= i <= m-1``), array-shape positivity, and explicit benchmark
  assumptions (``q >= 2``).

Contexts are persistent-ish: :meth:`Context.extended` returns a cheap child
context, so the analysis can push/pop scopes without copying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.symbolic.expr import ExprLike, SymExpr, sym


@dataclass(frozen=True)
class Bound:
    """One-sided symbolic bounds for a variable (either side optional)."""

    lower: Optional[SymExpr] = None
    upper: Optional[SymExpr] = None

    def merged(self, other: "Bound") -> "Bound":
        """Combine two bounds for the same variable.

        With symbolic bounds we cannot always pick the tighter one, so we
        keep the incoming bound when both exist and they differ only if they
        are syntactically identical; otherwise prefer constants (decidable)
        over symbolic expressions.
        """

        def pick(a: Optional[SymExpr], b: Optional[SymExpr], want_max: bool):
            if a is None:
                return b
            if b is None:
                return a
            ai, bi = a.as_int(), b.as_int()
            if ai is not None and bi is not None:
                return sym(max(ai, bi) if want_max else min(ai, bi))
            # Prefer the constant bound: it is directly usable by interval
            # evaluation.  A symbolic bound is kept only when no constant
            # alternative exists.
            if ai is not None:
                return a
            if bi is not None:
                return b
            return b

        return Bound(
            lower=pick(self.lower, other.lower, want_max=True),
            upper=pick(self.upper, other.upper, want_max=False),
        )


class Context:
    """A scoped set of assumptions about integer program variables."""

    __slots__ = (
        "_eqs", "_bounds", "_parent", "_eq_version", "_bound_version",
        "_eq_cache", "_fingerprint_cache",
    )

    #: Entries a context's ``normalize`` memo may hold before it restarts.
    NORMALIZE_MEMO_CAP = 8192

    def __init__(self, parent: Optional["Context"] = None):
        self._eqs: Dict[str, SymExpr] = {}
        self._bounds: Dict[str, Bound] = {}
        self._parent = parent
        # Facts are only ever added (``define`` / ``assume_*``), here or in
        # an ancestor, so the *sum* of these counters over the parent
        # chain is a stamp that moves whenever any of them does.  The
        # derived tables below are valid for exactly one stamp.
        self._eq_version = 0
        self._bound_version = 0
        #: (eq stamp, flattened equalities, normalize memo)
        self._eq_cache: Optional[Tuple[int, Dict[str, SymExpr], dict]] = None
        #: ((eq stamp, bound stamp), fingerprint)
        self._fingerprint_cache: Optional[Tuple[Tuple[int, int], tuple]] = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def define(self, var: str, value: ExprLike) -> "Context":
        """Record an equality ``var == value`` (a rewrite rule).

        Self-referential definitions are rejected: they would make the
        substitution fixpoint diverge.
        """
        value = sym(value)
        if var in value.free_vars():
            raise ValueError(f"self-referential definition of {var}: {value}")
        self._eqs[var] = value
        self._eq_version += 1
        return self

    def assume_lower(self, var: str, lo: ExprLike) -> "Context":
        """Record ``var >= lo``."""
        self._merge_bound(var, Bound(lower=sym(lo)))
        return self

    def assume_upper(self, var: str, hi: ExprLike) -> "Context":
        """Record ``var <= hi``."""
        self._merge_bound(var, Bound(upper=sym(hi)))
        return self

    def assume_range(self, var: str, lo: ExprLike, hi: ExprLike) -> "Context":
        """Record ``lo <= var <= hi`` (both inclusive)."""
        self._merge_bound(var, Bound(lower=sym(lo), upper=sym(hi)))
        return self

    def _merge_bound(self, var: str, bound: Bound) -> None:
        existing = self._bounds.get(var) or self._lookup_bound_parent(var)
        self._bounds[var] = existing.merged(bound) if existing else bound
        self._bound_version += 1

    def extended(self) -> "Context":
        """A child context; additions to it do not affect ``self``."""
        return Context(parent=self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _lookup_bound_parent(self, var: str) -> Optional[Bound]:
        ctx = self._parent
        while ctx is not None:
            if var in ctx._bounds:
                return ctx._bounds[var]
            ctx = ctx._parent
        return None

    def bound(self, var: str) -> Bound:
        ctx: Optional[Context] = self
        while ctx is not None:
            if var in ctx._bounds:
                return ctx._bounds[var]
            ctx = ctx._parent
        return Bound()

    def _stamps(self) -> Tuple[int, int]:
        """(equality stamp, bound stamp) of this context's parent chain."""
        eqs = bounds = 0
        ctx: Optional[Context] = self
        while ctx is not None:
            eqs += ctx._eq_version
            bounds += ctx._bound_version
            ctx = ctx._parent
        return eqs, bounds

    def _equalities(self) -> Tuple[Dict[str, SymExpr], dict]:
        """The flattened equalities (innermost definition wins) and the
        ``normalize`` memo that goes with them, rebuilt when the chain's
        equality stamp has moved."""
        stamp = self._stamps()[0]
        cache = self._eq_cache
        if cache is None or cache[0] != stamp:
            chain: List[Context] = []
            ctx: Optional[Context] = self
            while ctx is not None:
                chain.append(ctx)
                ctx = ctx._parent
            eqs: Dict[str, SymExpr] = {}
            for c in reversed(chain):
                eqs.update(c._eqs)
            cache = self._eq_cache = (stamp, eqs, {})
        return cache[1], cache[2]

    def all_equalities(self) -> Dict[str, SymExpr]:
        return dict(self._equalities()[0])

    def fingerprint(self) -> tuple:
        """A hashable snapshot of the *effective* facts: the flattened
        equalities and, per variable, the innermost bound.

        Everything a prover can learn from a context goes through
        :meth:`normalize`, :meth:`bound` and :meth:`numeric_range`, and
        those see exactly these facts, so two contexts with equal
        fingerprints answer every question alike -- whatever the order
        the facts arrived in or the shape of the parent chain that holds
        them.  Contexts gain facts after they are handed out, so callers
        take a fingerprint when they need one and never keep it.
        """
        stamps = self._stamps()
        cache = self._fingerprint_cache
        if cache is None or cache[0] != stamps:
            bounds: Dict[str, Bound] = {}
            ctx: Optional[Context] = self
            while ctx is not None:
                for var, b in ctx._bounds.items():
                    bounds.setdefault(var, b)
                ctx = ctx._parent
            fp = (
                frozenset(self._equalities()[0].items()),
                frozenset(bounds.items()),
            )
            cache = self._fingerprint_cache = (stamps, fp)
        return cache[1]

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------
    def normalize(self, expr: ExprLike) -> SymExpr:
        """Apply equality rewrites to a fixpoint.

        Each round substitutes every defined variable simultaneously; the
        round count is bounded (32) to guard against (rejected-by-
        construction but belt-and-braces) cyclic definitions.
        """
        e = sym(expr)
        eqs, memo = self._equalities()
        if not eqs:
            return e
        out = memo.get(e)
        if out is None:
            out = e
            for _ in range(32):
                fv = out.free_vars()
                applicable = {v: rhs for v, rhs in eqs.items() if v in fv}
                if not applicable:
                    break
                e2 = out.substitute(applicable)
                if e2 == out:
                    break
                out = e2
            if len(memo) >= self.NORMALIZE_MEMO_CAP:
                memo.clear()
            memo[e] = out
        return out

    def numeric_range(
        self, expr: ExprLike, depth: int = 6
    ) -> Tuple[Optional[int], Optional[int]]:
        """Numeric interval for ``expr`` under this context.

        Returns ``(lo, hi)`` where either side may be ``None`` (unbounded).
        Symbolic bounds are resolved recursively up to ``depth``.  Sound:
        the true value always lies within the returned interval.
        """
        e = self.normalize(expr)
        return self._range_of(e, depth)

    def _var_range(self, var: str, depth: int) -> Tuple[Optional[int], Optional[int]]:
        if depth <= 0:
            return (None, None)
        b = self.bound(var)
        lo = hi = None
        if b.lower is not None:
            lo_lo, _ = self._range_of(self.normalize(b.lower), depth - 1)
            lo = lo_lo
        if b.upper is not None:
            _, hi_hi = self._range_of(self.normalize(b.upper), depth - 1)
            hi = hi_hi
        return (lo, hi)

    def _range_of(self, e: SymExpr, depth: int) -> Tuple[Optional[int], Optional[int]]:
        const = e.as_int()
        if const is not None:
            return (const, const)
        total_lo: Optional[int] = 0
        total_hi: Optional[int] = 0
        for mono, coeff in e.terms.items():
            m_lo, m_hi = self._mono_range(mono, depth)
            if coeff >= 0:
                t_lo = None if m_lo is None else coeff * m_lo
                t_hi = None if m_hi is None else coeff * m_hi
            else:
                t_lo = None if m_hi is None else coeff * m_hi
                t_hi = None if m_lo is None else coeff * m_lo
            total_lo = None if (total_lo is None or t_lo is None) else total_lo + t_lo
            total_hi = None if (total_hi is None or t_hi is None) else total_hi + t_hi
        return (total_lo, total_hi)

    def _mono_range(self, mono, depth: int) -> Tuple[Optional[int], Optional[int]]:
        if not mono:
            return (1, 1)
        lo: Optional[int] = 1
        hi: Optional[int] = 1
        for var, power in mono:
            v_lo, v_hi = self._var_range(var, depth)
            p_lo, p_hi = _pow_range(v_lo, v_hi, power)
            lo, hi = _mul_range(lo, hi, p_lo, p_hi)
        return (lo, hi)

    def __repr__(self) -> str:
        eqs = ", ".join(f"{v}={e}" for v, e in self.all_equalities().items())
        bounds = []
        ctx: Optional[Context] = self
        seen = set()
        while ctx is not None:
            for v, b in ctx._bounds.items():
                if v in seen:
                    continue
                seen.add(v)
                lo = b.lower if b.lower is not None else "-inf"
                hi = b.upper if b.upper is not None else "+inf"
                bounds.append(f"{lo}<={v}<={hi}")
            ctx = ctx._parent
        return f"Context(eqs=[{eqs}], bounds=[{', '.join(bounds)}])"


def _pow_range(
    lo: Optional[int], hi: Optional[int], power: int
) -> Tuple[Optional[int], Optional[int]]:
    """Interval of ``x**power`` given an interval of ``x``."""
    if power == 1:
        return (lo, hi)
    candidates: List[Optional[int]] = []
    if lo is not None and hi is not None:
        candidates = [lo**power, hi**power]
        if lo < 0 < hi and power % 2 == 0:
            candidates.append(0)
        return (min(candidates), max(candidates))
    if power % 2 == 0:
        # Even power is non-negative; upper bound only from both ends.
        new_lo = 0
        if lo is not None and lo >= 0:
            new_lo = lo**power
        if hi is not None and hi <= 0:
            new_lo = hi**power
        return (new_lo, None)
    # Odd power is monotone.
    return (
        None if lo is None else lo**power,
        None if hi is None else hi**power,
    )


def _mul_range(
    a_lo: Optional[int],
    a_hi: Optional[int],
    b_lo: Optional[int],
    b_hi: Optional[int],
) -> Tuple[Optional[int], Optional[int]]:
    """Sound interval multiplication with open ends (None = unbounded)."""
    # Fast common case: everything finite.
    if None not in (a_lo, a_hi, b_lo, b_hi):
        vals = [a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi]
        return (min(vals), max(vals))

    # Special sound cases with one-sided info; otherwise give up on that side.
    # Both factors known non-negative:
    if (a_lo is not None and a_lo >= 0) and (b_lo is not None and b_lo >= 0):
        lo = a_lo * b_lo
        hi = None if (a_hi is None or b_hi is None) else a_hi * b_hi
        return (lo, hi)
    # Both factors known non-positive:
    if (a_hi is not None and a_hi <= 0) and (b_hi is not None and b_hi <= 0):
        lo = a_hi * b_hi
        hi = None if (a_lo is None or b_lo is None) else a_lo * b_lo
        return (lo, hi)
    # Mixed signs with open ends: unbounded both ways.
    return (None, None)
