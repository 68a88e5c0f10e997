"""Multivariate integer polynomials in canonical normal form.

``SymExpr`` is the single expression type used throughout the compiler for
LMAD offsets, strides and cardinalities.  An expression is stored as a
mapping from *monomials* to non-zero integer coefficients, where a monomial
is a sorted tuple of ``(variable_name, power)`` pairs.  The empty monomial
``()`` is the constant term.  This expanded normal form makes equality
syntactic (two equal polynomials have identical representations), which the
anti-unification and non-overlap machinery rely on.

Only the ring operations are total.  Exact division (:meth:`SymExpr.div_exact`)
is partial and returns ``None`` when the quotient is not a polynomial --
callers in the index-function inversion code treat that as "transformation
not invertible", again trading completeness for soundness.

Design notes
------------
* Instances are immutable and hashable; they are used as dict keys in the
  short-circuiting pass's symbol tables.
* Construction goes through :func:`sym` / :func:`Var`; arithmetic never
  mutates.
* We deliberately do not simplify with *semantic* information here (e.g.
  assumptions like ``n == q*b+1``); that lives in
  :mod:`repro.symbolic.assumptions` so the same expression can be interpreted
  under different contexts.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple, Union

#: A monomial: sorted tuple of (variable, power) pairs, powers >= 1.
Monomial = Tuple[Tuple[str, int], ...]

#: Anything accepted where an expression is expected.
ExprLike = Union["SymExpr", int]

_CONST_MONO: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials by merging their power maps."""
    if not a:
        return b
    if not b:
        return a
    powers: Dict[str, int] = dict(a)
    for var, p in b:
        powers[var] = powers.get(var, 0) + p
    return tuple(sorted(powers.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(p for _, p in m)


def _mono_divides(num: Monomial, den: Monomial) -> Optional[Monomial]:
    """Return ``num / den`` if ``den`` divides ``num``, else ``None``."""
    powers: Dict[str, int] = dict(num)
    for var, p in den:
        have = powers.get(var, 0)
        if have < p:
            return None
        if have == p:
            del powers[var]
        else:
            powers[var] = have - p
    return tuple(sorted(powers.items()))


class SymExpr:
    """An integer polynomial over named variables.

    Supports ``+ - * **`` with other expressions and with Python ints, plus
    unary negation.  ``==`` is *syntactic* polynomial equality (use the
    prover for semantic equality under assumptions).
    """

    __slots__ = ("_terms", "_hash", "_fv")

    def __init__(self, terms: Mapping[Monomial, int]):
        # Drop zero coefficients to keep the normal form canonical.
        self._terms: Dict[Monomial, int] = {
            m: c for m, c in terms.items() if c != 0
        }
        self._hash: Optional[int] = None
        self._fv: Optional[frozenset] = None

    def __reduce__(self):
        # Terms only: ``_hash`` is built from per-process string hashes and
        # ``_fv`` is a memo; neither belongs in a pickle or a deep copy.
        return (SymExpr, (self._terms,))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def const(value: int) -> "SymExpr":
        return SymExpr({_CONST_MONO: int(value)} if value else {})

    @staticmethod
    def var(name: str) -> "SymExpr":
        if not isinstance(name, str) or not name:
            raise TypeError(f"variable name must be a non-empty str: {name!r}")
        return SymExpr({((name, 1),): 1})

    @staticmethod
    def coerce(value: ExprLike) -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
        if isinstance(value, (int,)) and not isinstance(value, bool):
            return SymExpr.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to SymExpr")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Mapping[Monomial, int]:
        """The monomial -> coefficient mapping (read-only view)."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == _CONST_MONO for m in self._terms)

    def as_int(self) -> Optional[int]:
        """The integer value if constant, else ``None``."""
        if not self._terms:
            return 0
        if self.is_constant():
            return self._terms[_CONST_MONO]
        return None

    def constant_term(self) -> int:
        return self._terms.get(_CONST_MONO, 0)

    def free_vars(self) -> frozenset:
        # Cached: free-variable sets are queried on every symbolic
        # instantiation and prover normalization, and expressions are
        # immutable.
        fv = self._fv
        if fv is None:
            out = set()
            for m in self._terms:
                for var, _ in m:
                    out.add(var)
            fv = frozenset(out)
            self._fv = fv
        return fv

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def degree_in(self, var: str) -> int:
        """Highest power of ``var`` appearing in any monomial."""
        best = 0
        for m in self._terms:
            for v, p in m:
                if v == var and p > best:
                    best = p
        return best

    def coefficients_in(self, var: str) -> Dict[int, "SymExpr"]:
        """View the polynomial as a polynomial in ``var``.

        Returns a mapping from power of ``var`` to the coefficient expression
        (a polynomial not containing ``var``).  Used by the bound-substitution
        strategy of the prover and by exact division.
        """
        out: Dict[int, Dict[Monomial, int]] = {}
        for m, c in self._terms.items():
            power = 0
            rest = []
            for v, p in m:
                if v == var:
                    power = p
                else:
                    rest.append((v, p))
            bucket = out.setdefault(power, {})
            key = tuple(rest)
            bucket[key] = bucket.get(key, 0) + c
        return {p: SymExpr(t) for p, t in out.items()}

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------
    def __add__(self, other: ExprLike) -> "SymExpr":
        other = SymExpr.coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return SymExpr(terms)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: ExprLike) -> "SymExpr":
        return self + (-SymExpr.coerce(other))

    def __mul__(self, other: ExprLike) -> "SymExpr":
        other = SymExpr.coerce(other)
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return SymExpr(terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "SymExpr":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = SymExpr.const(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # ------------------------------------------------------------------
    # Partial operations
    # ------------------------------------------------------------------
    def div_exact(self, divisor: ExprLike) -> Optional["SymExpr"]:
        """Exact polynomial division; ``None`` if not exactly divisible.

        Implemented as multivariate long division by the divisor's leading
        monomial (graded-lex order).  Exactness over the integers requires
        coefficient divisibility at every step.
        """
        divisor = SymExpr.coerce(divisor)
        if divisor.is_zero():
            return None
        dint = divisor.as_int()
        if dint is not None:
            terms = {}
            for m, c in self._terms.items():
                if c % dint != 0:
                    return None
                terms[m] = c // dint
            return SymExpr(terms)
        # Leading monomial in graded-lex order.  A proper monomial order is
        # required for long division to terminate on exact quotients: we use
        # total degree, then lexicographic on the exponent vector over a
        # fixed alphabetical variable order.
        var_order = sorted(self.free_vars() | divisor.free_vars())

        def order_key(item):
            m, _ = item
            powers = dict(m)
            return (
                _mono_degree(m),
                tuple(powers.get(v, 0) for v in var_order),
            )

        lead_m, lead_c = max(divisor._terms.items(), key=order_key)
        remainder = self
        quotient = SymExpr.const(0)
        # Bounded iteration: each step strictly removes the remainder's
        # leading monomial, so len(terms) * degree bounds the loop.
        for _ in range(64 + 4 * len(self._terms) * (1 + self.degree())):
            if remainder.is_zero():
                return quotient
            rm, rc = max(remainder._terms.items(), key=order_key)
            qm = _mono_divides(rm, lead_m)
            if qm is None or rc % lead_c != 0:
                return None
            qterm = SymExpr({qm: rc // lead_c})
            quotient = quotient + qterm
            remainder = remainder - qterm * divisor
        return None  # pragma: no cover - loop bound is generous

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "SymExpr":
        """Simultaneously substitute expressions for variables."""
        if not mapping:
            return self
        fv = self.free_vars()
        if not any(v in fv for v in mapping):
            return self
        if all(
            isinstance(e, int) and not isinstance(e, bool)
            for e in mapping.values()
        ):
            # Fast path for concrete instantiation (the executor's hot
            # loop): fold integer values directly into the coefficients
            # instead of going through polynomial multiplication.
            terms: Dict[Monomial, int] = {}
            for m, c in self._terms.items():
                rest = []
                for var, p in m:
                    val = mapping.get(var)
                    if val is None:
                        rest.append((var, p))
                    else:
                        c *= val**p
                key = tuple(rest)
                acc = terms.get(key, 0) + c
                if acc:
                    terms[key] = acc
                elif key in terms:
                    del terms[key]
            return SymExpr(terms)
        coerced = {v: SymExpr.coerce(e) for v, e in mapping.items()}
        result = SymExpr.const(0)
        for m, c in self._terms.items():
            term = SymExpr.const(c)
            for var, p in m:
                if var in coerced:
                    term = term * (coerced[var] ** p)
                else:
                    term = term * (SymExpr.var(var) ** p)
            result = result + term
        return result

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate to an integer; raises ``KeyError`` on unbound variables."""
        total = 0
        for m, c in self._terms.items():
            val = c
            for var, p in m:
                val *= env[var] ** p
            total += val
        return total

    def content(self) -> int:
        """GCD of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, abs(c))
        return g

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = SymExpr.const(other)
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        # Forbid accidental truthiness tests; expressions are not booleans.
        raise TypeError(
            "SymExpr has no truth value; use .is_zero() or the prover"
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"SymExpr({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"

        def mono_str(m: Monomial) -> str:
            return "*".join(
                var if p == 1 else f"{var}^{p}" for var, p in m
            )

        # Stable ordering: by degree descending then lexicographic.
        items = sorted(
            self._terms.items(), key=lambda kv: (-_mono_degree(kv[0]), kv[0])
        )
        parts = []
        for m, c in items:
            if m == _CONST_MONO:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono_str(m)
            else:
                body = f"{abs(c)}*{mono_str(m)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def Var(name: str) -> SymExpr:
    """Convenience constructor for a variable expression."""
    return SymExpr.var(name)


def sym(value: ExprLike) -> SymExpr:
    """Coerce an int or SymExpr to SymExpr (idempotent)."""
    return SymExpr.coerce(value)

