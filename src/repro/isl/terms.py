"""Affine integer set / relation terms over :mod:`repro.symbolic`.

This is the term language of the Presburger-style fallback prover
(DESIGN.md §11).  A :class:`BasicSet` is a conjunction of affine
constraints over *dimension* variables, *existential* variables, and
free *parameters*:

    { [d0, d1] : exists e0 : d0 - 2*e0 == 0 and d0 >= 0 and n - 1 - d0 >= 0 }

Constraint expressions are plain :class:`~repro.symbolic.SymExpr`
polynomials; the set machinery only requires them to be *affine in the
dimension and existential variables* (parameters may appear in
coefficients, so symbolic strides like ``b*n - b`` are fine).  Mod and
div never appear as operators: following the omega tradition they are
normalized away at construction time into *stride constraints* with an
existential quantifier (``x mod m == r``  becomes
``exists k : x - m*k - r == 0``).

An :class:`IntSet` is a finite union of basic sets -- unions arise from
:meth:`IntSet.difference`, whose complement step turns one conjunction
into a disjunction of negated atoms.

A :class:`BasicRel` is a basic set whose dimensions are split into an
input and an output tuple; :meth:`BasicRel.compose` existentializes the
shared middle tuple, which is how chained (non-invertible) index
functions become single relations.

Emptiness lives in :mod:`repro.isl.emptiness`; conversions from LMADs
and index functions in :mod:`repro.isl.bridge`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.symbolic.expr import ExprLike, SymExpr, sym

_fresh_counter = itertools.count()


def fresh_name(prefix: str = "_e") -> str:
    """A globally fresh variable name for existentials."""
    return f"{prefix}{next(_fresh_counter)}"


@dataclass(frozen=True)
class Constraint:
    """``expr == 0`` (``is_eq``) or ``expr >= 0`` over set variables."""

    expr: SymExpr
    is_eq: bool = False

    @staticmethod
    def eq(expr: ExprLike) -> "Constraint":
        return Constraint(sym(expr), is_eq=True)

    @staticmethod
    def ge(expr: ExprLike) -> "Constraint":
        """``expr >= 0``."""
        return Constraint(sym(expr), is_eq=False)

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Constraint":
        return Constraint(self.expr.substitute(mapping), self.is_eq)

    def negated(self) -> Tuple["Constraint", ...]:
        """The negation, as a *disjunction* of constraints.

        ``not (e >= 0)``  is ``-e - 1 >= 0``; ``not (e == 0)`` is the
        two-armed ``e - 1 >= 0  or  -e - 1 >= 0`` (integer domain).
        """
        if self.is_eq:
            return (Constraint.ge(self.expr - 1), Constraint.ge(-self.expr - 1))
        return (Constraint.ge(-self.expr - 1),)

    def is_affine_in(self, variables: Iterable[str]) -> bool:
        vset = frozenset(variables)
        fv = self.expr.free_vars() & vset
        for v in fv:
            coeffs = self.expr.coefficients_in(v)
            for power, coeff in coeffs.items():
                if power > 1:
                    return False
                if power == 1 and coeff.free_vars() & vset:
                    return False  # bilinear in two set variables
        return True

    def __str__(self) -> str:
        return f"{self.expr} {'==' if self.is_eq else '>='} 0"


def stride_constraint(expr: ExprLike, modulus: int, residue: ExprLike = 0):
    """``expr mod modulus == residue`` as (existential, equality constraint).

    Returns ``(k, c)`` where ``k`` is the fresh existential name and ``c``
    the equality ``expr - modulus*k - residue == 0`` -- the normalized
    stride form of a mod/div fact.
    """
    k = fresh_name("_q")
    return k, Constraint.eq(sym(expr) - SymExpr.var(k) * modulus - sym(residue))


@dataclass(frozen=True)
class BasicSet:
    """A conjunction of affine constraints over named dimensions."""

    dims: Tuple[str, ...]
    constraints: Tuple[Constraint, ...] = ()
    exists: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def all_vars(self) -> Tuple[str, ...]:
        return self.dims + self.exists

    def is_affine(self) -> bool:
        vs = self.all_vars()
        return all(c.is_affine_in(vs) for c in self.constraints)

    def with_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        return BasicSet(self.dims, self.constraints + tuple(extra), self.exists)

    def rename(self, mapping: Mapping[str, str]) -> "BasicSet":
        subst = {old: SymExpr.var(new) for old, new in mapping.items()}
        return BasicSet(
            tuple(mapping.get(d, d) for d in self.dims),
            tuple(c.substitute(subst) for c in self.constraints),
            tuple(mapping.get(e, e) for e in self.exists),
        )

    def _fresh_exists(self, taken: Iterable[str]) -> "BasicSet":
        taken = set(taken)
        clash = [e for e in self.exists if e in taken]
        if not clash:
            return self
        return self.rename({e: fresh_name() for e in clash})

    def intersect(self, other: "BasicSet") -> "BasicSet":
        """Conjunction; both sets must agree on the dimension tuple."""
        if self.dims != other.dims:
            raise ValueError(
                f"dimension mismatch: {self.dims} vs {other.dims}"
            )
        other = other._fresh_exists(self.all_vars())
        return BasicSet(
            self.dims,
            self.constraints + other.constraints,
            self.exists + other.exists,
        )

    def project_onto_exists(self, dims_to_drop: Sequence[str]) -> "BasicSet":
        """Turn the named dimensions into existentials (projection)."""
        drop = set(dims_to_drop)
        return BasicSet(
            tuple(d for d in self.dims if d not in drop),
            self.constraints,
            self.exists + tuple(d for d in self.dims if d in drop),
        )

    # ------------------------------------------------------------------
    def contains_point(
        self, point: Sequence[int], env: Optional[Mapping[str, int]] = None,
        exist_bound: int = 12,
    ) -> bool:
        """Brute-force membership test (for differential testing).

        Existentials are searched over ``[-exist_bound, exist_bound]``;
        this is only meant for the small concrete grids the property
        tests enumerate.
        """
        binding: Dict[str, int] = dict(env or {})
        binding.update(zip(self.dims, point))
        return self._sat_exists(binding, list(self.exists), exist_bound)

    def _sat_exists(
        self, binding: Dict[str, int], remaining: List[str], bound: int
    ) -> bool:
        if not remaining:
            for c in self.constraints:
                val = c.expr.evaluate(binding)
                if (val != 0) if c.is_eq else (val < 0):
                    return False
            return True
        var, rest = remaining[0], remaining[1:]
        for k in range(-bound, bound + 1):
            binding[var] = k
            if self._sat_exists(binding, rest, bound):
                del binding[var]
                return True
        del binding[var]
        return False

    def __str__(self) -> str:
        ex = f" exists {', '.join(self.exists)} :" if self.exists else ""
        cs = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ [{', '.join(self.dims)}] :{ex} {cs} }}"


@dataclass(frozen=True)
class IntSet:
    """A finite union of basic sets over a common dimension tuple."""

    pieces: Tuple[BasicSet, ...]

    @staticmethod
    def of(*pieces: BasicSet) -> "IntSet":
        return IntSet(tuple(pieces))

    def union(self, other: "IntSet") -> "IntSet":
        return IntSet(self.pieces + other.pieces)

    def difference(self, other: BasicSet) -> "IntSet":
        """``self \\ other`` for a *quantifier-free* ``other``.

        The complement of a conjunction is the union of its negated
        atoms; an existential in ``other`` would need a universal
        quantifier, which the language deliberately omits.
        """
        if other.exists:
            raise ValueError("difference against a quantified set")
        out: List[BasicSet] = []
        for piece in self.pieces:
            for c in other.constraints:
                for neg in c.negated():
                    out.append(piece.with_constraints([neg]))
        return IntSet(tuple(out))

    def contains_point(self, point, env=None, exist_bound: int = 12) -> bool:
        return any(
            p.contains_point(point, env, exist_bound) for p in self.pieces
        )

    def __str__(self) -> str:
        return " union ".join(str(p) for p in self.pieces) or "{}"


@dataclass(frozen=True)
class BasicRel:
    """An affine relation ``[in_dims] -> [out_dims]``."""

    in_dims: Tuple[str, ...]
    out_dims: Tuple[str, ...]
    constraints: Tuple[Constraint, ...] = ()
    exists: Tuple[str, ...] = ()

    def as_set(self) -> BasicSet:
        return BasicSet(
            self.in_dims + self.out_dims, self.constraints, self.exists
        )

    def range(self) -> BasicSet:
        """The image: out-dims constrained, in-dims existentialized."""
        return BasicSet(
            self.out_dims, self.constraints, self.exists + self.in_dims
        )

    def rename(self, mapping: Mapping[str, str]) -> "BasicRel":
        subst = {old: SymExpr.var(new) for old, new in mapping.items()}
        return BasicRel(
            tuple(mapping.get(d, d) for d in self.in_dims),
            tuple(mapping.get(d, d) for d in self.out_dims),
            tuple(c.substitute(subst) for c in self.constraints),
            tuple(mapping.get(e, e) for e in self.exists),
        )

    def compose(self, then: "BasicRel") -> "BasicRel":
        """``then`` after ``self``: ``x -> z`` when ``x->y`` and ``y->z``.

        The middle tuple becomes existential -- this is what makes a
        chain of non-invertible index maps a single relation.
        """
        if len(self.out_dims) != len(then.in_dims):
            raise ValueError("arity mismatch in composition")
        mid = [fresh_name("_m") for _ in self.out_dims]
        first = self.rename(dict(zip(self.out_dims, mid)))
        second = then.rename(dict(zip(then.in_dims, mid)))
        second = BasicRel(
            tuple(mid),
            second.out_dims,
            second.constraints,
            second.exists,
        )
        taken = set(first.in_dims) | set(first.exists) | set(mid)
        clash = [e for e in second.exists if e in taken]
        if clash:
            second = second.rename({e: fresh_name() for e in clash})
        return BasicRel(
            first.in_dims,
            second.out_dims,
            first.constraints + second.constraints,
            first.exists + second.exists + tuple(mid),
        )

    def intersect_domain(self, dom: BasicSet) -> "BasicRel":
        if dom.dims != self.in_dims:
            dom = dom.rename(dict(zip(dom.dims, self.in_dims)))
        dom = dom._fresh_exists(
            set(self.in_dims) | set(self.out_dims) | set(self.exists)
        )
        return BasicRel(
            self.in_dims,
            self.out_dims,
            self.constraints + dom.constraints,
            self.exists + dom.exists,
        )

    def __str__(self) -> str:
        ex = f" exists {', '.join(self.exists)} :" if self.exists else ""
        cs = " and ".join(str(c) for c in self.constraints) or "true"
        return (
            f"{{ [{', '.join(self.in_dims)}] -> "
            f"[{', '.join(self.out_dims)}] :{ex} {cs} }}"
        )
