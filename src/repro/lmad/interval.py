"""Sum-of-strided-intervals: the representation behind the non-overlap test.

The Non-Overlap theorem (paper section V-C) speaks about *sums of strided
intervals* ``I = sum_j [l_j .. u_j] * s_j`` -- the set of values obtained by
picking one multiplier ``k_j`` in each ``[l_j, u_j]`` and summing
``k_j * s_j``.  An LMAD dimension ``(n : s)`` is the strided interval
``[0 .. n-1] * s``; the LMAD offset is distributed into the interval bounds
(paper footnote 27) so that two LMADs under comparison share a common base.

This module provides the data types and the conversion/distribution
machinery; the recursive splitting procedure itself (paper fig. 8) lives in
:mod:`repro.lmad.overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lmad.lmad import Lmad
from repro.symbolic import Prover, SymExpr, sym
from repro.symbolic.expr import ExprLike, Monomial, _mono_degree


@dataclass(frozen=True)
class StridedInterval:
    """``[lo .. hi] * stride``: the set {k*stride | lo <= k <= hi}."""

    lo: SymExpr
    hi: SymExpr
    stride: SymExpr

    def __post_init__(self):
        object.__setattr__(self, "lo", sym(self.lo))
        object.__setattr__(self, "hi", sym(self.hi))
        object.__setattr__(self, "stride", sym(self.stride))

    def shifted(self, amount: ExprLike) -> "StridedInterval":
        """Translate both bounds by ``amount`` (in multiplier units)."""
        a = sym(amount)
        return StridedInterval(self.lo + a, self.hi + a, self.stride)

    def span(self) -> SymExpr:
        """Largest value in the set, assuming stride > 0 and hi >= lo >= 0."""
        return self.hi * self.stride

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi}]*({self.stride})"


@dataclass(frozen=True)
class SumOfIntervals:
    """A sum of strided intervals, sorted by ascending stride complexity."""

    intervals: Tuple[StridedInterval, ...]

    def strides(self) -> Tuple[SymExpr, ...]:
        return tuple(iv.stride for iv in self.intervals)

    def with_interval(self, k: int, iv: StridedInterval) -> "SumOfIntervals":
        ivs = list(self.intervals)
        ivs[k] = iv
        return SumOfIntervals(tuple(ivs))

    def __str__(self) -> str:
        return " + ".join(str(iv) for iv in self.intervals)


# ----------------------------------------------------------------------
# Stride ordering
# ----------------------------------------------------------------------
def stride_sort_key(stride: SymExpr) -> tuple:
    """Heuristic "complexity" order for strides: constants first, then by
    degree, then magnitude of leading coefficient, then syntactic.

    The order only has to be *consistent*; if it mis-sorts (e.g. symbolic
    strides whose numeric order differs from their degree order), the
    dimension-overlap checks in the theorem simply fail and the analysis
    stays conservative.
    """
    const = stride.as_int()
    if const is not None:
        return (0, abs(const), "", str(stride))
    return (1, stride.degree(), max(abs(c) for c in stride.terms.values()), str(stride))


def _leading_term(e: SymExpr) -> Tuple[Monomial, int]:
    """Graded-lex leading (monomial, coefficient) of a non-zero polynomial."""
    var_order = sorted(e.free_vars())

    def key(item):
        m, _ = item
        powers = dict(m)
        return (_mono_degree(m), tuple(powers.get(v, 0) for v in var_order))

    return max(e.terms.items(), key=key)


# ----------------------------------------------------------------------
# Offset distribution (paper footnote 27)
# ----------------------------------------------------------------------
#: Leading-term matching steps :func:`distribute_offset` takes before it
#: gives up (conservatively).
_MAX_STEPS = 32


def distribute_offset(
    delta: SymExpr,
    strides: Sequence[SymExpr],
    prover: Prover,
) -> Optional[Tuple[Dict[int, SymExpr], Dict[int, SymExpr]]]:
    """Express ``delta`` as non-negative multiples of the given strides.

    Returns ``(shifts_pos, shifts_neg)`` mapping stride index to a provably
    non-negative multiplier such that
    ``delta == sum shifts_pos[k]*strides[k] - sum shifts_neg[k]*strides[k]``.
    Positive shifts translate the first sum-of-intervals' bounds; negative
    ones the second's -- keeping all interval bounds non-negative as the
    theorem requires.  Returns ``None`` on failure (conservative).

    The strategy follows paper footnote 27: repeatedly take the most complex
    remaining term and match it against the stride whose *leading term*
    divides it, preferring more complex strides so that e.g. the ``n*b``
    term of an NW offset lands on the ``n*b - b`` stride rather than on
    ``n``.
    """
    shifts_pos: Dict[int, SymExpr] = {}
    shifts_neg: Dict[int, SymExpr] = {}
    # Candidate strides from most to least complex; skip provably-zero ones.
    order = sorted(
        range(len(strides)), key=lambda k: stride_sort_key(strides[k]), reverse=True
    )

    d = delta
    for _ in range(_MAX_STEPS):
        if d.is_zero():
            return shifts_pos, shifts_neg
        # Most complex term of the remaining offset.
        term_m, term_c = _leading_term(d)
        matched = False
        for k in order:
            s = strides[k]
            if s.is_zero():
                continue
            lead_m, lead_c = _leading_term(s)
            q_m = SymExpr({term_m: term_c}).div_exact(SymExpr({lead_m: lead_c}))
            if q_m is None:
                continue
            # The quotient must have a provable sign so we know which side
            # of the comparison absorbs it.
            if prover.nonneg(q_m):
                shifts_pos[k] = shifts_pos.get(k, sym(0)) + q_m
                d = d - q_m * s
                matched = True
                break
            if prover.nonneg(-q_m):
                shifts_neg[k] = shifts_neg.get(k, sym(0)) + (-q_m)
                d = d - q_m * s
                matched = True
                break
        if not matched:
            return None
    return None


def synthesize_strides(
    delta: SymExpr,
    strides: List[SymExpr],
    prover: Prover,
) -> List[SymExpr]:
    """Invent stride dimensions for offset terms no existing stride matches.

    Two rank-0 accesses like ``{i*(n+1)}`` vs ``{j}`` have no dimensions at
    all, yet their difference ``i*n + i - j`` carries structure: the term
    ``i*n`` is ``i`` steps of an (implicit) stride ``n``.  For each
    unmatched term ``c*v*m`` where ``v`` has a known upper bound (an index
    variable), we add the stride ``|c|*m`` (and its trivial ``[0..0]``
    interval on both sides) so the distribution step can place ``v`` as the
    interval shift.  This realizes the "distributes the terms of the
    offset" extension the paper claims over Hoeflinger et al. [9].
    """
    out: List[SymExpr] = []

    def matched(term_m, term_c, pool) -> bool:
        # A term is well matched when some stride absorbs most of it: the
        # quotient must be a simple shift (degree <= 1), otherwise a
        # product like i*n would land wholesale on the stride-1 dimension
        # and its structure would be lost.
        for s in pool:
            if s.is_zero():
                continue
            lead_m, lead_c = _leading_term(s)
            q = SymExpr({term_m: term_c}).div_exact(SymExpr({lead_m: lead_c}))
            if q is not None and q.degree() <= 1:
                return True
        return False

    for mono, coeff in delta.terms.items():
        if matched(mono, coeff, strides) or matched(mono, coeff, out):
            continue
        # Prefer splitting off a bounded ("index-like") variable.
        for var, power in mono:
            if power != 1:
                continue
            bound = prover.ctx.bound(var)
            if bound.upper is None:
                continue
            rest = dict(mono)
            del rest[var]
            candidate = SymExpr({tuple(sorted(rest.items())): abs(coeff)})
            if candidate.as_int() == 1:
                continue  # the base stride-1 dim already handles it
            out.append(candidate)
            break
    return out


def pair_to_sums_of_intervals(
    l1: Lmad, l2: Lmad, prover: Prover
) -> Optional[Tuple[SumOfIntervals, SumOfIntervals]]:
    """Convert an LMAD pair to sums of intervals with matching strides.

    Steps (paper section V-C):
    1. normalize both LMADs to non-negative strides (abstract-set reading);
    2. drop unit dimensions and take the union of the two stride sets,
       padding each side with ``[0..0]`` intervals for missing strides
       ("dimensions of length 0 can be introduced or removed at will");
       a stride-1 dimension is always present to absorb constant offsets;
    3. distribute the offset difference ``t1 - t2`` into the interval
       bounds, keeping every bound non-negative.

    Returns ``None`` when any step fails (unknown stride signs, offset not
    expressible), which the caller treats as "possibly overlapping".
    """
    a = l1.normalize_positive(prover)
    b = l2.normalize_positive(prover)
    if a is None or b is None:
        return None
    a = a.drop_unit_dims(prover)
    b = b.drop_unit_dims(prover)

    # Collect the union of strides; force a stride-1 slot.
    stride_keys: List[SymExpr] = []

    def add_stride(s: SymExpr):
        for existing in stride_keys:
            if prover.eq(existing, s):
                return
        stride_keys.append(s)

    add_stride(sym(1))
    for d in a.dims:
        add_stride(d.stride)
    for d in b.dims:
        add_stride(d.stride)
    for s in synthesize_strides(a.offset - b.offset, stride_keys, prover):
        add_stride(s)
    stride_keys.sort(key=stride_sort_key)

    def build(lm: Lmad) -> Optional[List[StridedInterval]]:
        ivs = [StridedInterval(sym(0), sym(0), s) for s in stride_keys]
        for d in lm.dims:
            slot = None
            for k, s in enumerate(stride_keys):
                if prover.eq(s, d.stride):
                    slot = k
                    break
            assert slot is not None
            existing = ivs[slot]
            if not (existing.lo.is_zero() and existing.hi.is_zero()):
                # Two dims with equal strides on one side: merge by adding
                # extents ([0..u1] + [0..u2] at the same stride is
                # [0..u1+u2] -- sound as a superset).
                ivs[slot] = StridedInterval(
                    sym(0), existing.hi + d.shape - 1, d.stride
                )
            else:
                ivs[slot] = StridedInterval(sym(0), d.shape - 1, d.stride)
        return ivs

    ivs1 = build(a)
    ivs2 = build(b)
    if ivs1 is None or ivs2 is None:
        return None

    delta = a.offset - b.offset
    dist = distribute_offset(delta, stride_keys, prover)
    if dist is None:
        return None
    shifts_pos, shifts_neg = dist
    for k, amount in shifts_pos.items():
        ivs1[k] = ivs1[k].shifted(amount)
    for k, amount in shifts_neg.items():
        ivs2[k] = ivs2[k].shifted(amount)

    return SumOfIntervals(tuple(ivs1)), SumOfIntervals(tuple(ivs2))
