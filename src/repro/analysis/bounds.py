"""Bounds checking: every index function's image fits its block (B rules).

For each binding ``x @ mem -> ixfn`` the memory-side LMAD (``lmads[0]``)
determines every flat offset the array can touch; with strides normalized
non-negative the image lies in ``[offset, max_offset()]``, so the two
obligations are ``offset >= 0`` and ``max_offset() <= size - 1``.

Proof strategy (mirroring the paper's conservative-analysis stance):

1. symbolic, via :class:`repro.symbolic.Prover` under the scope's context
   (function assumptions + enclosing loop/map index ranges + scalar
   definitions);
2. concrete fallback: evaluate min/max offsets numerically under a sample
   model of the assumptions, enumerating corner values for range-bounded
   variables (loop indices) -- a definite violation here is a real bug at
   a feasible input (B01); an inconclusive evaluation is reported as a
   NOTE (B02), never an error, since the obligation may simply exceed the
   prover.

Blocks with unknown extent (existential ``if``/``loop`` memory) are
skipped: their size is chosen at run time to fit.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import (
    ScopeWalker,
    alloc_sizes,
    enter_scope,
    index_var_ranges,
    param_block_sizes,
    sample_env,
    stmt_location,
)
from repro.ir import ast as A
from repro.lmad.lmad import Lmad
from repro.mem.memir import MemBinding
from repro.symbolic import Context, Prover, SymExpr


class _BoundsWalker(ScopeWalker):
    def __init__(self, fun: A.Fun, report: Report):
        super().__init__(fun)
        self.report = report
        self.sizes: Dict[str, SymExpr] = {
            **alloc_sizes(fun),
            **param_block_sizes(fun),
        }

    def on_stmt(self, stmt, ctx, bindings, avail, path, block, idx):
        loc = stmt_location(path, stmt)
        for pe in stmt.pattern:
            if pe.is_array() and isinstance(pe.mem, MemBinding):
                self._check(pe.name, pe.mem, ctx, loc)
        for _, binder in A.sub_scopes(stmt.exp):
            if binder is not None and binder.params:
                lctx = enter_scope(ctx, binder)
                for prm in binder.params:
                    if prm.mem is not None:
                        self._check(prm.name, prm.mem, lctx, loc)

    # ------------------------------------------------------------------
    def _check(
        self, name: str, b: MemBinding, ctx: Context, loc: str
    ) -> None:
        size = self.sizes.get(b.mem)
        if size is None:
            return  # existential block: extent chosen at run time
        rep = self.report
        rep.count()
        region = b.ixfn.lmads[0]
        prover = Prover(ctx)
        norm = region.normalize_positive(prover)
        if norm is not None:
            lo_ok = prover.nonneg(norm.offset) or _all_empty(norm, prover)
            hi_ok = prover.le(norm.max_offset(), size - 1)
            if lo_ok and hi_ok:
                return
        verdict, detail = _concrete_check(region, size, ctx)
        if verdict is True:
            return
        if verdict is False:
            rep.add(
                "B01", Severity.ERROR, loc,
                f"{name!r} @ {b.mem} -> {region} escapes the block's "
                f"{size} elements: {detail}",
            )
        else:
            rep.add(
                "B02", Severity.NOTE, loc,
                f"could not prove {name!r} @ {b.mem} -> {region} fits in "
                f"{size} elements (symbolic and concrete checks both "
                "inconclusive)",
            )


def _all_empty(l: Lmad, prover: Prover) -> bool:
    """Is the region provably empty (some extent == 0)?"""
    return any(prover.eq(d.shape, SymExpr.const(0)) for d in l.dims)


# ----------------------------------------------------------------------
#: Two-sided index variables :func:`_concrete_check` enumerates corners
#: of (2^n evaluations).
_MAX_CORNER_VARS = 8


def _concrete_check(
    region: Lmad, size: SymExpr, ctx: Context
) -> Tuple[Optional[bool], str]:
    """Evaluate the image numerically under a model of the assumptions.

    Returns ``(True, _)`` when every corner fits, ``(False, detail)`` on a
    definite violation, ``(None, _)`` when no model could be built.
    """
    fv: Set[str] = set(region.free_vars()) | set(size.free_vars())
    env = sample_env(ctx, fv)
    if env is None:
        return None, "no concrete model"
    # Variables with a two-sided bound (loop/map indices) range over their
    # whole interval; the affine offset is extremal at interval corners.
    corner_vars = {
        v for v in fv
        if ctx.bound(v).lower is not None and ctx.bound(v).upper is not None
    }
    ranges = index_var_ranges(ctx, corner_vars, env)
    if ranges is None or len(ranges) > _MAX_CORNER_VARS:
        return None, "unbounded index variables"
    choices: List[List[Tuple[str, int]]] = []
    for v, lo, hi in ranges:
        if lo > hi:
            return True, ""  # an enclosing loop never executes here
        choices.append([(v, lo), (v, hi)] if lo != hi else [(v, lo)])
    # Offsets are affine in each index variable (given the others), so the
    # image extremes occur at interval corners.
    for picks in product(*choices):
        corner = dict(env)
        corner.update(picks)
        res = _eval_extremes(region, size, corner)
        if res is None:
            return None, "non-concrete under model"
        lo_off, hi_off, sz = res
        if lo_off is None:
            continue  # empty region at this corner
        if lo_off < 0 or hi_off >= sz:
            at = ", ".join(f"{v}={corner[v]}" for v in sorted(fv))
            return (
                False,
                f"offsets [{lo_off}, {hi_off}] vs size {sz} at {at}",
            )
    return True, ""


def _eval_extremes(
    region: Lmad, size: SymExpr, env: Dict[str, int]
) -> Optional[Tuple[Optional[int], int, int]]:
    off = region.offset.substitute(env).as_int()
    sz = size.substitute(env).as_int()
    if off is None or sz is None:
        return None
    lo, hi = off, off
    for d in region.dims:
        n = d.shape.substitute(env).as_int()
        s = d.stride.substitute(env).as_int()
        if n is None or s is None:
            return None
        if n <= 0:
            return None, 0, sz  # empty region: vacuously in bounds
        span = (n - 1) * s
        lo += min(0, span)
        hi += max(0, span)
    return lo, hi, sz


def check_bounds(fun: A.Fun, report: Report) -> None:
    _BoundsWalker(fun, report).run()
