"""Well-formedness lint over memory annotations (WF rules).

* WF01 -- every array-typed pattern element carries a :class:`MemBinding`
  (run after memory introduction, this is a hard invariant);
* WF02 -- every referenced memory block is bound *somewhere*: an ``alloc``
  statement, a parameter's implicit block, a loop parameter's existential
  block, or an existential scalar returned by ``if``/``loop``;
* WF03 -- alloc sizes are not provably negative;
* WF04 -- an ``if`` whose pattern binds an existentially-quantified memory
  block anti-unifies consistently: substituting each branch's returned
  block/scalars into the generalized index function reproduces that
  branch's actual binding;
* WF05 -- the pattern's array type and its binding's index function agree
  on rank (shape disagreements are reported at WARNING, since provers may
  be too weak for exotic but correct shapes);
* WF06 -- every array-typed loop parameter has a memory binding.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import (
    ScopeWalker,
    alloc_sizes,
    param_block_sizes,
    stmt_location,
)
from repro.ir import ast as A
from repro.ir.types import ArrayType
from repro.mem.memir import MemBinding, binders, binding_of
from repro.symbolic import Context, Prover, SymExpr


def known_blocks(fun: A.Fun) -> Set[str]:
    """Every name that can legitimately serve as a memory block."""
    from repro.mem.memir import iter_stmts

    known = set(alloc_sizes(fun)) | set(param_block_sizes(fun))
    for stmt in iter_stmts(fun.body):
        for pe in stmt.pattern:
            if not pe.is_array():
                known.add(pe.name)  # existential mem results are scalars
        if isinstance(stmt.exp, A.Loop):
            # Loop parameters and results bind their existential blocks
            # (lmem, rmem) implicitly: there is no separate binder
            # statement.
            known.update(
                pe.mem.mem for pe in binders(stmt) if pe.mem is not None
            )
    return known


class _WfWalker(ScopeWalker):
    def __init__(self, fun: A.Fun, report: Report):
        super().__init__(fun)
        self.report = report
        self.known = known_blocks(fun)

    def on_stmt(self, stmt, ctx, bindings, avail, path, block, idx):
        loc = stmt_location(path, stmt)
        rep = self.report
        exp = stmt.exp

        if isinstance(exp, A.Alloc):
            rep.count()
            prover = Prover(ctx)
            if prover.neg(exp.size):
                rep.add(
                    "WF03", Severity.ERROR, loc,
                    f"alloc size {exp.size} is provably negative",
                )

        for pe in stmt.pattern:
            if not pe.is_array():
                continue
            rep.count()
            if pe.mem is None:
                rep.add(
                    "WF01", Severity.ERROR, loc,
                    f"array {pe.name!r} has no memory binding",
                )
                continue
            b = binding_of(pe)
            self._check_binding(pe.name, pe.type, b, ctx, loc)

        if isinstance(exp, A.Loop):
            for prm, _init in exp.carried:
                if not prm.is_array():
                    continue
                rep.count()
                if prm.mem is None:
                    rep.add(
                        "WF06", Severity.ERROR, loc,
                        f"loop array parameter {prm.name!r} has no "
                        "memory binding",
                    )
                    continue
                self._check_binding(prm.name, prm.type, prm.mem, ctx, loc)
        if isinstance(exp, A.If):
            self._check_if_existentials(stmt, exp, bindings, loc)

    # ------------------------------------------------------------------
    def _check_binding(
        self,
        name: str,
        typ: ArrayType,
        b: MemBinding,
        ctx: Context,
        loc: str,
    ) -> None:
        rep = self.report
        rep.count()
        if b.mem not in self.known:
            rep.add(
                "WF02", Severity.ERROR, loc,
                f"{name!r} is bound to unknown memory block {b.mem!r}",
            )
        if len(typ.shape) != b.ixfn.rank:
            rep.add(
                "WF05", Severity.ERROR, loc,
                f"{name!r} has rank {len(typ.shape)} but its index "
                f"function has rank {b.ixfn.rank}",
            )
            return
        prover = Prover(ctx)
        for ts, ixs in zip(typ.shape, b.ixfn.shape):
            rep.count()
            if not prover.eq(ts, ixs):
                rep.add(
                    "WF05", Severity.WARNING, loc,
                    f"{name!r} dimension {ts} differs from index-function "
                    f"dimension {ixs}",
                )

    # ------------------------------------------------------------------
    def _check_if_existentials(
        self,
        stmt: A.Let,
        exp: A.If,
        bindings: Dict[str, MemBinding],
        loc: str,
    ) -> None:
        """Existential returns anti-unify: pattern[k] corresponds to
        then/else ``result[k]`` in lockstep (the introduce pass's layout).
        """
        rep = self.report
        own = set(stmt.names)
        pat_index = {pe.name: k for k, pe in enumerate(stmt.pattern)}
        for k, pe in enumerate(stmt.pattern):
            if not pe.is_array() or pe.mem is None:
                continue
            b = binding_of(pe)
            if b.mem not in own:
                continue  # concrete (non-existential) result memory
            rep.count()
            m = pat_index[b.mem]
            for branch, label in (
                (exp.then_block, "then"),
                (exp.else_block, "else"),
            ):
                if k >= len(branch.result) or m >= len(branch.result):
                    rep.add(
                        "WF04", Severity.ERROR, loc,
                        f"{label}-branch returns {len(branch.result)} "
                        f"values but the pattern expects more",
                    )
                    continue
                res_name = branch.result[k]
                res_mem = branch.result[m]
                rb = _branch_binding(branch, res_name, bindings)
                if rb is None:
                    continue  # branch result is opaque here; skip
                if rb.mem != res_mem:
                    rep.add(
                        "WF04", Severity.ERROR, loc,
                        f"{label}-branch result {res_name!r} lives in "
                        f"{rb.mem!r} but the branch returns block "
                        f"{res_mem!r} for existential {b.mem!r}",
                    )
                    continue
                # Substitute the branch's returned scalars into the
                # generalized index function; it must reproduce the
                # branch's actual one.
                subst: Dict[str, SymExpr] = {}
                resolvable = True
                for v in b.ixfn.free_vars():
                    if v in own:
                        val = _branch_scalar(branch, branch.result[pat_index[v]])
                        if val is None:
                            resolvable = False
                            break
                        subst[v] = val
                if not resolvable:
                    continue
                if b.ixfn.substitute(subst) != rb.ixfn:
                    rep.add(
                        "WF04", Severity.ERROR, loc,
                        f"{label}-branch binding {rb} does not match the "
                        f"generalized index function {b.ixfn} under "
                        f"{{{', '.join(f'{a}={e}' for a, e in subst.items())}}}",
                    )


def _branch_binding(
    branch: A.Block, name: str, outer: Dict[str, MemBinding]
) -> Optional[MemBinding]:
    for s in branch.stmts:
        for pe in s.pattern:
            if pe.name == name and pe.is_array():
                return binding_of(pe) if pe.mem is not None else None
    return outer.get(name)


def _branch_scalar(branch: A.Block, name: str) -> Optional[SymExpr]:
    for s in branch.stmts:
        if name in s.names:
            if isinstance(s.exp, A.ScalarE):
                return s.exp.expr
            if isinstance(s.exp, A.Lit) and s.exp.dtype == "i64":
                return SymExpr.const(int(s.exp.value))
            return None
    return SymExpr.var(name)  # bound in an enclosing scope


def check_wellformed(fun: A.Fun, report: Report) -> None:
    _WfWalker(fun, report).run()
