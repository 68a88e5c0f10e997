"""Free-annotation validation (F rules): cross-checks ``Let.mem_frees``.

The executor -- and so the footprint estimate, a dry-mode run of it --
treats a ``mem_frees`` entry as "this block's lifetime ends here" and
retires it from the live set.  The annotations are produced by
:mod:`repro.reuse.liveranges`; this checker re-derives the obligations
from the program alone (it never imports :mod:`repro.reuse` -- same
translation-validation stance as the rest of the package, including its
own existential-indirection expansion):

* F01 -- a block freed at a statement must not be touched by any later
  statement of the same IR block, nor be reachable from the block's
  results.  A violation is a use-after-free in the footprint model: the
  executor would under-count live bytes, and a future allocator backed
  by the annotations would hand the buffer out while it still carries
  live data.
* F02 -- a freed block must be allocated in the annotated block's own
  subtree.  Freeing an ancestor's allocation from inside a loop or
  branch body would retire it once per execution of the body, leaving
  the enclosing scope's instance dead while still referenced.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import stmt_location
from repro.ir import ast as A
from repro.mem.memir import (
    MemBinding,
    array_bindings,
    binders,
    binding_of,
    entry_bindings,
    iter_stmts,
)


class FreeChecker:
    def __init__(self, fun: A.Fun, report: Report):
        self.fun = fun
        self.report = report
        self.bindings = array_bindings(fun)
        self.allocated: Set[str] = {
            s.names[0]
            for s in iter_stmts(fun.body)
            if isinstance(s.exp, A.Alloc)
        }
        self._indirect: Dict[str, Tuple[str, ...]] = {}
        self._build_indirection()

    # ------------------------------------------------------------------
    # Existential indirection (independent re-derivation)
    # ------------------------------------------------------------------
    def _build_indirection(self) -> None:
        raw: Dict[str, Set[str]] = {}

        def register(mem: str, under: Set[str]) -> None:
            under.discard(mem)
            if under and mem not in self.allocated:
                raw.setdefault(mem, set()).update(under)

        def walk(blk: A.Block, parent: Dict[str, MemBinding]):
            bindings = dict(parent)
            for stmt in blk.stmts:
                exp = stmt.exp
                if isinstance(exp, A.Loop):
                    lb = dict(bindings)
                    for prm, _init in exp.carried:
                        if prm.mem is not None:
                            lb[prm.name] = prm.mem
                    child = walk(exp.body, lb)
                    for k, (prm, init) in enumerate(exp.carried):
                        if prm.mem is None:
                            continue
                        under: Set[str] = set()
                        ib = bindings.get(init)
                        if ib is not None:
                            under.add(ib.mem)
                        rb = child.get(exp.body.result[k])
                        if rb is not None:
                            under.add(rb.mem)
                        register(prm.mem.mem, under)
                    for k, pe in enumerate(stmt.pattern):
                        if not pe.is_array() or pe.mem is None:
                            continue
                        under = set()
                        if k < len(exp.body.result):
                            rb = child.get(exp.body.result[k])
                            if rb is not None:
                                under.add(rb.mem)
                        if k < len(exp.carried):
                            ib = bindings.get(exp.carried[k][1])
                            if ib is not None:
                                under.add(ib.mem)
                        register(binding_of(pe).mem, under)
                elif isinstance(exp, A.Map):
                    walk(exp.lam.body, bindings)
                elif isinstance(exp, A.If):
                    branches = [
                        walk(sub, bindings)
                        for sub in (exp.then_block, exp.else_block)
                    ]
                    for k, pe in enumerate(stmt.pattern):
                        if not pe.is_array() or pe.mem is None:
                            continue
                        under = set()
                        for bb, sub in zip(
                            branches, (exp.then_block, exp.else_block)
                        ):
                            if k < len(sub.result):
                                rb = bb.get(sub.result[k])
                                if rb is not None:
                                    under.add(rb.mem)
                        register(binding_of(pe).mem, under)
                for pe in stmt.pattern:
                    if pe.is_array() and pe.mem is not None:
                        bindings[pe.name] = binding_of(pe)
            return bindings

        walk(self.fun.body, entry_bindings(self.fun))
        self._indirect = {m: tuple(sorted(t)) for m, t in raw.items()}

    def _expand(self, mem: str, _seen: Tuple[str, ...] = ()) -> Tuple[str, ...]:
        if mem in _seen:
            return ()
        targets = self._indirect.get(mem)
        if targets is None:
            return (mem,)
        out: Dict[str, None] = {}
        for t in targets:
            for m in self._expand(t, _seen + (mem,)):
                out[m] = None
        return tuple(out)

    # ------------------------------------------------------------------
    # Touch collection
    # ------------------------------------------------------------------
    def _stmt_touches(self, stmt: A.Let) -> Set[str]:
        """Ground allocated blocks a statement can observe or write."""
        mems: Set[str] = set()

        def of_stmt(s: A.Let) -> None:
            mems.update(pe.mem.mem for pe in binders(s) if pe.mem is not None)
            for blk in A.sub_blocks(s.exp):
                mems.update(r for r in blk.result if r not in self.bindings)
                for sub in blk.stmts:
                    of_stmt(sub)

        if not isinstance(stmt.exp, A.Alloc):
            of_stmt(stmt)
            for used in A.exp_uses(stmt.exp):
                b = self.bindings.get(used)
                if b is not None:
                    mems.add(b.mem)
        out: Set[str] = set()
        for m in mems:
            out.update(g for g in self._expand(m) if g in self.allocated)
        return out

    # ------------------------------------------------------------------
    # Walk
    # ------------------------------------------------------------------
    def run(self) -> None:
        self._block(self.fun.body, "body")

    def _subtree_allocs(self, block: A.Block) -> Set[str]:
        out: Set[str] = set()
        for stmt in iter_stmts(block):
            if isinstance(stmt.exp, A.Alloc):
                out.add(stmt.names[0])
        return out

    def _block(self, block: A.Block, path: str) -> None:
        own = self._subtree_allocs(block)
        touches = [self._stmt_touches(s) for s in block.stmts]
        result_mems: Set[str] = set()
        for r in block.result:
            b = self.bindings.get(r)
            for g in self._expand(b.mem if b is not None else r):
                if g in self.allocated:
                    result_mems.add(g)
        for i, stmt in enumerate(block.stmts):
            loc = stmt_location(f"{path}[{i}]", stmt)
            for m in stmt.mem_frees:
                self.report.count()
                if m not in own:
                    self.report.add(
                        "F02", Severity.ERROR, loc,
                        f"block {m!r} is freed here but allocated outside "
                        f"this scope's subtree",
                    )
                    continue
                for j in range(i + 1, len(block.stmts)):
                    if m in touches[j]:
                        later = block.stmts[j]
                        self.report.add(
                            "F01", Severity.ERROR, loc,
                            f"block {m!r} is freed here but still touched "
                            f"by a later statement "
                            f"({'/'.join(later.names)})",
                        )
                        break
                else:
                    if m in result_mems:
                        self.report.add(
                            "F01", Severity.ERROR, loc,
                            f"block {m!r} is freed here but reachable "
                            f"from the enclosing block's results",
                        )
            for k, blk in enumerate(A.sub_blocks(stmt.exp)):
                self._block(blk, f"{path}[{i}].sub[{k}]")


def check_frees(fun: A.Fun, report: Report) -> None:
    FreeChecker(fun, report).run()
