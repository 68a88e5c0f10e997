"""Free-annotation validation (F rules): cross-checks ``Let.mem_frees``.

The executor -- and so the footprint estimate, a dry-mode run of it --
treats a ``mem_frees`` entry as "this block's lifetime ends here" and
retires it from the live set.  The annotations are produced by
:mod:`repro.reuse.liveranges`; this checker re-derives the obligations
from the program alone (it never imports :mod:`repro.reuse` -- same
translation-validation stance as the rest of the package; the
existential indirection is :func:`repro.analysis.facts.existential_targets`):

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

from typing import Set

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import existential_targets, expand_block, stmt_location
from repro.ir import ast as A
from repro.mem.memir import array_bindings, binders, iter_stmts


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
        self._indirect = existential_targets(fun)

    def _ground(self, mem: str) -> Set[str]:
        """The allocated blocks ``mem`` may stand for."""
        return {
            g for g in expand_block(self._indirect, mem) if g in self.allocated
        }

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
        return set().union(*map(self._ground, mems))

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
            result_mems |= self._ground(b.mem if b is not None else r)
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
