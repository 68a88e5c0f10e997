"""Memory-space validation (the MS rule): capacities.

Memory blocks carry a space tag (:mod:`repro.mem.spaces`): ``hbm`` is
device DRAM, ``scratch`` and ``regs`` are the bounded on-chip spaces.
The tag lives on the ``alloc`` alone, so the one thing that can go
wrong is a block that does not fit where it was put:

* MS01 -- a block placed in a bounded space must fit it.  An individual
  allocation whose *concrete* size exceeds the space's capacity is a
  proven violation (ERROR).  When the concrete allocations of one kernel
  body together overflow the space, the placement is merely suspicious
  (WARNING) -- the executor model keeps one representative thread's
  scratch, but a real backend would spill.  Symbolic sizes are skipped:
  the benchmarks are compiled at symbolic shapes and a capacity claim
  about ``n*n`` bytes is not decidable here.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import stmt_location
from repro.ir import ast as A
from repro.ir.types import DTYPE_INFO
from repro.mem.memir import iter_stmts
from repro.mem.spaces import SPACES, space_of


def _concrete_nbytes(exp: A.Alloc) -> int | None:
    if exp.size.free_vars():
        return None
    return int(exp.size.evaluate({})) * DTYPE_INFO[exp.dtype][1]


def check_spaces(fun: A.Fun, report: Report) -> None:
    """Run the MS rule over one memory-IR function."""

    def walk(block: A.Block, path: str, kernel: bool) -> None:
        # Per-space concrete-byte totals of this kernel body's subtree
        # (only accumulated at the outermost map, where `kernel` flips).
        for i, stmt in enumerate(block.stmts):
            exp = stmt.exp
            loc = stmt_location(f"{path}[{i}]", stmt)
            if isinstance(exp, A.Alloc):
                report.count()
                try:
                    space = space_of(exp.space)
                except KeyError:
                    report.add(
                        "MS01", Severity.ERROR, loc,
                        f"allocation names unknown memory space "
                        f"{exp.space!r} (known: {', '.join(SPACES)})",
                    )
                    continue
                nbytes = _concrete_nbytes(exp)
                if (
                    nbytes is not None
                    and space.capacity is not None
                    and nbytes > space.capacity
                ):
                    report.add(
                        "MS01", Severity.ERROR, loc,
                        f"{nbytes} bytes do not fit in space "
                        f"{space.name!r} (capacity {space.capacity})",
                    )
            for k, blk in enumerate(A.sub_blocks(exp)):
                walk(
                    blk,
                    f"{path}[{i}].sub[{k}]",
                    kernel or isinstance(exp, A.Map),
                )
            if isinstance(exp, A.Map) and not kernel:
                _check_kernel_budget(exp, loc, report)

    def _check_kernel_budget(exp: A.Map, loc: str, report: Report) -> None:
        totals: Dict[str, int] = {}
        for stmt in iter_stmts(exp.lam.body):
            if not isinstance(stmt.exp, A.Alloc):
                continue
            nbytes = _concrete_nbytes(stmt.exp)
            if nbytes is not None and stmt.exp.space in SPACES:
                totals[stmt.exp.space] = (
                    totals.get(stmt.exp.space, 0) + nbytes
                )
        for name, used in totals.items():
            cap = SPACES[name].capacity
            report.count()
            if cap is not None and used > cap:
                report.add(
                    "MS01", Severity.WARNING, loc,
                    f"kernel body allocates {used} concrete bytes in "
                    f"space {name!r}, over its {cap}-byte capacity "
                    f"(a real backend would spill)",
                )

    walk(fun.body, "body", kernel=False)
