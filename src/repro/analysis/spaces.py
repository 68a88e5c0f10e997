"""Memory-space validation (MS rules): capacities and space coherence.

Memory blocks carry a space tag (:mod:`repro.mem.spaces`): ``hbm`` is
device DRAM, ``scratch`` and ``regs`` are the bounded on-chip spaces.
Two things can go wrong once passes start moving arrays between blocks:

* MS01 -- a block placed in a bounded space must fit it.  An individual
  allocation whose *concrete* size exceeds the space's capacity is a
  proven violation (ERROR).  When the concrete allocations of one kernel
  body together overflow the space, the placement is merely suspicious
  (WARNING) -- the executor model keeps one representative thread's
  scratch, but a real backend would spill.  Symbolic sizes are skipped:
  the benchmarks are compiled at symbolic shapes and a capacity claim
  about ``n*n`` bytes is not decidable here.
* MS02 -- every binding's space tag must agree with the space of the
  block it names: an ``alloc``'s declared space, or ``hbm`` for input
  parameter blocks.  A mismatch means a pass re-homed an array across
  spaces without the corresponding copy (coalescing must never merge
  across spaces; short-circuiting must re-tag when it rebases into the
  destination block).  Existential blocks (loop/if results) have no
  declaration site and are skipped.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import stmt_location
from repro.ir import ast as A
from repro.ir.types import ArrayType, DTYPE_INFO
from repro.mem.memir import binders, binding_of, iter_stmts, param_mem_name
from repro.mem.spaces import SPACES, space_of


def _concrete_nbytes(exp: A.Alloc) -> int | None:
    if exp.size.free_vars():
        return None
    return int(exp.size.evaluate({})) * DTYPE_INFO[exp.dtype][1]


def check_spaces(fun: A.Fun, report: Report) -> None:
    """Run the MS rules over one memory-IR function."""
    # Declared space of every ground block: allocs + parameter blocks.
    declared: Dict[str, str] = {
        param_mem_name(p.name): "hbm"
        for p in fun.params
        if isinstance(p.type, ArrayType)
    }

    def walk(block: A.Block, path: str, kernel: bool) -> None:
        # Per-space concrete-byte totals of this kernel body's subtree
        # (only accumulated at the outermost map, where `kernel` flips).
        for i, stmt in enumerate(block.stmts):
            exp = stmt.exp
            loc = stmt_location(f"{path}[{i}]", stmt)
            if isinstance(exp, A.Alloc):
                declared[stmt.names[0]] = exp.space
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

    # MS02: binding tags against declaration sites.
    def check_binding(mem: str, space: str, what: str, loc: str) -> None:
        decl = declared.get(mem)
        if decl is None:  # existential: no declaration site
            return
        report.count()
        if decl != space:
            report.add(
                "MS02", Severity.ERROR, loc,
                f"{what} is tagged @{space} but block {mem!r} lives "
                f"in @{decl}",
            )

    def walk_bindings(block: A.Block, path: str) -> None:
        for i, stmt in enumerate(block.stmts):
            loc = stmt_location(f"{path}[{i}]", stmt)
            for pe in binders(stmt):
                b = binding_of(pe)
                if b is not None:
                    check_binding(
                        b.mem, b.space, f"binding of {pe.name!r}", loc
                    )
            for k, blk in enumerate(A.sub_blocks(stmt.exp)):
                walk_bindings(blk, f"{path}[{i}].sub[{k}]")

    walk_bindings(fun.body, "body")
