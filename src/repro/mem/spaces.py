"""First-class memory spaces.

Every memory block (``alloc`` statement or parameter block) lives in a
named *space*: the flat device memory (``hbm``), the on-chip scratchpad
shared by a kernel's threads (``scratch``), or the register file
(``regs``).  The space is carried on both the :class:`~repro.ir.ast.Alloc`
expression (the source of truth) and on every
:class:`~repro.mem.memir.MemBinding` that views the block (audited by
verifier rule MS02), so it survives pretty-print/parse round-trips and
is visible to every pass.

Spaces are deliberately *descriptive*, not semantic: erasing them (like
erasing the bindings themselves) recovers the same functional program.
They change what the accountants report (per-space traffic and peaks),
what the coalescer may merge (never across spaces, MS02), what the
capacity rule admits (MS01), and what the cost model charges (tiered
bandwidths in :mod:`repro.gpu.costmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ir import ast as A
from repro.mem.memir import binders, iter_stmts


@dataclass(frozen=True)
class MemSpace:
    """One addressable memory tier of the simulated device."""

    name: str
    #: Capacity in bytes; ``None`` means unbounded (host-sized HBM).
    capacity: Optional[int]


#: Default space for every block the frontend or a pass does not place
#: explicitly.  All parameter blocks live here.
DEFAULT_SPACE = "hbm"

#: The registry.  Capacities model a generic data-center GPU: HBM is
#: treated as unbounded (the footprint gates police it separately),
#: the scratchpad is 192 KiB per kernel instance (A100-class unified
#: shared memory), and the register file budget per thread is 1 KiB
#: (256 x 32-bit registers).
SPACES: Dict[str, MemSpace] = {
    "hbm": MemSpace("hbm", None),  # device-global high-bandwidth memory
    "scratch": MemSpace("scratch", 192 * 1024),  # per-kernel, on-chip
    "regs": MemSpace("regs", 1024),  # per-thread register file
}


def space_of(name: str) -> MemSpace:
    """Look up a space by name; unknown names are a hard error."""
    try:
        return SPACES[name]
    except KeyError:
        raise KeyError(
            f"unknown memory space {name!r} (known: {sorted(SPACES)})"
        ) from None


def assign_space(fun: A.Fun, mem: str, space: str) -> int:
    """Re-home one alloc'd block into ``space``, updating the Alloc and
    every binding that views the block.  Returns the number of rewritten
    sites.  Used by the fuzz corpus to generate cross-space programs and
    by tests; real placement happens in :mod:`repro.mem.introduce`.
    """
    space_of(space)  # validate
    changed = 0
    for stmt in iter_stmts(fun.body):
        if (
            isinstance(stmt.exp, A.Alloc)
            and stmt.pattern
            and stmt.pattern[0].name == mem
        ):
            stmt.exp = A.Alloc(stmt.exp.size, stmt.exp.dtype, space)
            changed += 1
        for pe in binders(stmt):
            b = pe.mem
            if b is not None and b.mem == mem and b.space != space:
                pe.mem = b.with_space(space)
                changed += 1
    return changed
