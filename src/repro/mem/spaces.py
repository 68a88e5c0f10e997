"""First-class memory spaces.

Every memory block (``alloc`` statement or parameter block) lives in a
named *space*: the flat device memory (``hbm``), the on-chip scratchpad
shared by a kernel's threads (``scratch``), or the register file
(``regs``).  The space is carried on the :class:`~repro.ir.ast.Alloc`
expression that declares the block, and nowhere else: every reader
(executors, coalescer, emitter, verifier) asks the block, so a
:class:`~repro.mem.memir.MemBinding` that views it cannot disagree.  It
survives pretty-print/parse round-trips with the ``alloc``.

Spaces are deliberately *descriptive*, not semantic: erasing them (like
erasing the bindings themselves) recovers the same functional program.
They change what the accountants report (per-space traffic and peaks),
what the coalescer may merge (never across spaces), what the
capacity rule admits (MS01), and what the cost model charges (tiered
bandwidths in :mod:`repro.gpu.costmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional



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
