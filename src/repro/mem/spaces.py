"""First-class memory spaces.

Every memory block (``alloc`` statement or parameter block) lives in a
named *space*: the flat device memory (``hbm``) or the on-chip
scratchpad shared by a kernel's threads (``scratch``).  The space is
carried on the :class:`~repro.ir.ast.Alloc` expression that declares
the block, and nowhere else: every reader (executors, coalescer,
emitter, verifier) asks the block, so a
:class:`~repro.mem.memir.MemBinding` that views it cannot disagree.  It
survives pretty-print/parse round-trips with the ``alloc``.

Spaces are deliberately *descriptive*, not semantic: erasing them (like
erasing the bindings themselves) recovers the same functional program.
They change what the accountants report (per-space traffic), what the
coalescer may merge (never across spaces), what the capacity rule
admits (MS01), and what the cost model charges (each device model's
``space_bandwidth_x``).  A space's row in :data:`SPACES` is everything
else the system knows about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class MemSpace:
    """One addressable memory tier of the simulated device."""

    name: str
    #: Capacity in bytes; ``None`` means unbounded (host-sized HBM).
    capacity: Optional[int]
    #: The (read, written) counter slots of a native kernel's site row
    #: (:data:`repro.backend.cemit.SLOTS`) that attribute traffic to this
    #: space; ``None`` for HBM, whose traffic is the remainder.
    slots: Optional[Tuple[int, int]] = None


#: The registry.  Capacities model a generic data-center GPU: HBM is
#: treated as unbounded (the footprint gates police it separately),
#: and the scratchpad is 192 KiB per kernel instance (A100-class
#: unified shared memory).
SPACES: Dict[str, MemSpace] = {
    "hbm": MemSpace("hbm", None),  # device-global high-bandwidth memory
    "scratch": MemSpace("scratch", 192 * 1024, (6, 7)),  # per-kernel, on-chip
}


def space_of(name: str) -> MemSpace:
    """Look up a space by name; unknown names are a hard error."""
    try:
        return SPACES[name]
    except KeyError:
        raise KeyError(
            f"unknown memory space {name!r} (known: {sorted(SPACES)})"
        ) from None
