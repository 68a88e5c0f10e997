"""Native codegen executor tier: memory IR -> C -> cached shared objects.

The third executor tier.  :mod:`repro.backend.cemit` lowers one
outermost ``map`` statement -- post-pipeline, memory-annotated, LMAD
index functions and all -- to a single flat C translation unit whose
loops mirror the interpreter's thread walk and whose counter stores
mirror its :class:`~repro.mem.stats.ExecStats` accounting exactly.
:mod:`repro.backend.build` compiles and caches the shared objects;
:mod:`repro.backend.engine` marshals launches and falls back to the
vectorized/interpreted tiers per statement (emission declined, or the
toolchain failed) or per launch (structure changed).

``REPRO_NATIVE=off`` (or ``0``) disables the tier globally; a missing C
compiler disables it with a one-line warning.  A C compiler that is
present but faulty -- it exits nonzero, or exits 0 having written an
object that does not load -- costs one attempt per statement and
leaves a ``cc-failed`` / ``so-unloadable`` record saying what it said
(:attr:`NativeEngine.declined`, surfaced by ``Program.coverage()``).
In every one of those cases every program still runs -- bit-identically
-- on the remaining tiers.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.backend.build import BuildError, clear_memo, find_cc
from repro.backend.engine import NativeEngine

__all__ = [
    "BuildError",
    "NativeEngine",
    "clear_memo",
    "find_cc",
    "native_enabled",
    "maybe_engine",
]


def native_enabled() -> bool:
    """True when the native tier may be used: not switched off via
    ``REPRO_NATIVE`` and a C compiler is present."""
    if os.environ.get("REPRO_NATIVE", "").lower() in ("off", "0", "false"):
        return False
    return find_cc()[0] is not None


def maybe_engine(plans: Optional[Dict[int, object]] = None,
                 warn: bool = True) -> Optional[NativeEngine]:
    """A :class:`NativeEngine` when the tier is available, else None."""
    if os.environ.get("REPRO_NATIVE", "").lower() in ("off", "0", "false"):
        return None
    if find_cc()[0] is None:
        if warn:
            from repro.backend.build import warn_unavailable_once

            warn_unavailable_once()
        return None
    return NativeEngine(plans)
