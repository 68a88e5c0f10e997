"""Native codegen executor tier: memory IR -> C -> cached shared objects.

The third executor tier.  :mod:`repro.backend.cemit` prints the kernel
plan of one outermost ``map`` statement (:mod:`repro.mem.kernel`: the
one lowering both fast tiers read, post-pipeline, LMAD index functions
and all) as a single flat C translation unit whose loops mirror the
interpreter's thread walk and whose counter stores mirror its
:class:`~repro.mem.stats.ExecStats` accounting exactly.
:mod:`repro.backend.build` compiles and caches the shared objects;
:mod:`repro.backend.engine` marshals launches and falls back to the
vectorized/interpreted tiers per statement (``kernel.native_rule`` or
the printer declined, or the toolchain failed) or per launch (structure
changed).

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
from typing import Optional

from repro.backend.build import BuildError, clear_memo, find_cc
from repro.backend.engine import NativeEngine

__all__ = [
    "BuildError",
    "NativeEngine",
    "clear_memo",
    "find_cc",
    "native_enabled",
    "native_unavailable",
    "maybe_engine",
]


def native_unavailable() -> Optional[str]:
    """Why the native tier may not be used -- ``"REPRO_NATIVE=off"``
    (the switch is ``off``, ``0`` or ``false``) or ``"no C compiler"``
    -- or None when it may."""
    if os.environ.get("REPRO_NATIVE", "").lower() in ("off", "0", "false"):
        return "REPRO_NATIVE=off"
    return "no C compiler" if find_cc()[0] is None else None


def native_enabled() -> bool:
    """True when the native tier may be used."""
    return native_unavailable() is None


def maybe_engine(warn: bool = True) -> Optional[NativeEngine]:
    """A :class:`NativeEngine` when the tier is available, else None."""
    why = native_unavailable()
    if why is None:
        return NativeEngine()
    if warn and why == "no C compiler":
        from repro.backend.build import warn_unavailable_once

        warn_unavailable_once()
    return None
