"""Peak-footprint estimation: a dry-mode run of the memory-IR executor.

There is one lifetime model -- which blocks are live when -- and it is
:class:`repro.mem.exec.MemExecutor`'s live-allocation accounting,
documented there.  :func:`estimate_peak` runs that executor in
``mode="dry"`` (sizes only, no buffers, map bodies executed once at a
representative thread and scaled by the width) and reports its counters.
The estimate equals ``ExecStats.peak_bytes`` of a real-mode run whenever
map bodies allocate uniformly across threads, which the vectorized
engine independently requires.

Where a quantity depends on array *contents* the estimate follows the
dry executor's placeholder values (0 for integers, 1.0 for floats,
``False`` for booleans).  So, by decision and not by oversight (no
benchmark, test or caller has either): an ``if`` on such a condition
counts the one branch the placeholder selects, not the heavier of the
two; and an allocation size or trip count computed from contents is
evaluated from placeholders, not rejected with an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.ir import ast as A
from repro.ir.types import ArrayType, DTYPE_INFO
from repro.mem.exec import MemExecutor
from repro.mem.memir import param_mem_name


@dataclass(frozen=True)
class FootprintEstimate:
    """Allocation footprint of one (dry) run."""

    #: High-water mark of live bytes (input blocks + live allocations).
    peak_bytes: int
    #: Bytes held by the input parameter blocks (live throughout).
    param_bytes: int
    #: Total bytes ever allocated (matches ``ExecStats.alloc_bytes``).
    alloc_bytes: int
    #: Total allocation count (matches ``ExecStats.alloc_count``).
    alloc_count: int
    #: Per-space high-water marks (matches ``ExecStats.space_peak_bytes``
    #: of a real-mode run, with the same caveats as ``peak_bytes``).
    space_peaks: Dict[str, int] = field(default_factory=dict)

    @property
    def naive_bytes(self) -> int:
        """Footprint of the no-reuse model where every allocation lives
        forever -- the paper's baseline an allocator-free backend pays."""
        return self.param_bytes + self.alloc_bytes

    @property
    def saving(self) -> float:
        """Fraction of the naive footprint the lifetime model avoids."""
        if self.naive_bytes == 0:
            return 0.0
        return 1.0 - self.peak_bytes / self.naive_bytes


def estimate_peak(
    fun: A.Fun, inputs: Mapping[str, object]
) -> FootprintEstimate:
    """Estimate the peak allocation footprint of running ``fun``.

    ``inputs`` is the executor's input mapping (concrete arrays and/or
    the scalar shape variables); array contents are never inspected.
    """
    ex = MemExecutor(fun, mode="dry")
    _, stats = ex.run(**inputs)
    return FootprintEstimate(
        peak_bytes=stats.peak_bytes,
        param_bytes=sum(
            ex.mem[param_mem_name(p.name)] * DTYPE_INFO[p.type.dtype][1]
            for p in fun.params
            if isinstance(p.type, ArrayType)
        ),
        alloc_bytes=stats.alloc_bytes,
        alloc_count=stats.alloc_count,
        space_peaks=dict(stats.space_peak_bytes),
    )
