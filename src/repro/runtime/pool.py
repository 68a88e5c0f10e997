"""Pooled flat buffers: reuse the allocation plan across executions.

Every ``MemExecutor.run`` of a compiled program allocates the same
sequence of flat buffers (the coalesced allocation plan computed by
:mod:`repro.reuse` is a static property of the IR), yet the executor
historically paid a fresh ``np.zeros`` for each of them on every call.
For a compile-once, serve-many workload that per-call allocation cost --
page faults included -- dominates small-program latency.

:class:`BufferPool` keeps returned buffers on free lists keyed by exact
``(numpy dtype, element count)`` so a pooled buffer is byte-for-byte the
same shape the executor would have allocated: the high-water footprint
accounting (``ExecStats.peak_bytes``) stays bit-identical to the
unpooled path because the executor's lifetime model never sees a
difference.  Reused buffers are **zero-filled on acquisition** (not on
release), matching the deterministic all-zeros contents of a fresh
``np.zeros`` -- the semantics ``Scratch`` relies on -- so even a pool
whose idle buffers were poisoned between requests hands out pristine
memory.

Concurrency follows a *leasing* rule: the pool itself is lock-protected
and shared (typically one per :class:`~repro.runtime.Program`), while
each execution draws its buffers through a private :class:`PoolLease`.
A leased buffer belongs to exactly one run until the lease closes, so
two workers serving the same program concurrently never share mutable
executor state; closing the lease (normally via ``with``) returns every
buffer to the shared free lists.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.types import DTYPE_INFO

#: Free-list key: (canonical numpy dtype string, element count).
PoolKey = Tuple[str, int]


def _pool_key(dtype: str, size: int) -> PoolKey:
    return (np.dtype(DTYPE_INFO[dtype][0]).str, size)


@dataclass
class PlanEntry:
    """The materialized allocation plan of one shape class.

    Recorded from the first execution at that shape: the exact multiset
    of buffers the run drew (as ``(numpy dtype str, size)`` pairs, i.e.
    :class:`PoolLease.manifest` output).  ``BufferPool.reserve`` can
    pre-allocate ``copies`` leases' worth so a worker fleet starts with
    a warm pool instead of missing once per worker.
    """

    manifest: Tuple[Tuple[str, int], ...]
    #: How many concurrent leases the pool has been provisioned for.
    reserved_copies: int = 0


class BufferPool:
    """Shared, thread-safe free lists of exact-size flat buffers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[PoolKey, List[np.ndarray]] = {}
        #: Cumulative acquisition counters (a lease also tallies its own).
        self.hits = 0
        self.misses = 0
        #: shape-class key -> materialized allocation plan.
        self._plans: Dict[str, PlanEntry] = {}

    # ------------------------------------------------------------------
    # Acquisition / release
    # ------------------------------------------------------------------
    def acquire(
        self, size: int, dtype: str, zero: bool = True
    ) -> Tuple[np.ndarray, bool]:
        """A buffer of exactly ``size`` elements of ``dtype``.

        Returns ``(buffer, reused)``.  A reused buffer is zero-filled
        here (when ``zero``) so its contents are indistinguishable from
        a fresh ``np.zeros``; callers that overwrite the whole buffer
        anyway (input binding) pass ``zero=False``.
        """
        key = _pool_key(dtype, size)
        with self._lock:
            lst = self._free.get(key)
            buf = lst.pop() if lst else None
            if buf is None:
                self.misses += 1
            else:
                self.hits += 1
        if buf is None:
            if zero:
                return np.zeros(size, dtype=DTYPE_INFO[dtype][0]), False
            return np.empty(size, dtype=DTYPE_INFO[dtype][0]), False
        if zero:
            buf.fill(0)
        return buf, True

    def release(self, buf: np.ndarray) -> None:
        key = (buf.dtype.str, buf.size)
        with self._lock:
            self._free.setdefault(key, []).append(buf)

    # ------------------------------------------------------------------
    # Allocation-plan materialization
    # ------------------------------------------------------------------
    def note_plan(self, shape_key: str, manifest) -> None:
        """Record a shape class's allocation plan (first run only)."""
        with self._lock:
            if shape_key not in self._plans:
                self._plans[shape_key] = PlanEntry(tuple(manifest))

    def plan(self, shape_key: str):
        return self._plans.get(shape_key)

    def drop_plan(self, shape_key: str) -> None:
        """Forget a shape class: its plan, and every idle buffer whose
        ``(dtype, size)`` no retained plan draws (exact-size free lists
        mean no later request of a retained class can match it)."""
        with self._lock:
            if self._plans.pop(shape_key, None) is None:
                return
            keep = {
                key for entry in self._plans.values() for key in entry.manifest
            }
            for key in [k for k in self._free if k not in keep]:
                del self._free[key]

    def reserve(self, shape_key: str, copies: int) -> int:
        """Pre-allocate up to ``copies`` leases' worth of the plan.

        Returns the number of buffers newly allocated.  Idempotent per
        ``copies`` level: reserving for 4 workers after reserving for 2
        only adds the difference.
        """
        entry = self._plans.get(shape_key)
        if entry is None or copies <= entry.reserved_copies:
            return 0
        need: Dict[PoolKey, int] = {}
        for dt_str, size in entry.manifest:
            key = (np.dtype(dt_str).str, size)
            need[key] = need.get(key, 0) + 1
        created = 0
        with self._lock:
            for key, per_lease in need.items():
                lst = self._free.setdefault(key, [])
                target = per_lease * copies
                np_dtype, size = np.dtype(key[0]), key[1]
                while len(lst) < target:
                    lst.append(np.zeros(size, dtype=np_dtype))
                    created += 1
            entry.reserved_copies = copies
        return created

    # ------------------------------------------------------------------
    def lease(self) -> "PoolLease":
        return PoolLease(self)

    def free_buffers(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._free.values())

    def free_bytes(self) -> int:
        with self._lock:
            return sum(b.nbytes for v in self._free.values() for b in v)

    def poison(self) -> None:
        """Overwrite every *idle* buffer with NaN / all-ones (test hook: a
        dirty pool must still serve bit-identical results, because
        acquisition zeros)."""
        with self._lock:
            for lst in self._free.values():
                for buf in lst:
                    if buf.dtype.kind == "f":
                        buf.fill(np.nan)
                    elif buf.dtype.kind == "b":
                        buf.fill(True)
                    else:
                        buf.fill(np.iinfo(buf.dtype).max)


@dataclass
class PoolLease:
    """One run's private claim on pool buffers (returned on close)."""

    pool: BufferPool
    _held: List[np.ndarray] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    closed: bool = False

    def acquire(
        self, size: int, dtype: str, zero: bool = True
    ) -> Tuple[np.ndarray, bool]:
        assert not self.closed, "lease already closed"
        buf, reused = self.pool.acquire(size, dtype, zero=zero)
        self._held.append(buf)
        if reused:
            self.hits += 1
        else:
            self.misses += 1
        return buf, reused

    def manifest(self):
        """(dtype-agnostic) what this lease drew, as (np dtype str, size)."""
        return tuple((b.dtype.str, b.size) for b in self._held)

    def buffers(self) -> Tuple[np.ndarray, ...]:
        """The buffers this lease holds, in acquisition order."""
        return tuple(self._held)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for buf in self._held:
            self.pool.release(buf)
        self._held.clear()

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
