"""Pooled flat buffers: reuse the allocation plan across executions.

Every ``MemExecutor.run`` of a compiled program allocates the same
sequence of flat buffers (the coalesced allocation plan computed by
:mod:`repro.reuse` is a static property of the IR), yet the executor
historically paid a fresh ``np.zeros`` for each of them on every call.
For a compile-once, serve-many workload that per-call allocation cost --
page faults included -- dominates small-program latency.

:class:`BufferPool` keeps returned buffers on free lists keyed by exact
``(numpy dtype, element count)`` so a pooled buffer is byte-for-byte the
same shape the executor would have allocated.  Reused buffers are
**zero-filled on acquisition** (not on release), matching the
deterministic all-zeros contents of a fresh ``np.zeros`` -- the
semantics ``Scratch`` relies on -- so even a pool whose idle buffers
were poisoned between requests hands out pristine memory.

Each shape class of a :class:`~repro.runtime.Program` owns one pool
(shared only with classes apart in floating-point scalars alone): its
draw is a static property of the memory IR at that shape, so the pool
lives and dies with the class.

Concurrency follows a *leasing* rule: the pool itself is lock-protected
and shared by every request of its shape class, while each execution
draws its buffers through a private :class:`PoolLease`.  A leased buffer
belongs to exactly one run until the run hands it back --
:meth:`PoolLease.release`, where the memory IR ends its block's
lifetime (``Let.mem_frees``, a host loop's iteration end, a kernel's
end), so a request holds only what its schedule has live -- or the
lease closes (normally via ``with``) and returns the rest.  Two workers
serving the same class concurrently never share mutable executor state.
The lease is the one counter of pool hits and misses: a run or a replay
copies them into ``ExecStats.pool_hits``/``pool_misses`` when it ends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.ir.types import DTYPE_INFO

#: Free-list key: (canonical numpy dtype string, element count).
PoolKey = Tuple[str, int]


class BufferPool:
    """Shared, thread-safe free lists of exact-size flat buffers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[PoolKey, List[np.ndarray]] = {}

    def acquire(
        self, size: int, dtype: str, zero: bool = True
    ) -> Tuple[np.ndarray, bool]:
        """A buffer of exactly ``size`` elements of ``dtype``.

        Returns ``(buffer, reused)``.  A reused buffer is zero-filled
        here (when ``zero``) so its contents are indistinguishable from
        a fresh ``np.zeros``; callers that overwrite the whole buffer
        anyway (input binding) pass ``zero=False``.
        """
        np_dtype = np.dtype(DTYPE_INFO[dtype][0])
        with self._lock:
            lst = self._free.get((np_dtype.str, size))
            buf = lst.pop() if lst else None
        if buf is None:
            fresh = np.zeros if zero else np.empty
            return fresh(size, dtype=np_dtype), False
        if zero:
            buf.fill(0)
        return buf, True

    def release(self, buf: np.ndarray) -> None:
        key = (buf.dtype.str, buf.size)
        with self._lock:
            self._free.setdefault(key, []).append(buf)

    def lease(self) -> "PoolLease":
        return PoolLease(self)


@dataclass
class PoolLease:
    """One run's private claim on pool buffers (returned on close), and
    the count of its acquisitions the pool served (``hits``) or newly
    allocated (``misses``)."""

    pool: BufferPool
    #: id -> buffer, for every buffer handed out and not yet returned.
    _held: Dict[int, np.ndarray] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    closed: bool = False

    def acquire(
        self, size: int, dtype: str, zero: bool = True
    ) -> Tuple[np.ndarray, bool]:
        assert not self.closed, "lease already closed"
        buf, reused = self.pool.acquire(size, dtype, zero=zero)
        self._held[id(buf)] = buf
        if reused:
            self.hits += 1
        else:
            self.misses += 1
        return buf, reused

    def release(self, buf: np.ndarray) -> None:
        """Hand ``buf`` back before the lease closes: its block is dead.
        A buffer this lease did not hand out (a kernel tier's own
        scratch) is left alone."""
        if self._held.pop(id(buf), None) is not None:
            self.pool.release(buf)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for buf in self._held.values():
            self.pool.release(buf)
        self._held.clear()

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
