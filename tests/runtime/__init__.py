"""Test helpers over a :class:`~repro.runtime.BufferPool` and a
:class:`~repro.runtime.Program`."""

import numpy as np

from repro.backend import maybe_engine
from repro.mem.exec import MemExecutor
from repro.runtime import BufferPool, PoolLease, materialize


def shape_class(program, inputs):
    """What ``program`` retains for the shape class of ``inputs``: its
    ``pool``, its offset arrays ``offs`` and its tape."""
    return program._classes[program.shape_key(inputs)]


def idle_buffers(pool):
    """Every buffer on the pool's free lists, read under its lock."""
    with pool._lock:
        return [buf for lst in pool._free.values() for buf in lst]


def poison(pool):
    """Overwrite every idle buffer with NaN / all-ones: a dirty pool must
    still serve bit-identical results, because acquisition zeros."""
    for buf in idle_buffers(pool):
        poison_buffer(buf)


def poison_buffer(buf):
    if buf.dtype.kind == "f":
        buf.fill(np.nan)
    elif buf.dtype.kind == "b":
        buf.fill(True)
    else:
        buf.fill(np.iinfo(buf.dtype).max)


class WatchedPool(BufferPool):
    """A pool that poisons every buffer it takes back, mid-request or
    at close, and whose leases (``leases``) record the most buffers and
    bytes each held at once."""

    def __init__(self):
        super().__init__()
        self.leases = []

    def release(self, buf):
        poison_buffer(buf)
        super().release(buf)

    def lease(self):
        lease = WatchedLease(self)
        self.leases.append(lease)
        return lease


class WatchedLease(PoolLease):
    most_buffers = most_bytes = 0

    def acquire(self, size, dtype, zero=True):
        got = super().acquire(size, dtype, zero)
        held = self._held.values()
        self.most_buffers = max(self.most_buffers, len(held))
        self.most_bytes = max(self.most_bytes, sum(b.nbytes for b in held))
        return got


def executor_run(program, inputs):
    """The ordinary executor's response to ``inputs``: a fresh
    :class:`MemExecutor` over the program's compiled function, with a
    pool and a native engine of its own and no tape recorder."""
    with BufferPool().lease() as lease:
        ex = MemExecutor(program.compiled.fun, pool=lease, native=maybe_engine())
        vals, stats = ex.run(**dict(inputs))
        return [materialize(ex, v) for v in vals], stats
