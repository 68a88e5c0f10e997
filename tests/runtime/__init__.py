"""Test helpers over a :class:`~repro.runtime.BufferPool` and a
:class:`~repro.runtime.Program`."""

import numpy as np

from repro.backend import maybe_engine
from repro.mem.exec import MemExecutor
from repro.runtime import BufferPool, materialize


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
        if buf.dtype.kind == "f":
            buf.fill(np.nan)
        elif buf.dtype.kind == "b":
            buf.fill(True)
        else:
            buf.fill(np.iinfo(buf.dtype).max)


def executor_run(program, inputs):
    """The ordinary executor's response to ``inputs``: a fresh
    :class:`MemExecutor` over the program's compiled function, with a
    pool and a native engine of its own and no tape recorder."""
    with BufferPool().lease() as lease:
        ex = MemExecutor(program.compiled.fun, pool=lease, native=maybe_engine())
        vals, stats = ex.run(**dict(inputs))
        return [materialize(ex, v) for v in vals], stats
