"""Test helpers over a :class:`~repro.runtime.BufferPool`."""

import numpy as np


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
