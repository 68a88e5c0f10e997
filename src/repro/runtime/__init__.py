"""repro.runtime: the compile-once, serve-many layer.

The compiler (:mod:`repro.compiler` / :mod:`repro.pipeline`) produces an
immutable artifact; this package makes producing it *rare* and running it
*cheap*:

* :class:`Program` (:mod:`~repro.runtime.program`) -- a compiled
  function plus its reusable runtime state: the frozen memory IR and
  the kernel plans, and per shape class a :class:`BufferPool`, the LMAD
  offset cache and the launch tape -- and :func:`materialize`, the one
  function that reads a result out of an executor;
* :class:`ProgramCache` (:mod:`~repro.runtime.cache`) -- the persistent
  compile cache (in-process LRU + opt-in disk layer) keyed by program
  hash, pipeline, symbolic-shape class, and assumptions;
* :class:`BufferPool` / :class:`PoolLease` (:mod:`~repro.runtime.pool`)
  -- exact-size pooled buffers, zero-filled on hand-out, given to the
  executor instead of per-call ``np.zeros``, with thread-safe per-run
  leases that take each buffer back where the memory IR ends its
  block's lifetime, so a request holds what its schedule has live.

Serving speed is perfbench's ``serve-mix`` workload; the thread-safety
tests serve one program from many threads in ``tests/runtime/test_serve.py``.

``repro.compiler.compile_fun`` delegates here (:func:`compile_cached`),
so every existing call site is cache-hitting without change.
"""

from repro.runtime.cache import (
    CACHE_ENV,
    CACHE_VERSION,
    COLD,
    DISK_HIT,
    MEM_HIT,
    CacheKey,
    ProgramCache,
    assumptions_fingerprint,
    cache_mode,
    make_key,
    program_cache,
    shape_class,
    source_fingerprint,
)
from repro.runtime.pool import BufferPool, PoolLease
from repro.runtime.program import (  # noqa: A004
    Program,
    compile,
    compile_cached,
    materialize,
)


def clear_caches(disk: bool = False) -> None:
    """Reset the process-wide program cache (tests lean on this: the
    autouse fixture clears the memory layer so monkeypatch-seam tests
    always observe a genuine compilation)."""
    program_cache().clear(disk=disk)


__all__ = [
    "Program",
    "compile",
    "compile_cached",
    "materialize",
    "BufferPool",
    "PoolLease",
    "ProgramCache",
    "program_cache",
    "clear_caches",
    "CacheKey",
    "make_key",
    "cache_mode",
    "source_fingerprint",
    "shape_class",
    "assumptions_fingerprint",
    "CACHE_ENV",
    "CACHE_VERSION",
    "COLD",
    "MEM_HIT",
    "DISK_HIT",
]
