"""Concurrency driver and pooled-vs-fresh check for a :class:`Program`.

:func:`serve_program` pushes N identical requests through a pool of
worker threads sharing one :class:`~repro.runtime.Program`: a barrier
releases the workers together so their pool leases overlap maximally,
the first worker error is re-raised in the caller, and the pool / memo
counters of the served window are returned.  It is what the
thread-safety tests lean on; it takes no timings -- serving speed is
measured by ``python3 -m perfbench --workload serve-mix``.

:func:`check_pooled_identical` runs the pooled program and a fresh
:class:`MemExecutor` on identical inputs under both Python executor
tiers and requires bit-identical outputs and equal
``ExecStats.signature()``.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List

import numpy as np

from repro.mem.exec import MemExecutor
from repro.runtime.program import Program, materialize


def serve_program(
    program: Program,
    inputs: Dict[str, object],
    requests: int,
    workers: int = 1,
) -> Dict[str, object]:
    """Serve ``requests`` identical requests over ``workers`` threads.

    Workers share the program (and its pool) but each request runs on a
    private executor with a private pool lease; a barrier spanning all
    workers synchronizes the start so the race surface is maximal.
    """
    program.reserve(inputs, workers)
    q: "queue.Queue[int]" = queue.Queue()
    for i in range(requests):
        q.put(i)
    pool_hits = pool_misses = 0
    errors: List[BaseException] = []
    lock = threading.Lock()
    start_barrier = threading.Barrier(workers)
    memo_before = program.memo_hits

    def worker() -> None:
        nonlocal pool_hits, pool_misses
        try:
            start_barrier.wait()
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    return
                _, stats = program.run(inputs)
                with lock:
                    pool_hits += stats.pool_hits
                    pool_misses += stats.pool_misses
        except BaseException as exc:  # surfaced to the caller
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]

    acq = pool_hits + pool_misses
    memo_hits = program.memo_hits - memo_before
    return {
        "requests": requests,
        "workers": workers,
        "pool_hits": pool_hits,
        "pool_misses": pool_misses,
        "pool_hit_rate": pool_hits / acq if acq else 0.0,
        "memo_hits": memo_hits,
        "memo_hit_rate": memo_hits / requests if requests else 0.0,
    }


def _run_uncached(fun, inputs, vectorize: bool = True):
    ex = MemExecutor(fun, vectorize=vectorize)
    vals, stats = ex.run(**dict(inputs))
    outs = [np.asarray(materialize(ex, v)) for v in vals]
    return outs, stats


def check_pooled_identical(program: Program, inputs) -> Dict[str, bool]:
    """Pooled vs uncached: bit-identical outputs + signatures, both tiers.

    The pooled runs bypass the response memo (``memoize=False``): this
    check exists to pin the pooled *executor* path, not the recall path.
    """
    out: Dict[str, bool] = {}
    for vec, label in ((False, "interp"), (True, "vec")):
        ref_outs, ref_stats = _run_uncached(program.fun, inputs, vectorize=vec)
        got, stats = program.run(inputs, vectorize=vec, memoize=False)
        out[f"outputs_equal_{label}"] = all(
            np.array_equal(np.asarray(a), np.asarray(b))
            for a, b in zip(ref_outs, got)
        )
        out[f"signature_equal_{label}"] = (
            ref_stats.signature() == stats.signature()
        )
    out["ok"] = all(out.values())
    return out
