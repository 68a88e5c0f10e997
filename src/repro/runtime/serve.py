"""The serving harness: drive N requests through a :class:`Program`.

``python -m repro.serve`` is the "heavy production traffic" shape of the
ROADMAP made measurable: a worker pool of threads drains a request queue
against one shared :class:`~repro.runtime.Program`, and the harness
reports

* **throughput** (requests/second over the measured window),
* **latency** (p50 / p99 over per-request wall clocks),
* **warm-vs-cold amortization** -- mean warm call vs mean cold
  ``compile_fun`` + run (cache bypassed), both per call and extrapolated
  to 100 calls (the regression gate requires the warm 100 to finish in
  under 25% of the cold 100),
* **pool hit rate** -- the fraction of buffer acquisitions the
  :class:`~repro.runtime.pool.BufferPool` served from its free lists
  (counted over the runs that actually executed),
* **memo hit rate** -- the fraction of requests recalled from the
  program's response memo (sound for a pure language; see
  :class:`~repro.runtime.Program`),
* **tape** -- per shape class, whether the executed requests replayed a
  launch tape (:mod:`repro.runtime.tape`) or why they could not.

Correctness rides along: before measuring, the harness runs the pooled
program and a fresh uncached ``compile_fun`` + :class:`MemExecutor` on
identical inputs under *both* executor tiers and requires bit-identical
outputs and equal ``ExecStats.signature()``.  A serving stack that is
fast but wrong exits nonzero.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compiler import _compile_uncached
from repro.mem.exec import MemExecutor
from repro.runtime.program import Program, compile as compile_program


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[idx]


def serve_program(
    program: Program,
    inputs: Dict[str, object],
    requests: int,
    workers: int = 1,
    barrier: Optional[threading.Barrier] = None,
) -> Dict[str, object]:
    """Serve ``requests`` identical requests over ``workers`` threads.

    Returns the measured section: throughput, p50/p99 latency, pool
    counters.  Workers share the program (and its pool) but each request
    runs on a private executor with a private pool lease; ``barrier``
    (defaulting to one spanning all workers) synchronizes the start so
    the race surface is maximal, which doubles as the thread-safety
    smoke the test suite leans on.
    """
    program.reserve(inputs, workers)
    q: "queue.Queue[int]" = queue.Queue()
    for i in range(requests):
        q.put(i)
    latencies: List[float] = []
    pool_hits = [0]
    pool_misses = [0]
    errors: List[BaseException] = []
    lock = threading.Lock()
    start_barrier = barrier or threading.Barrier(workers)
    memo_before = program.memo_hits

    def worker() -> None:
        try:
            start_barrier.wait()
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                _, stats = program.run(inputs)
                dt = time.perf_counter() - t0
                with lock:
                    latencies.append(dt)
                    pool_hits[0] += stats.pool_hits
                    pool_misses[0] += stats.pool_misses
        except BaseException as exc:  # surfaced to the caller
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if errors:
        raise errors[0]

    lat = sorted(latencies)
    acq = pool_hits[0] + pool_misses[0]
    memo_hits = program.memo_hits - memo_before
    return {
        "requests": requests,
        "workers": workers,
        "wall_s": wall,
        "throughput_rps": requests / wall if wall > 0 else float("inf"),
        "p50_ms": _percentile(lat, 0.50) * 1e3,
        "p99_ms": _percentile(lat, 0.99) * 1e3,
        "mean_ms": (sum(lat) / len(lat)) * 1e3 if lat else 0.0,
        "pool_hits": pool_hits[0],
        "pool_misses": pool_misses[0],
        "pool_hit_rate": pool_hits[0] / acq if acq else 0.0,
        "memo_hits": memo_hits,
        "memo_hit_rate": memo_hits / requests if requests else 0.0,
    }


def _run_uncached(fun, inputs, vectorize: bool = True):
    ex = MemExecutor(fun, vectorize=vectorize)
    vals, stats = ex.run(**dict(inputs))
    outs = [np.asarray(Program._materialize(ex, v)) for v in vals]
    return outs, stats


def check_pooled_identical(program: Program, inputs, compiled=None) -> Dict[str, bool]:
    """Pooled vs uncached: bit-identical outputs + signatures, both tiers.

    The pooled runs bypass the response memo (``memoize=False``): this
    check exists to pin the pooled *executor* path, not the recall path.
    """
    fun = compiled.fun if compiled is not None else program.fun
    out: Dict[str, bool] = {}
    for vec, label in ((False, "interp"), (True, "vec")):
        ref_outs, ref_stats = _run_uncached(fun, inputs, vectorize=vec)
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


def measure_serve(
    module,
    args: Sequence,
    requests: int = 100,
    workers: int = 4,
    cold_samples: int = 3,
    pipeline: str = "full",
) -> Dict[str, object]:
    """The full serve measurement for one benchmark module.

    Cold calls recompile from scratch (cache bypassed) and run on a
    fresh, unpooled executor -- exactly what every request paid before
    :mod:`repro.runtime` existed.  Warm calls go through a single
    :class:`Program`.  ``warm_100_s`` / ``cold_100_s`` extrapolate the
    measured means to the acceptance criterion's 100-call windows.
    """
    from repro.runtime.program import _resolve_flags

    fun = module.build()
    inputs = module.inputs_for(*args)
    sc, fu, re_, label = _resolve_flags(pipeline, True, True, True)

    cold_times: List[float] = []
    for _ in range(max(1, cold_samples)):
        t0 = time.perf_counter()
        compiled = _compile_uncached(
            fun, short_circuit=sc, enable_splitting=True, typecheck=True,
            verify=False, fuse=fu, reuse=re_, label=label,
        )
        ex = MemExecutor(compiled.fun)
        ex.run(**dict(inputs))
        cold_times.append(time.perf_counter() - t0)
    cold_mean = sum(cold_times) / len(cold_times)

    t0 = time.perf_counter()
    program = compile_program(fun, pipeline=pipeline)
    compile_wall = time.perf_counter() - t0

    identical = check_pooled_identical(program, inputs)
    served = serve_program(program, inputs, requests=requests, workers=workers)

    warm_mean = served["mean_ms"] / 1e3
    ratio = warm_mean / cold_mean if cold_mean > 0 else 0.0
    # The in-window counters are mostly memo recalls; the pool's own
    # cumulative tally (correctness checks + production runs) is the
    # meaningful hit rate, and what the regression gate tracks.
    acq = program.pool.hits + program.pool.misses
    return {
        "dataset": list(args),
        "pipeline": label,
        "cache_state": program.cache_state,
        "compile_wall_s": compile_wall,
        "cold_samples": len(cold_times),
        "cold_call_s": cold_mean,
        "warm_call_s": warm_mean,
        "cold_100_s": cold_mean * 100,
        "warm_100_s": warm_mean * 100,
        "warm_cold_ratio": ratio,
        "cold_compile_seconds": program.cold_compile_seconds,
        **served,
        **identical,
        "pool_hits_total": program.pool.hits,
        "pool_misses_total": program.pool.misses,
        "pool_hit_rate": program.pool.hits / acq if acq else 0.0,
        "tape": program.tape_report(),
    }
