"""Concurrent serving of one :class:`~repro.runtime.Program`.

:func:`serve_program` pushes N identical requests through a pool of
worker threads sharing one program: a barrier releases the workers
together so their pool leases overlap maximally, the first worker error
is re-raised in the caller, and the pool / memo counters of the served
window are returned.  It takes no timings -- serving speed is measured
by ``python3 -m perfbench --workload serve-mix``.

:func:`check_pooled_identical` runs the pooled program and a fresh
:class:`MemExecutor` of each Python executor tier on identical inputs
and requires bit-identical outputs and equal ``ExecStats.signature()``.
"""

import importlib
import queue
import threading

import numpy as np

import repro.runtime as rt
from repro.ir.types import DTYPE_INFO
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from tests.runtime import idle_buffers, shape_class

#: numpy dtype string (of a pooled buffer) -> the IR dtype a lease takes.
IR_DTYPE = {np.dtype(info[0]).str: name for name, info in DTYPE_INFO.items()}


def bench(name):
    mod = importlib.import_module(f"repro.bench.programs.{name}")
    return mod, mod.inputs_for(*mod.TEST_DATASETS["small"])


def serve_program(program, inputs, requests, workers=1):
    """Serve ``requests`` identical requests over ``workers`` threads.

    Workers share the program (and its pool) but each request runs on a
    private executor with a private pool lease; a barrier spanning all
    workers synchronizes the start so the race surface is maximal.
    """
    q = queue.Queue()
    for i in range(requests):
        q.put(i)
    pool_hits = pool_misses = 0
    errors = []
    lock = threading.Lock()
    start_barrier = threading.Barrier(workers)
    memo_before = program.memo_hits

    def worker():
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


def provision(program, inputs, leases):
    """Warm the shape class's pool for ``leases`` concurrent runs: run
    once (the idle buffers are then exactly what one run draws), hold
    that many leases over that draw at once, then return every buffer.
    Returns the draw, as ``(numpy dtype string, size)`` pairs."""
    program.run(inputs, memoize=False)
    pool = shape_class(program, inputs).pool
    draw = [(b.dtype.str, b.size) for b in idle_buffers(pool)]
    held = [pool.lease() for _ in range(leases)]
    for lease in held:
        for dt, size in draw:
            lease.acquire(size, IR_DTYPE[dt])
    for lease in held:
        lease.close()
    return draw


def _run_uncached(fun, inputs, vectorize=True):
    ex = MemExecutor(fun, vectorize=vectorize)
    vals, stats = ex.run(**dict(inputs))
    outs = [np.asarray(materialize(ex, v)) for v in vals]
    return outs, stats


def check_pooled_identical(program, inputs):
    """Pooled vs uncached: bit-identical outputs + signatures against
    either Python tier.

    The pooled runs bypass the response memo (``memoize=False``): this
    check exists to pin the pooled *executor* path, not the recall path.
    """
    out = {}
    for vec, label in ((False, "interp"), (True, "vec")):
        ref_outs, ref_stats = _run_uncached(
            program.compiled.fun, inputs, vectorize=vec
        )
        got, stats = program.run(inputs, memoize=False)
        out[f"outputs_equal_{label}"] = all(
            np.array_equal(np.asarray(a), np.asarray(b))
            for a, b in zip(ref_outs, got)
        )
        out[f"signature_equal_{label}"] = (
            ref_stats.signature() == stats.signature()
        )
    out["ok"] = all(out.values())
    return out


class TestServeProgram:
    def test_metrics_shape(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        out = serve_program(program, inputs, requests=10, workers=2)
        assert out["requests"] == 10 and out["workers"] == 2
        assert not {"wall_s", "throughput_rps", "p50_ms"} & set(out)
        assert 0.0 <= out["pool_hit_rate"] <= 1.0
        assert out["memo_hits"] + 1 >= out["requests"] - out["workers"]

    def test_worker_errors_propagate(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        bad = dict(inputs)
        bad.pop(next(iter(bad)))
        try:
            serve_program(program, bad, requests=2, workers=1)
        except Exception:
            return
        raise AssertionError("missing-input error was swallowed")


class TestConcurrencySmoke:
    def test_barrier_synchronized_race(self):
        """Two workers drive the same Program through real (unmemoized)
        pooled executions, released by a barrier so their leases overlap
        maximally; every response must equal the single-threaded
        reference bit-for-bit, with signature-identical stats."""
        mod, inputs = bench("lbm")
        program = rt.compile(mod.build())
        ref_outs, ref_stats = _run_uncached(program.compiled.fun, inputs)
        provision(program, inputs, leases=2)

        rounds = 4
        barrier = threading.Barrier(2)
        failures = []

        def worker():
            try:
                for _ in range(rounds):
                    barrier.wait()
                    outs, stats = program.run(inputs, memoize=False)
                    for a, b in zip(ref_outs, outs):
                        assert np.array_equal(np.asarray(a), np.asarray(b))
                    assert stats.signature() == ref_stats.signature()
                    assert stats.pool_misses == 0
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_concurrent_leases_get_disjoint_buffers(self):
        """Two leases on a pool provisioned for two draw the same
        buffer size from the free list, and get different buffers."""
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        dt, size = provision(program, inputs, leases=2)[0]
        pool = shape_class(program, inputs).pool
        l1, l2 = pool.lease(), pool.lease()
        a, a_reused = l1.acquire(size, IR_DTYPE[dt])
        b, b_reused = l2.acquire(size, IR_DTYPE[dt])
        assert a_reused and b_reused
        assert a is not b
        l1.close()
        l2.close()


class TestMeasureServe:
    def test_small_end_to_end(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        out = check_pooled_identical(program, inputs)
        assert out["ok"]
        assert out["outputs_equal_interp"] and out["outputs_equal_vec"]
        assert out["signature_equal_interp"] and out["signature_equal_vec"]
        serve_program(program, inputs, requests=8, workers=2)
        _, stats = program.run(inputs, memoize=False)
        assert stats.pool_hits > 0 and stats.pool_misses == 0

    def test_check_pooled_identical_bypasses_the_memo(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        program.run(inputs)  # populate the memo
        res = check_pooled_identical(program, inputs)
        assert res["ok"]
        assert program.memo_hits == 0
