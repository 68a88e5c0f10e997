"""The concurrency driver and its thread-safety contract."""

import importlib
import threading

import numpy as np

import repro.runtime as rt
from repro.runtime.serve import (
    _run_uncached,
    check_pooled_identical,
    serve_program,
)


def bench(name):
    mod = importlib.import_module(f"repro.bench.programs.{name}")
    return mod, mod.inputs_for(*mod.TEST_DATASETS["small"])


class TestServeProgram:
    def test_metrics_shape(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        out = serve_program(program, inputs, requests=10, workers=2)
        assert out["requests"] == 10 and out["workers"] == 2
        assert not {"wall_s", "throughput_rps", "p50_ms"} & set(out)
        assert 0.0 <= out["pool_hit_rate"] <= 1.0
        assert out["memo_hits"] + 1 >= out["requests"] - out["workers"]

    def test_single_flight_coalesces_the_cold_herd(self):
        """With an empty memo, concurrent identical requests share one
        production run instead of each paying for its own."""
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        serve_program(program, inputs, requests=12, workers=4)
        # reserve() produced once; every served request was recalled.
        assert program.memo_hits == 12

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
        ref_outs, ref_stats = _run_uncached(program.fun, inputs)
        program.reserve(inputs, workers=2)

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
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures

    def test_concurrent_leases_get_disjoint_buffers(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        program.reserve(inputs, workers=2)
        l1, l2 = program.pool.lease(), program.pool.lease()
        a, _ = l1.acquire(8, "f32")
        b, _ = l2.acquire(8, "f32")
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
        assert program.pool.hits > 0

    def test_check_pooled_identical_bypasses_the_memo(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        program.run(inputs)  # populate the memo
        res = check_pooled_identical(program, inputs)
        assert res["ok"]
        assert program.memo_hits == 0
