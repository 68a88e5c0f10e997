"""Program differentials: pooled serving must be invisible to the cost
model -- bit-identical outputs, signatures, and footprints versus a
fresh per-call executor, on every benchmark, under both executor tiers.
"""

import importlib

import numpy as np
import pytest

import repro.runtime as rt
from repro.mem.exec import MemExecutor
from tests.runtime import poison
from tests.runtime.test_serve import _run_uncached

BENCHMARKS = ["nw", "lud", "hotspot", "lbm", "optionpricing", "locvolcalib", "nn"]


def bench(name):
    mod = importlib.import_module(f"repro.bench.programs.{name}")
    return mod, mod.inputs_for(*mod.TEST_DATASETS["small"])


class TestPooledDifferential:
    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("vectorize", [False, True],
                             ids=["interp", "vec"])
    def test_pooled_matches_fresh(self, name, vectorize):
        mod, inputs = bench(name)
        program = rt.compile(mod.build(), pipeline="full")
        ref_outs, ref_stats = _run_uncached(
            program.fun, inputs, vectorize=vectorize
        )
        for _ in range(2):  # second round runs against a warm pool
            outs, stats = program.run(
                inputs, vectorize=vectorize, memoize=False
            )
            for a, b in zip(ref_outs, outs):
                assert np.array_equal(np.asarray(a), np.asarray(b))
            assert stats.signature() == ref_stats.signature()
            assert stats.traffic_signature() == ref_stats.traffic_signature()
            assert stats.peak_bytes == ref_stats.peak_bytes

    @pytest.mark.parametrize("name", ["nw", "lud"])
    def test_unopt_pipeline_also_agrees(self, name):
        mod, inputs = bench(name)
        program = rt.compile(mod.build(), pipeline="unopt")
        ref_outs, ref_stats = _run_uncached(program.fun, inputs)
        outs, stats = program.run(inputs, memoize=False)
        for a, b in zip(ref_outs, outs):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert stats.signature() == ref_stats.signature()

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_nan_poisoned_pool_still_agrees(self, name):
        """Zero-fill-on-acquire: even a pool whose idle buffers were
        filled with NaN between requests serves bit-identical results."""
        mod, inputs = bench(name)
        program = rt.compile(mod.build(), pipeline="full")
        first, _ = program.run(inputs, memoize=False)
        poison(program.pool)
        second, _ = program.run(inputs, memoize=False)
        for a, b in zip(first, second):
            assert np.array_equal(np.asarray(a), np.asarray(b))


class TestPoolIntegration:
    def test_second_run_hits_the_pool(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        _, st1 = program.run(inputs, memoize=False)
        assert st1.pool_misses > 0 and st1.pool_hits == 0
        _, st2 = program.run(inputs, memoize=False)
        assert st2.pool_hits > 0 and st2.pool_misses == 0
        assert st2.pool_hit_rate == 1.0

    def test_outputs_do_not_alias_pool_memory(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        outs1, _ = program.run(inputs, memoize=False)
        snap = [np.asarray(o).copy() for o in outs1]
        program.run(inputs, memoize=False)  # reuses the same buffers
        for o, s in zip(outs1, snap):
            assert np.array_equal(np.asarray(o), s)

    def test_a_run_is_not_timed(self):
        """perfbench is the only clock: a response carries the pool
        counters and no stopwatch fields."""
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        _, stats = program.run(inputs)
        assert stats.pool_hits + stats.pool_misses > 0
        assert not {"warm_call_seconds", "cold_compile_seconds"} & set(
            vars(stats)
        )


class TestResponseMemo:
    def test_repeat_request_is_recalled(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        outs1, st1 = program.run(inputs)
        outs2, st2 = program.run(inputs)
        assert program.memo_hits == 1
        for a, b in zip(outs1, outs2):
            assert np.array_equal(np.asarray(a), np.asarray(b))
            if isinstance(a, np.ndarray):
                assert a is not b  # fresh copy, caller-owned
        assert st2.signature() == st1.signature()
        assert st2.pool_hits == 0 and st2.pool_misses == 0

    def test_recalled_response_is_mutation_safe(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        outs1, _ = program.run(inputs)
        np.asarray(outs1[0]).fill(-1)
        outs2, _ = program.run(inputs)
        assert not np.array_equal(np.asarray(outs1[0]), np.asarray(outs2[0]))

    def test_different_inputs_are_distinct_requests(self):
        mod, _ = bench("hotspot")
        program = rt.compile(mod.build())
        a = mod.inputs_for(*mod.TEST_DATASETS["small"])
        program.run(a)
        b = {
            k: (v * 2 if isinstance(v, np.ndarray) else v)
            for k, v in a.items()
        }
        outs_b, _ = program.run(b)
        assert program.memo_hits == 0
        ref_b, _ = _run_uncached(program.fun, b)
        for x, y in zip(ref_b, outs_b):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_memoize_false_forces_execution(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        program.run(inputs)
        _, st = program.run(inputs, memoize=False)
        assert program.memo_hits == 0
        assert st.pool_hits + st.pool_misses > 0


class TestProgramHandle:
    def test_program_wraps_the_cached_compilation(self):
        mod, _ = bench("hotspot")
        from repro.compiler import compile_fun

        seeded = compile_fun(mod.build())  # seed the cache
        program = rt.compile(mod.build())
        assert program.compiled is seeded
        with pytest.raises(TypeError, match="cache_state"):
            rt.Program(seeded, cache_state="memory")

    def test_executor_reuses_shared_offset_cache(self):
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        # The interpreted tier: compiled and batched launches address
        # buffers through LMADs and contiguous outputs are sliced, so
        # such a hotspot run enumerates no offsets at all.
        program.run(inputs, memoize=False, vectorize=False)
        assert len(program._offs_cache) > 0
        before = len(program._offs_cache)
        program.run(inputs, memoize=False, vectorize=False)
        assert len(program._offs_cache) == before

    def test_fresh_executor_still_works_without_pool(self):
        """compile() must not change plain MemExecutor usage."""
        mod, inputs = bench("hotspot")
        program = rt.compile(mod.build())
        ex = MemExecutor(program.fun)
        vals, stats = ex.run(**dict(inputs))
        assert vals and stats.pool_hits == 0 and stats.pool_misses == 0


class TestPremises:
    """``Fun.assumptions`` seed every proof the passes made; a request
    they do not hold for is refused at the door, not served."""

    @pytest.mark.parametrize("name,bad,detail", [
        ("hotspot", (2, 1), "n >= 4 at n = 2"),
        ("nw", (1, 4), "q >= 2 at q = 1"),
        ("lud", (3, 1), "b >= 2 at b = 1"),
    ])
    def test_violating_request_is_refused_and_leaves_nothing(
        self, name, bad, detail
    ):
        from repro.decisions import Declined

        mod, good = bench(name)
        program = rt.compile(mod.build(), memoize=False)
        inputs = mod.inputs_for(*bad)
        skey = program.shape_key(inputs)
        for _ in range(2):  # the class remembers
            with pytest.raises(Declined, match="premise-violated") as why:
                program.run(inputs)
            assert why.value.detail == detail
        (cls,) = program.coverage()["classes"].values()
        assert cls["state"] == "off" and cls["launches"] == 0
        assert str(cls["declined"]) == f"admit premise-violated @ {skey} ({detail})"
        assert program.declined.records == [cls["declined"]]
        assert program.declined.repeats == 0  # decided once, not per request
        assert program._classes[skey].tape is None
        assert program.pool.plan(skey) is None
        # Another class is served as if nothing had happened.
        ref_outs, ref_stats = _run_uncached(program.fun, good)
        outs, stats = program.run(good)
        for a, b in zip(ref_outs, outs):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert stats.signature() == ref_stats.signature()
        assert program.pool.plan(program.shape_key(good)) is not None
        with pytest.raises(Declined, match=detail):
            MemExecutor(program.fun).run(**inputs)
