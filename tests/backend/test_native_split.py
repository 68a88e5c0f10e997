"""Split launches: a native launch cut into contiguous thread ranges
must be observably the same launch.

``engine.SPLIT_BYTES = 0`` splits every launch of width >= 2 -- a
statement's first launch included -- across a helper pool that believes
the box has four cores (three helpers, so up to four parts whatever the
box has).  Outputs, ``signature()``, ``traffic_signature()``,
``peak_bytes`` and every launch's counter block must equal an unsplit
run's and the vectorized tier's, and a tape captured and replayed in
parts must equal the executor.  Then the failure paths: a part that
raises, two programs on two threads, a box with one core.
"""

import importlib
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.backend.engine as engine
import repro.runtime as rt
from repro.backend import NativeEngine
from repro.backend.cemit import KernelSpec
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.pipeline.presets import PRESETS
from tests.backend.test_native_corpus import SEEDS, _inputs
from tests.mem import traffic_signature
from tests.mem.test_vectorize import LOWERING_CASES, strided_fill_case
from tests.opt.conftest import (
    random_mapnest_pipeline,
    random_two_stage_pipeline,
)
from tests.runtime import executor_run, idle_buffers, shape_class
from tests.runtime.test_tape import Boom, same_run, seeded, warm

pytestmark = [pytest.mark.gate, pytest.mark.native]

BENCHMARKS = all_benchmarks()
#: Helper threads of the forced pool: at most four parts a launch.
HELPERS = 3
FORCED, NEVER = 0, 1 << 62


def module(name):
    return importlib.import_module(f"repro.bench.programs.{name}")


def _part_threads():
    return {t for t in threading.enumerate() if t.name == "repro-launch-part"}


@pytest.fixture(scope="module")
def four_cores():
    """One pool of three started helpers, shared by the module's tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                   raising=False)
        pool = engine._Helpers()
        pool.release(pool.claim(HELPERS))  # starts them
    return pool


@pytest.fixture
def split(four_cores, monkeypatch):
    """Every launch of width >= 2 splits, across the module's pool."""
    monkeypatch.setattr(engine, "_HELPERS", four_cores)
    monkeypatch.setattr(engine, "SPLIT_BYTES", FORCED)
    return four_cores


def _run(fun, inputs, **kw):
    ex = MemExecutor(fun, **kw)
    vals, stats = ex.run(**{
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()
    })
    return [rt.materialize(ex, v) for v in vals], stats


def _native_run(fun, inputs, split_bytes, monkeypatch):
    """Outputs, stats, every launch's counter block, and the most parts
    any kernel ran in (0: no kernel)."""
    blocks = []
    fold = engine.distribute

    def keep(stats, sites, counters):
        blocks.append(counters.tobytes())
        fold(stats, sites, counters)

    with monkeypatch.context() as mp:
        mp.setattr(engine, "SPLIT_BYTES", split_bytes)
        mp.setattr(engine, "distribute", keep)
        eng = NativeEngine()
        outs, stats = _run(fun, inputs, native=eng)
    assert stats.native_launches == len(blocks)
    parts = max(
        (s.parts for s in eng.plans.values() if isinstance(s, KernelSpec)),
        default=0,
    )
    return outs, stats, blocks, parts


def _same(a, b):
    (outs_a, st_a), (outs_b, st_b) = a, b
    assert len(outs_a) == len(outs_b)
    for x, y in zip(outs_a, outs_b):
        assert np.array_equal(x, y)
        assert np.asarray(x).dtype == np.asarray(y).dtype
    assert st_a.signature() == st_b.signature()
    assert traffic_signature(st_a) == traffic_signature(st_b)
    assert st_a.peak_bytes == st_b.peak_bytes


def _split_agrees(fun, inputs, monkeypatch):
    """The forced-split native run against an unsplit one (counter
    blocks included) and the vectorized tier; the most parts any kernel
    ran in."""
    outs, st, blocks, parts = _native_run(fun, inputs, FORCED, monkeypatch)
    outs1, st1, blocks1, parts1 = _native_run(fun, inputs, NEVER, monkeypatch)
    assert blocks == blocks1
    assert parts1 == min(parts, 1)
    _same((outs, st), (outs1, st1))
    _same((outs, st), _run(fun, inputs))
    return parts


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", list(PRESETS))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_benchmark_launches_agree_split_and_unsplit(
    name, preset, split, monkeypatch
):
    mod = BENCHMARKS[name]
    inputs = mod.inputs_for(*mod.TEST_DATASETS["small"])
    fun = compile_fun(mod.build(), pipeline=preset).fun
    parts = _split_agrees(fun, inputs, monkeypatch)
    assert parts >= 2 or name == "locvolcalib"  # its one map is not lowered

    # A tape captured and replayed with every launch in parts.
    program = rt.compile(mod.build(), pipeline=preset, memoize=False)
    reference = executor_run(program, inputs)
    captured = program.run(inputs)
    same_run(reference, captured)
    other = seeded(inputs, 1)
    replayed = program.run(other)
    assert replayed[1].tape == (
        "replayed" if captured[1].tape == "captured" else captured[1].tape
    )
    same_run(executor_run(program, other), replayed)


def test_corpus_launches_agree_split_and_unsplit(split, monkeypatch):
    """The native corpus: 30 two-stage pipelines at n = 33 and the
    hand-built lowering cases."""
    for seed in SEEDS:
        fun = compile_fun(
            random_two_stage_pipeline(np.random.RandomState(seed)),
            pipeline="full",
        ).fun
        _split_agrees(fun, _inputs(seed), monkeypatch)
    for case in LOWERING_CASES:
        fun, inputs = case()
        for preset in ("unopt", "full"):
            _split_agrees(
                compile_fun(fun, pipeline=preset).fun, inputs, monkeypatch
            )


@pytest.mark.parametrize(
    "gen, shape",
    [(random_two_stage_pipeline, 1), (random_mapnest_pipeline, 2)],
    ids=["two-stage", "mapnest"],
)
def test_fusion_fuzz_corpora_agree_split_and_unsplit(
    gen, shape, split, monkeypatch
):
    """Both fusion fuzz corpora as ``tests/opt/test_fuse.py`` draws
    them: n = 11 (a prime), fused and unfused."""
    n, seen = 11, set()
    for seed in range(30):
        rng = np.random.RandomState(seed)
        fun = gen(rng)
        inputs = {"n": n, "xs": rng.randn(n ** shape).astype(np.float32)}
        for preset in ("full", "nofuse"):
            seen.add(_split_agrees(
                compile_fun(fun, pipeline=preset).fun, inputs, monkeypatch
            ))
    # 0: a program whose kernels the emitter declines (mixed min/max).
    assert seen <= {0, HELPERS + 1} and HELPERS + 1 in seen


@pytest.mark.parametrize("width", [2, 3, 37])
def test_each_part_owns_its_threads_allocation_slots(
    width, split, monkeypatch
):
    """Every thread allocates two private arrays: a part indexes the
    launch's allocation slots by ``t`` like the whole launch does."""
    fun, _ = strided_fill_case()
    inputs = {"n": width, "x": np.arange(1, width + 1, dtype=np.float32)}
    allocating = 0
    for preset in ("unopt", "full"):
        compiled = compile_fun(fun, pipeline=preset).fun
        eng = NativeEngine()
        _run(compiled, inputs, native=eng)
        (spec,) = eng.plans.values()
        allocating += bool(spec.alloc_sites)
        assert _split_agrees(compiled, inputs, monkeypatch) == min(
            width, HELPERS + 1
        )
    assert allocating


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["capture", "replay"])
@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_raising_part_surfaces_after_every_part_returned(
    where, phase, split, monkeypatch
):
    mod = module("lud")
    program = rt.compile(mod.build(), memoize=False)
    x = mod.inputs_for(6, 8)
    reference = executor_run(program, x)
    warm(program, x, phase)
    pool = shape_class(program, x).pool
    clean = len(idle_buffers(pool))
    helpers = _part_threads()
    raised = []
    with monkeypatch.context() as mp:
        for spec in program._native_engine.plans.values():
            def fn(t0, w, *args, _fn=spec.fn):
                # The caller runs the part that starts at 0, while the
                # helpers are out of the pool.
                in_parts = t0 > 0 or len(split._idle) < HELPERS
                mine = t0 > 0 if where == "helper" else t0 == 0
                if in_parts and mine and not raised:
                    raised.append(threading.current_thread())
                    raise Boom(f"part [{t0}, {w})")
                return _fn(t0, w, *args)

            mp.setattr(spec, "fn", fn)
        with pytest.raises(Boom):
            program.run(x)
    on_helper = raised[0].name == "repro-launch-part"
    assert on_helper == (where == "helper")
    assert helpers <= _part_threads()
    assert all(t.is_alive() for t in helpers)
    assert len(split._idle) == HELPERS  # every helper back in the pool
    assert len(idle_buffers(pool)) == clean
    run = program.run(x)
    assert run[1].tape == "captured"
    same_run(reference, run)
    same_run(reference, program.run(x))


def test_two_programs_on_two_threads(split):
    mod = module("hotspot")
    x = mod.inputs_for(48, 4)
    programs = [rt.compile(mod.build(), memoize=False) for _ in range(2)]
    want = executor_run(programs[0], x)
    failures = []

    def client(program):
        try:
            for _ in range(20):
                same_run(want, program.run(x))
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=client, args=(p,)) for p in programs
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures
    assert len(split._idle) == HELPERS


def test_helpers_are_offered_only_while_no_other_request_executes(split):
    with engine.executing():
        taken = split.claim(HELPERS)
        assert len(taken) == HELPERS
        split.release(taken)
        with engine.executing():
            assert split.claim(HELPERS) == []
    assert len(split._idle) == HELPERS


def test_one_core_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    pool = engine._Helpers()
    monkeypatch.setattr(engine, "_HELPERS", pool)
    before = set(threading.enumerate())
    mod = module("hotspot")
    fun = compile_fun(mod.build()).fun
    inputs = mod.inputs_for(*mod.TEST_DATASETS["small"])
    outs, st, _, parts = _native_run(fun, inputs, FORCED, monkeypatch)
    assert parts == 1
    assert set(threading.enumerate()) == before and pool._idle == []
    _same((outs, st), _run(fun, inputs))


def test_a_forked_child_starts_its_own_helpers(split, monkeypatch):
    """A child forked after the helpers started has their objects but
    none of their threads: the at-fork handler gives it a fresh pool, so
    its split launches start helpers of their own instead of waiting
    forever on threads that do not exist."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    mod = module("hotspot")
    fun = compile_fun(mod.build()).fun
    inputs = mod.inputs_for(*mod.TEST_DATASETS["small"])
    want = _run(fun, inputs)
    assert _native_run(fun, inputs, FORCED, monkeypatch)[3] >= 2
    with warnings.catch_warnings():
        # 3.12+: forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            outs, st, _, parts = _native_run(fun, inputs, FORCED, monkeypatch)
            _same((outs, st), want)
            code = 0 if parts >= 2 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in a split launch")
    assert os.waitstatus_to_exitcode(status) == 0


# ----------------------------------------------------------------------
# What coverage() says, at the real threshold
# ----------------------------------------------------------------------
def test_coverage_reports_the_parts_a_map_ran_in():
    for name, args in (("nw", (32, 16)), ("lud", (16, 8)), ("lbm", (128, 10))):
        program = rt.compile(module(name).build(), memoize=False)
        x = module(name).inputs_for(*args)
        for _ in range(2):  # the first launch measures its bytes
            program.run(x)
        parts = {m["parts"] for m in program.coverage()["maps"].values()}
        if name != "lbm":  # wavefront's ring: nothing reaches 2 MiB
            assert parts == {1}
        elif engine._cores() >= 2:
            assert min(parts) >= 2
