"""Launch tapes: a replay must be observably the same program.

The ordinary executor -- a fresh ``MemExecutor`` with no tape recorder
(:func:`tests.runtime.executor_run`) -- is the reference; the capturing
run and every replay -- on *different* inputs of the same shape class
-- must produce equal outputs and equal simulated statistics, including
the counters C code accumulates from the data.
"""

import importlib
import pickle
import sys
import threading

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.engine import NativeEngine
from repro.decisions import Decision, Declined
from repro.ir.builder import FunBuilder
from repro.ir.types import ArrayType
from repro.lmad import IndexFn
from repro.mem.exec import MemExecutor, RuntimeArray
from repro.runtime import Program
from repro.runtime.tape import _COPY, _LAUNCH, read_region, region_plan
from tests.mem import traffic_signature
from tests.runtime import executor_run, idle_buffers, poison

TAPED = {
    "nw": [(4, 8), (6, 16)],
    "lud": [(3, 4), (6, 8)],
    "hotspot": [(16, 3), (48, 4)],
    "lbm": [(8, 3), (16, 4)],
}
EXP = "exp is not bit-stable across libm/NumPy"
#: name -> (dataset, the record that turns the tape off, every record
#: ``coverage()["maps"]`` holds: which maps run below the native tier).
UNTAPED = {
    "nn": (
        (200,),
        Decision("tape", "host-data-dependent", "t_14", "host-level argmin"),
        [],
    ),
    "locvolcalib": (
        (3, 8, 3),
        Decision("native", "not-bit-exact", "t_63", "mixed-type min/max"),
        ["t_63"],
    ),
    "optionpricing": (
        (16, 8),
        Decision("native", "not-bit-exact", "t_38", EXP),
        ["t_38", "t_48"],
    ),
}


def module(name):
    return importlib.import_module(f"repro.bench.programs.{name}")


def seeded(inputs, seed):
    """The same shape class, different data."""
    rng = np.random.default_rng(seed)
    out = dict(inputs)
    for k, v in inputs.items():
        if isinstance(v, np.ndarray) and v.dtype.kind == "f":
            out[k] = (v * (1 + 0.1 * rng.random(v.shape))).astype(v.dtype)
    return out


def same_run(a, b):
    """Everything the issue lists: outputs and every simulated quantity."""
    (outs_a, st_a), (outs_b, st_b) = a, b
    assert len(outs_a) == len(outs_b)
    for x, y in zip(outs_a, outs_b):
        assert np.array_equal(x, y)
        assert np.asarray(x).dtype == np.asarray(y).dtype
    assert st_a.signature() == st_b.signature()
    assert traffic_signature(st_a) == traffic_signature(st_b)
    for field in (
        "peak_bytes", "space_peak_bytes", "alloc_count", "alloc_bytes",
        "elided_copies", "elided_bytes", "fused_kernels",
        "bytes_elided_fusion", "native_launches",
    ):
        assert getattr(st_a, field) == getattr(st_b, field), field
    assert (st_a.pool_hits + st_a.pool_misses
            == st_b.pool_hits + st_b.pool_misses)


def branchy():
    """y[i] = x[i] < 0 ? x[i] * x[i] + 1 : x[i] -- the flops a launch
    counts depend on how many elements are negative."""
    b = FunBuilder("branchy")
    n = b.size_param("n")
    x = b.param("x", ArrayType("f32", (n,)))
    m = b.map_(n, names=["y"])
    v = m.index(x, [m.idx])
    ih = m.if_(m.binop("<", v, 0.0))
    sq = ih.then_builder.binop("*", v, v)
    ih.then_builder.returns(ih.then_builder.binop("+", sq, 1.0))
    ih.else_builder.returns(v)
    m.returns(*ih.end())
    m.end()
    b.returns("y")
    return b.build()


def host_reduce():
    """A host-level reduce feeding a later launch's scalar argument."""
    b = FunBuilder("hostred")
    n = b.size_param("n")
    x = b.param("x", ArrayType("f32", (n,)))
    s = b.reduce("+", x)
    m = b.map_(n, names=["y"])
    m.returns(m.binop("*", m.index(x, [m.idx]), s))
    m.end()
    b.returns("y")
    return b.build()


def host_fills():
    """Host-level replicate, point write and iota around one launch,
    and a host scalar among the results."""
    b = FunBuilder("fills")
    n = b.size_param("n")
    x = b.param("x", ArrayType("f32", (n,)))
    z = b.update_point(b.replicate([n], 1.5), [0], b.lit(7.0))
    io = b.iota(n)
    m = b.map_(n, names=["y"])
    m.returns(m.binop("*", m.index(x, [m.idx]), m.index(z, [m.idx])))
    m.end()
    b.scalar(n * 2, name="k")
    b.returns("y", io, "k")
    return b.build()


def branchy_input(seed, n=64):
    x = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
    return {"n": n, "x": x}


def state(program):
    (entry,) = program.coverage()["classes"].values()
    return entry


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@pytest.mark.native
@pytest.mark.parametrize(
    "name,args", [(n, a) for n, sizes in TAPED.items() for a in sizes]
)
def test_replay_matches_executor(name, args):
    mod = module(name)
    program = rt.compile(mod.build(), pipeline="full", memoize=False)
    base = mod.inputs_for(*args)
    reference = executor_run(program, base)
    captured = program.run(base)
    assert captured[1].tape == "captured"
    same_run(reference, captured)
    for seed in range(1, 4):
        x = seeded(base, seed)
        replayed = program.run(x)
        assert replayed[1].tape == "replayed"
        same_run(executor_run(program, x), replayed)
    entry = state(program)
    assert entry["state"] == "captured" and entry["replays"] == 3
    assert entry["launches"] == reference[1].native_launches > 0
    assert entry["declined"] is None and not program.declined.records
    maps = program.coverage()["maps"]
    assert maps and all(
        m == {"tier": "native", "declined": [], "parts": 1}
        for m in maps.values()
    )


@pytest.mark.native
@pytest.mark.parametrize("name", ["nw", "hotspot", "lbm"])
def test_unopt_replays_host_copies_and_kernel_scratch(name):
    """Without short-circuiting the host program copies between
    launches and the kernels allocate per-launch scratch: both are on
    the tape."""
    mod = module(name)
    program = rt.compile(mod.build(), pipeline="unopt", memoize=False)
    base = mod.inputs_for(*TAPED[name][0])
    assert program.run(base)[1].tape == "captured"
    (cls,) = program._classes.values()
    ops = [op[0] for op in cls.tape.ops]
    launches = [op[1] for op in cls.tape.ops if op[0] == _LAUNCH]
    assert any(launch.allocs for launch in launches)
    assert name == "lbm" or _COPY in ops
    for seed in range(1, 4):
        x = seeded(base, seed)
        replayed = program.run(x)
        assert replayed[1].tape == "replayed"
        same_run(executor_run(program, x), replayed)


@pytest.mark.native
def test_host_fills_point_writes_and_scalar_results_replay():
    program = rt.compile(host_fills(), memoize=False)
    for seed in range(3):
        x = branchy_input(seed, n=10)
        run = program.run(x)
        assert run[1].tape == ("replayed" if seed else "captured")
        same_run(executor_run(program, x), run)
        y, io, k = run[0]
        scale = np.full(10, 1.5, np.float32)
        scale[0] = 7.0
        assert np.array_equal(y, x["x"] * scale)
        assert np.array_equal(io, np.arange(10)) and k == 20


@pytest.mark.native
@pytest.mark.parametrize("name", sorted(UNTAPED))
def test_untapeable_programs_say_why(name):
    mod = module(name)
    args, why, fallen = UNTAPED[name]
    program = rt.compile(mod.build(), pipeline="full", memoize=False)
    x = mod.inputs_for(*args)
    reference = executor_run(program, x)
    for _ in range(2):
        run = program.run(x)
        assert run[1].tape == f"off: {why}"
        same_run(reference, run)
    entry = state(program)
    assert entry["state"] == "off" and entry["declined"] == why
    assert entry["replays"] == 0
    # Which maps run below the native tier, and the emitter's sentence
    # for each -- not only for the first one a capture ran into.
    below = {
        site: m for site, m in program.coverage()["maps"].items()
        if m["tier"] != "native"
    }
    assert sorted(below) == fallen
    for site, m in below.items():
        (d,) = m["declined"]
        assert m["tier"] == "vectorized"
        assert (d.layer, d.site, d.detail) == ("native", site, why.detail)
    # Another shape class runs into the same statement: one record.
    smaller = mod.inputs_for(*[max(1, a - 1) for a in args])
    assert program.run(smaller)[1].tape == f"off: {why}"
    assert program.declined.records == [why]
    assert program.declined.repeats == 1


@pytest.mark.native
def test_counters_follow_each_requests_data():
    program = rt.compile(branchy(), memoize=False)
    flops = set()
    for seed in range(4):
        x = branchy_input(seed)
        run = program.run(x)
        assert run[1].tape == ("replayed" if seed else "captured")
        reference = executor_run(program, x)
        same_run(reference, run)
        assert run[1].flops == reference[1].flops
        flops.add(run[1].flops)
    assert len(flops) > 1, "the inputs should disagree on the branch count"


@pytest.mark.native
def test_host_reduce_feeding_a_launch_is_refused():
    program = rt.compile(host_reduce(), memoize=False)
    for seed in range(3):
        x = branchy_input(seed)
        outs, stats = program.run(x)
        assert stats.tape == (
            "off: tape host-data-dependent @ t_1 (host-level reduce)"
        )
        assert stats.native_launches == 1
        want = x["x"] * x["x"].sum(dtype=np.float32)
        assert np.array_equal(outs[0], want)
    why = Decision("tape", "host-data-dependent", "t_1", "host-level reduce")
    assert state(program)["declined"] == why
    assert program.declined.records == [why]


@pytest.mark.native
def test_launch_time_mismatch_turns_one_class_off(monkeypatch):
    program = rt.compile(module("nw").build(), memoize=False)
    x = module("nw").inputs_for(4, 8)
    reference = executor_run(program, x)
    marshal, calls = NativeEngine.marshal, []

    def flaky(self, *args):
        calls.append(1)
        if len(calls) in (2, 3, 6):
            raise Declined("structure-changed", f"injected {len(calls)}")
        return marshal(self, *args)

    monkeypatch.setattr(NativeEngine, "marshal", flaky)
    run = program.run(x)
    monkeypatch.undo()
    assert run[1].native_launches == reference[1].native_launches - 3
    # Launches 2 and 3 are of the first wavefront's map, 6 of the
    # second's: one record per statement (its first fallback), one
    # repeat -- and the first record is what turned the tape off.
    log = program._native_engine.declined
    why, other = log.records
    assert (why.layer, why.rule) == ("launch", "structure-changed")
    assert (why.detail, other.detail) == ("injected 2", "injected 6")
    assert why.site != other.site and log.repeats == 1
    assert run[1].tape == f"off: {why}"
    assert state(program)["declined"] == why
    served = program.coverage()["maps"]
    for d in (why, other):
        assert served[d.site] == {
            "tier": "native", "declined": [d], "parts": 1,
        }
    assert np.array_equal(reference[0][0], run[0][0])
    assert run[1].signature() == reference[1].signature()
    assert program.run(x)[1].tape == run[1].tape  # not retried
    # ... but only that shape class: another one is captured.
    assert program.run(module("nw").inputs_for(3, 4))[1].tape == "captured"


def test_scalar_inputs_key_the_shape_class_by_type_and_value():
    program = rt.compile(branchy())
    a = {"n": 4, "x": np.zeros((4, 2), np.float32)}
    assert program.shape_key(a) == "n=int:4|x:(4, 2)"
    keys = {
        program.shape_key(dict(a, n=n))
        for n in (4, 5, np.int64(4), np.int64(5), np.float32(4), 4.0)
    }
    assert len(keys) == 6


# ----------------------------------------------------------------------
# Never capture off the native tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("how", ["native", "env"])
def test_never_captures_without_the_native_tier(how, monkeypatch):
    if how == "env":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    kwargs = {"native": {"native": False}, "env": {}}[how]
    program = rt.compile(branchy(), memoize=False)
    for seed in range(3):
        _, stats = program.run(branchy_input(seed), **kwargs)
        assert stats.tape == "off: native tier not in use"
        assert stats.native_launches == 0
    entry = state(program)
    assert entry == {
        "state": "new", "launches": 0, "replays": 0, "declined": None,
    }
    # Nobody declined anything: the tier was not asked.
    assert all(
        m["tier"] != "native" and not m["declined"]
        for m in program.coverage()["maps"].values()
    )


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
@pytest.mark.native
def test_two_threads_replay_one_tape():
    mod = module("lud")
    program = rt.compile(mod.build(), memoize=False)
    base = mod.inputs_for(4, 8)
    program.run(base)
    requests = [seeded(base, s) for s in (11, 12)]
    want = [executor_run(program, x) for x in requests]
    barrier = threading.Barrier(2)
    failures = []

    def client(i):
        try:
            barrier.wait(timeout=30)
            for _ in range(25):
                got = program.run(requests[i])
                assert got[1].tape == "replayed"
                same_run(want[i], got)
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures
    assert state(program)["replays"] == 50


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
class Boom(RuntimeError):
    pass


def warm(program, x, phase):
    """Emit ``program``'s kernels and fill its pool for ``x``'s shape;
    for the ``replay`` phase also capture the tape of that shape."""
    if phase == "replay":
        assert program.run(x)[1].tape == "captured"
        return
    MemExecutor(program.compiled.fun, native=program._native(None)).run(**x)
    assert program.run(x, native=False)[1].tape == "off: native tier not in use"


def fail_on_call(monkeypatch, program, k):
    """Make the k-th kernel call of the next request raise."""
    calls = []
    for spec in program._native_engine.plans.values():
        def fn(*args, _fn=spec.fn):
            calls.append(1)
            if len(calls) == k:
                raise Boom(f"kernel call {k}")
            return _fn(*args)

        monkeypatch.setattr(spec, "fn", fn)


@pytest.mark.native
@pytest.mark.parametrize("phase", ["capture", "replay"])
def test_kernel_exception_keeps_pool_and_drops_tape(phase, monkeypatch):
    mod = module("lud")
    program = rt.compile(mod.build(), memoize=False)
    x = mod.inputs_for(3, 4)
    reference = executor_run(program, x)
    warm(program, x, phase)
    clean = len(idle_buffers(program.pool))
    fail_on_call(monkeypatch, program, 5)
    with pytest.raises(Boom):
        program.run(x)
    monkeypatch.undo()
    assert len(idle_buffers(program.pool)) == clean
    assert state(program)["state"] == "new"  # no tape stored / kept
    run = program.run(x)
    assert run[1].tape == "captured"
    same_run(reference, run)
    same_run(reference, program.run(x))
    assert len(idle_buffers(program.pool)) == clean


@pytest.mark.native
@pytest.mark.parametrize("name", sorted(TAPED))
def test_poisoned_pool_replays_bit_identically(name):
    mod = module(name)
    program = rt.compile(mod.build(), memoize=False)
    x = mod.inputs_for(*TAPED[name][0])
    reference = executor_run(program, x)
    program.run(x)
    poison(program.pool)
    run = program.run(x)
    assert run[1].tape == "replayed"
    same_run(reference, run)


@pytest.mark.native
def test_evicted_tape_is_recaptured_not_resurrected():
    program = rt.compile(branchy(), memoize=False)
    first = branchy_input(0, n=8)
    assert program.run(first)[1].tape == "captured"
    assert program.run(first)[1].tape == "replayed"
    for n in range(9, 9 + Program.SHAPE_CLASSES):
        program.run(branchy_input(0, n=n))
    assert len(program.coverage()["classes"]) == Program.SHAPE_CLASSES
    run = program.run(first)
    assert run[1].tape == "captured"
    same_run(executor_run(program, first), run)


# ----------------------------------------------------------------------
# The shape-class LRU bounds plans and idle buffers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [branchy, host_reduce])
def test_never_seen_shapes_leave_the_pool_bounded(build):
    program = rt.compile(build(), memoize=False)
    program.run(branchy_input(0, n=1))
    # offset arrays one class enumerates (none when its tape replays)
    per_class = len(program._offs_cache)
    for n in range(2, 501):
        program.run(branchy_input(0, n=n))
    assert len(program._offs_cache) <= Program.SHAPE_CLASSES * per_class
    pool = program.pool
    assert len(pool._plans) <= Program.SHAPE_CLASSES
    assert len(program.coverage()["classes"]) <= Program.SHAPE_CLASSES
    # x and y of the retained classes, nothing of the 484 evicted ones
    idle = sum(b.nbytes for b in idle_buffers(pool))
    assert idle <= Program.SHAPE_CLASSES * 2 * 4 * 500
    retained = {key for manifest in pool._plans.values() for key in manifest}
    assert set(pool._free) <= retained


def _reachable_index_fns(root):
    """Every ``IndexFn`` reachable from ``root`` through fields, slots,
    containers and instance ``__dict__``s (where the memos live)."""
    seen, found, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found += isinstance(obj, IndexFn)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.append(getattr(obj, "__dict__", None))
            stack.extend(
                getattr(obj, slot, None)
                for slot in getattr(type(obj), "__slots__", ())
            )
    return found


@pytest.mark.parametrize(
    "name, shape",
    [
        ("nw", lambda i: (2 + i % 20, 2 + i // 20)),
        ("nn", lambda i: (16 + i,)),
        ("optionpricing", lambda i: (8 + i, 4 + i % 3)),
    ],
    ids=["nw", "nn", "optionpricing"],
)
def test_never_seen_shapes_leave_the_ir_bounded(name, shape, monkeypatch):
    """A cached program's IR must not grow with the shapes it has served:
    the ``IndexFn`` memos restart at ``MEMO_CAP`` and are not pickled."""
    monkeypatch.setattr(IndexFn, "MEMO_CAP", 16, raising=False)
    mod = module(name)
    program = rt.compile(mod.build(), memoize=False)
    fun = program.compiled.fun
    in_ir = _reachable_index_fns(fun)
    pickled = len(pickle.dumps(fun))
    # one generation of full memos (three per index function) and a spare
    bound = in_ir * (1 + 4 * IndexFn.MEMO_CAP)
    for i in range(200):
        program.run(mod.inputs_for(*shape(i)))
        if i % 20 == 19:
            assert _reachable_index_fns(fun) <= bound, f"after {i + 1} shapes"
    assert len(pickle.dumps(fun)) == pickled


def test_eight_class_ring_keeps_full_pool_hit_rate():
    mod = module("optionpricing")
    program = rt.compile(mod.build(), memoize=False)
    ring = [mod.inputs_for(16 + 4 * i, 8) for i in range(8)]
    for x in ring:
        program.run(x)
    for _ in range(3):
        for x in ring:
            _, stats = program.run(x)
            assert stats.pool_misses == 0 and stats.pool_hits > 0


# ----------------------------------------------------------------------
# Output materialization: contiguous results are sliced, not gathered
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["nw", "lud", "hotspot", "lbm", "optionpricing",
             "locvolcalib", "nn"],
)
def test_sliced_output_equals_the_gather(name):
    mod = module(name)
    program = rt.compile(mod.build())
    ex = MemExecutor(program.compiled.fun)
    vals, _ = ex.run(**mod.inputs_for(*mod.TEST_DATASETS["small"]))
    sliced = 0
    for v in vals:
        got = rt.materialize(ex, v)
        if not isinstance(v, RuntimeArray):
            assert got is v
            continue
        want = ex.mem[v.mem][v.ixfn.gather_offsets({})]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, ex.mem[v.mem])
        sliced += region_plan(v.ixfn, lambda: None)[0] == "slice"
    assert sliced or name in ("optionpricing",)


def test_strided_and_transposed_results_take_the_gather():
    buf = np.arange(24, dtype=np.float32)
    row_major = IndexFn.row_major((4, 6))
    assert region_plan(row_major, lambda: None) == ("slice", 0, 24, (4, 6))
    window = row_major.slice_triplets([(1, 2, 1), (0, 6, 1)])
    assert region_plan(window, lambda: None) == ("slice", 6, 12, (2, 6))
    for ixfn in (
        row_major.transpose(),
        row_major.slice_triplets([(0, 4, 1), (0, 3, 2)]),
        row_major.slice_triplets([(0, 4, 1), (1, 3, 1)]),
        row_major.reverse(0),
    ):
        offs = ixfn.gather_offsets({})
        plan = region_plan(ixfn, lambda offs=offs: offs)
        assert plan[0] == "gather" and plan[1] is offs
        assert np.array_equal(read_region(buf, plan), buf[offs])
