"""The persistent program cache: keys, layers, invalidation."""

import multiprocessing

import numpy as np
import pytest

import repro.backend.build as build
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir.pretty import pretty_fun
from repro.runtime import (
    COLD,
    DISK_HIT,
    MEM_HIT,
    ProgramCache,
    compile_cached,
    make_key,
    program_cache,
)
from repro.symbolic import Var

n = Var("n")


def simple_fun(assume_upper=None):
    b = FunBuilder("simple")
    b.size_param("n")
    if assume_upper is not None:
        b.assume_upper("n", assume_upper)
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (y,) = mp.end()
    b.returns(y)
    return b.build()


def _key(fun, pipeline="full"):
    return make_key(fun, pipeline, True, False)


class TestMemoryLayer:
    def test_repeat_compile_is_a_hit_returning_the_same_object(self):
        c1 = compile_fun(simple_fun())
        c2 = compile_fun(simple_fun())
        assert c1 is c2
        pc = program_cache()
        assert pc.hits == 1 and pc.misses == 1

    def test_cache_false_forces_a_cold_compile(self):
        c1 = compile_fun(simple_fun())
        c2 = compile_fun(simple_fun(), cache=False)
        assert c1 is not c2

    def test_env_var_off_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGCACHE", "off")
        c1 = compile_fun(simple_fun())
        c2 = compile_fun(simple_fun())
        assert c1 is not c2

    def test_distinct_pipelines_do_not_collide(self):
        c_full = compile_fun(simple_fun(), pipeline="full")
        c_unopt = compile_fun(simple_fun(), pipeline="unopt")
        assert c_full is not c_unopt
        assert compile_fun(simple_fun(), pipeline="unopt") is c_unopt

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="bogus"):
            compile_cached(simple_fun(), pipeline="bogus")

    def test_lru_eviction(self):
        pc = ProgramCache(max_entries=2)
        funs = [simple_fun(), simple_fun(8), simple_fun(9)]
        for f in funs:
            pc.get_or_compile(_key(f), lambda f=f: compile_fun(f, cache=False))
        assert len(pc) == 2
        # The oldest entry (no assumption) was evicted.
        _, state = pc.get_or_compile(
            _key(funs[0]), lambda: compile_fun(funs[0], cache=False)
        )
        assert state == COLD


class TestKeyAnatomy:
    def test_assumptions_are_part_of_the_key(self):
        """Two compiles of the same body under different dataset
        invariants must never share an artifact (their provers answer
        different queries)."""
        k_plain = _key(simple_fun())
        k_assume = _key(simple_fun(assume_upper=1024))
        assert k_plain.source == k_assume.source
        assert k_plain.assumptions != k_assume.assumptions
        assert k_plain.digest() != k_assume.digest()
        c1 = compile_fun(simple_fun())
        c2 = compile_fun(simple_fun(assume_upper=1024))
        assert c1 is not c2

    def test_structurally_identical_builds_share_a_key(self):
        assert _key(simple_fun()).digest() == _key(simple_fun()).digest()

    def test_flags_differentiate(self):
        fun = simple_fun()
        assert _key(fun, "sc+fuse").digest() != _key(fun).digest()

    def test_options_differentiate(self):
        fun = simple_fun()
        k1 = make_key(fun, "full", True, False)
        k2 = make_key(fun, "full", True, True)
        assert k1.digest() != k2.digest()


class TestDiskLayer:
    def test_round_trip_skips_every_pass(self, tmp_path):
        """A disk hit rebuilds the compiled program without running the
        pipeline: its trace is the single ``progcache`` record, while
        the IR pretty-print is byte-identical to the cold compile's."""
        fun = simple_fun()
        key = _key(fun)

        pc1 = ProgramCache(disk_dir=tmp_path)
        cold, state = pc1.get_or_compile(
            key, lambda: compile_fun(fun, cache=False), disk=True
        )
        assert state == COLD
        assert pc1.disk_stores == 1
        cold_passes = len(cold.trace.records)
        assert cold_passes > 1

        # A fresh process: empty memory layer, same disk directory.
        pc2 = ProgramCache(disk_dir=tmp_path)
        warm, state = pc2.get_or_compile(
            key, lambda: pytest.fail("disk hit must not recompile"),
            disk=True,
        )
        assert state == DISK_HIT
        assert pc2.disk_hits == 1
        assert len(warm.trace.records) == 1
        rec = warm.trace.records[0]
        assert rec.name == "progcache"
        assert rec.detail["passes_skipped"] == cold_passes
        assert pretty_fun(warm.fun) == pretty_fun(cold.fun)
        assert warm.pipeline == cold.pipeline
        # The disk hit is promoted into the memory layer.
        again, state = pc2.get_or_compile(
            key, lambda: pytest.fail("must not recompile"), disk=True
        )
        assert state == MEM_HIT and again is warm

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        import repro.runtime.cache as cache_mod

        fun = simple_fun()
        key = _key(fun)
        pc1 = ProgramCache(disk_dir=tmp_path)
        pc1.get_or_compile(key, lambda: compile_fun(fun, cache=False), disk=True)

        monkeypatch.setattr(cache_mod, "CACHE_VERSION", 999)
        pc2 = ProgramCache(disk_dir=tmp_path)
        _, state = pc2.get_or_compile(
            key, lambda: compile_fun(fun, cache=False), disk=True
        )
        assert state == COLD
        assert pc2.disk_hits == 0

    def test_corrupt_entry_degrades_to_cold(self, tmp_path):
        fun = simple_fun()
        key = _key(fun)
        pc1 = ProgramCache(disk_dir=tmp_path)
        pc1.get_or_compile(key, lambda: compile_fun(fun, cache=False), disk=True)
        for p in tmp_path.glob("*.pkl"):
            p.write_bytes(b"not a pickle")
        pc2 = ProgramCache(disk_dir=tmp_path)
        _, state = pc2.get_or_compile(
            key, lambda: compile_fun(fun, cache=False), disk=True
        )
        assert state == COLD
        assert pc2.disk_errors == 1

    def test_truncated_entry_degrades_to_cold(self, tmp_path):
        """An entry cut short (a writer killed mid-write without the
        atomic rename) is an error, not a hit."""
        fun = simple_fun()
        key = _key(fun)
        pc1 = ProgramCache(disk_dir=tmp_path)
        pc1.get_or_compile(key, lambda: compile_fun(fun, cache=False), disk=True)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        pc2 = ProgramCache(disk_dir=tmp_path)
        _, state = pc2.get_or_compile(
            key, lambda: compile_fun(fun, cache=False), disk=True
        )
        assert state == COLD
        assert pc2.disk_errors == 1

    def test_clear_disk_removes_entries(self, tmp_path):
        fun = simple_fun()
        pc = ProgramCache(disk_dir=tmp_path)
        pc.get_or_compile(
            _key(fun), lambda: compile_fun(fun, cache=False), disk=True
        )
        assert list(tmp_path.glob("*.pkl"))
        pc.clear(disk=True)
        assert not list(tmp_path.glob("*.pkl"))
        assert len(pc) == 0


# -- two processes, one pair of cache directories ------------------------
#: A kernel of this test alone: its cache directory starts empty.
KERNEL = (
    "void repro_kernel(long long T0, long long W, const long long* ia,"
    " const double* fa, char** bufs, long long* C)"
    " { (void)ia; (void)fa; (void)bufs; C[0] += 2 * (W - T0); }\n"
)


def _share_caches(barrier, results, disk_dir):
    """One of two processes: build :data:`KERNEL` into
    ``REPRO_NATIVE_CACHE``, then store one key into ``disk_dir``.  Each
    write starts as the other process's does: everything slower (asking
    ``cc`` its version, compiling the program) happens before."""
    build.find_cc()
    fun = simple_fun()
    compiled = compile_fun(fun, cache=False)
    barrier.wait(timeout=60)
    fn, _ = build.compile_kernel(KERNEL)
    counters = np.zeros(6, dtype=np.int64)
    fn(0, 5, None, None, None, counters.ctypes.data)
    pc = ProgramCache(disk_dir=disk_dir)
    barrier.wait(timeout=60)
    pc.get_or_compile(_key(fun), lambda: compiled, disk=True)
    results.put((int(counters[0]), pc.disk_errors))


@pytest.mark.native
def test_two_processes_share_both_cache_directories(tmp_path, monkeypatch):
    """Each writer's temp files carry its pid: two processes building one
    kernel and storing one program leave one ``.c``/``.so`` and one
    loadable ``.pkl``, and no temp file."""
    native, progs = tmp_path / "native", tmp_path / "progs"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(native))
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(2), ctx.Queue()
    procs = [
        ctx.Process(target=_share_caches, args=(barrier, results, progs))
        for _ in range(2)
    ]
    try:
        for p in procs:
            p.start()
        got = [results.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(30)
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
    assert [p.exitcode for p in procs] == [0, 0]
    assert got == [(10, 0)] * 2

    digest = build.source_digest(KERNEL)
    assert sorted(f.name for f in native.iterdir()) == [
        f"{digest}.c", f"{digest}.so",
    ]
    fun = simple_fun()
    (entry,) = progs.iterdir()
    assert entry.name == f"{_key(fun).digest()}.pkl"
    pc = ProgramCache(disk_dir=progs)
    _, state = pc.get_or_compile(
        _key(fun), lambda: pytest.fail("the stored entry must load"),
        disk=True,
    )
    assert state == DISK_HIT
