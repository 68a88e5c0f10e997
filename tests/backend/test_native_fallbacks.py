"""Degradation paths: the native tier must never be load-bearing.

Switching it off (``REPRO_NATIVE=off``), losing the C compiler, a C
compiler that fails or writes an object that does not load, corrupting
the on-disk kernel cache, or a launch whose structure diverges from the
cached plan must all leave every program running bit-identically on the
remaining tiers -- and the tier bookkeeping
(``native_launches``, ``codegen_seconds``) must stay out of the stats
signature so tiers remain interchangeable.
"""

import subprocess
import threading

import numpy as np
import pytest

import repro.backend.build as build
import repro.runtime as rt
from repro.backend import NativeEngine, maybe_engine, native_enabled
from repro.backend.cemit import KernelSpec
from repro.mem.exec import MemExecutor
from repro.mem.stats import ExecStats


def _nn():
    from repro.bench.programs import nn

    return nn, nn.inputs_for(*nn.TEST_DATASETS["small"])


# -- gating -------------------------------------------------------------
class TestGating:
    def test_env_off_disables_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert not native_enabled()
        assert maybe_engine() is None

    def test_env_off_program_still_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        mod, inputs = _nn()
        program = rt.compile(mod.build(), pipeline="full")
        outs, stats = program.run(inputs, memoize=False)
        assert stats.native_launches == 0
        ref, ref_stats = program.run(inputs, vectorize=False, memoize=False)
        for a, b in zip(outs, ref):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert stats.signature() == ref_stats.signature()

    @pytest.mark.native
    def test_run_native_kwarg(self):
        mod, inputs = _nn()
        program = rt.compile(mod.build(), pipeline="full")
        _, st_off = program.run(inputs, native=False, memoize=False)
        assert st_off.native_launches == 0
        _, st_on = program.run(inputs, memoize=False)
        assert st_on.native_launches > 0
        assert st_on.signature() == st_off.signature()

    def test_missing_cc_warns_once(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(build, "_cc_info", (None, ""))
        monkeypatch.setattr(build, "_warned", False)
        assert maybe_engine() is None
        assert maybe_engine() is None
        err = capsys.readouterr().err
        assert err.count("no C compiler") == 1


# -- a toolchain that fails --------------------------------------------
#: What the fake ``cc`` does once ``--version`` is answered, and the
#: rule the engine must file it under.
FAULTS = {
    "cc-failed": 'echo "internal compiler error: fake" >&2; exit 1',
    "so-unloadable": (
        'while [ $# -gt 1 ]; do'
        ' [ "$1" = -o ] && printf garbage > "$2"; shift; done; exit 0'
    ),
}


@pytest.mark.parametrize("rule", sorted(FAULTS))
def test_failing_cc_degrades_and_says_so(rule, tmp_path, monkeypatch):
    """``REPRO_CC`` points at a script: the real path, no mock."""
    calls = tmp_path / "calls"
    cc = tmp_path / "fakecc"
    cc.write_text(
        "#!/bin/sh\n"
        f'echo "$@" >> {calls}\n'
        'if [ "$1" = --version ]; then echo "fakecc 1.0"; exit 0; fi\n'
        f"{FAULTS[rule]}\n"
    )
    cc.chmod(0o755)
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setenv("REPRO_CC", str(cc))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(build, "_cc_info", None)

    mod, inputs = _nn()
    program = rt.compile(mod.build(), pipeline="full", memoize=False)
    want, want_stats = program.run(inputs, native=False)
    builds = []
    for _ in range(2):  # the second request must not crash, nor ask cc again
        outs, stats = program.run(inputs)
        assert stats.native_launches == 0 and stats.vec_launches > 0
        for a, b in zip(outs, want):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert stats.signature() == want_stats.signature()
        builds.append(calls.read_text().count(" -o "))
    assert builds == [1, 1]

    (served,) = program.coverage()["maps"].values()
    (why,) = served["declined"]
    assert served["tier"] == "vectorized"
    assert (why.layer, why.rule) == ("native", rule)
    if rule == "cc-failed":
        assert why.detail == "exit status 1: internal compiler error: fake"
    else:
        assert ".so" in why.detail  # the loader's message names the object
        assert not list((tmp_path / "cache").glob("*.so"))  # unlinked
    assert stats.tape == f"off: {why}"


# -- kernel cache -------------------------------------------------------
TRIVIAL = (
    "void repro_kernel(long long T0, long long W, const long long* ia,"
    " const double* fa, char** bufs, long long* C)"
    " { (void)ia; (void)fa; (void)bufs; C[0] += W - T0; }\n"
)


def _call(fn, w):
    counters = np.zeros(6, dtype=np.int64)
    fn(0, w, None, None, None, counters.ctypes.data)
    return int(counters[0])


@pytest.mark.native
class TestKernelCache:
    def test_disk_hit_across_memo_clear(self):
        fn, digest = build.compile_kernel(TRIVIAL)
        assert _call(fn, 7) == 7
        so = build.cache_dir() / f"{digest}.so"
        mtime = so.stat().st_mtime_ns
        build.clear_memo()
        fn2, digest2 = build.compile_kernel(TRIVIAL)
        assert digest2 == digest
        assert so.stat().st_mtime_ns == mtime  # loaded, not rebuilt
        assert _call(fn2, 3) == 3

    def test_corrupt_so_rebuilds_cold(self):
        fn, digest = build.compile_kernel(TRIVIAL)
        so = build.cache_dir() / f"{digest}.so"
        # Replace via a fresh inode (as an interrupted writer from
        # another process would): the damaged entry must be unlinked
        # and rebuilt cold, not trusted.
        so.unlink()
        so.write_bytes(b"this is not a shared object")
        build.clear_memo()
        fn2, digest2 = build.compile_kernel(TRIVIAL)
        assert digest2 == digest
        assert _call(fn2, 11) == 11  # rebuilt and loadable

    def test_source_is_cached_beside_object(self):
        _, digest = build.compile_kernel(TRIVIAL)
        csrc = build.cache_dir() / f"{digest}.c"
        assert csrc.read_text() == TRIVIAL

    def test_flags_are_part_of_the_key(self, monkeypatch):
        """An object built under other flags is not a cache hit."""
        _, production = build.compile_kernel(TRIVIAL)
        monkeypatch.setattr(build, "CC_FLAGS", ["-O0"] + build.CC_FLAGS[1:])
        fn, unoptimised = build.compile_kernel(TRIVIAL)
        assert unoptimised != production
        assert _call(fn, 5) == 5
        for digest in (production, unoptimised):
            assert (build.cache_dir() / f"{digest}.so").exists()

    def test_object_without_entry_point_rebuilds_cold(
        self, tmp_path, monkeypatch
    ):
        """A cached ``.so`` that loads but lacks ``repro_kernel`` is a
        corrupt entry like any other.  The path is one this process has
        never loaded: the loader answers a path it has mapped from its
        own table, whatever the file now holds."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        build.clear_memo()
        hollow = tmp_path / "hollow.c"
        hollow.write_text("int nothing_here;\n")
        so = tmp_path / f"{build.source_digest(TRIVIAL)}.so"
        subprocess.run(
            [build.find_cc()[0], "-shared", "-fPIC", "-o", str(so), str(hollow)],
            check=True,
        )
        for _ in range(2):  # the rebuilt entry is then an ordinary hit
            fn, _ = build.compile_kernel(TRIVIAL)
            assert _call(fn, 9) == 9
            build.clear_memo()

    @pytest.mark.gate
    def test_concurrent_builds_of_one_source(self, tmp_path, monkeypatch):
        """Eight threads, one fresh source, an empty cache directory:
        a writer's temp files are its own, so every thread gets a
        callable and the directory ends with the one ``.c``/``.so``."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        build.clear_memo()
        results = _on_threads(8, lambda _: build.compile_kernel(TRIVIAL)[0])
        assert [_call(fn, 4) for fn in results] == [4] * 8
        digest = build.source_digest(TRIVIAL)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            f"{digest}.c", f"{digest}.so",
        ]

    @pytest.mark.gate
    def test_two_programs_of_one_function_build_concurrently(
        self, tmp_path, monkeypatch
    ):
        """Each ``Program`` has its own engine (and engine lock); the
        kernels of the one function they share are one set of paths."""
        from repro.bench.programs import nw

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        build.clear_memo()
        inputs = nw.inputs_for(*nw.TEST_DATASETS["small"])
        programs = [
            rt.compile(nw.build(), pipeline="full", memoize=False)
            for _ in range(2)
        ]
        _on_threads(2, lambda i: programs[i].run(inputs))
        for program in programs:
            served = program.coverage()["maps"]
            assert served and all(
                m["tier"] == "native" and not m["declined"]
                for m in served.values()
            ), served
        assert not [f for f in tmp_path.iterdir() if f.name.startswith(".")]


def _on_threads(n, work):
    """``work(i)`` on ``n`` threads released together; the results, or
    the first exception."""
    barrier = threading.Barrier(n)
    out = [None] * n

    def run(i):
        barrier.wait()
        try:
            out[i] = work(i)
        except BaseException as e:  # noqa: BLE001 - re-raised below
            out[i] = e

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in out:
        if isinstance(r, BaseException):
            raise r
    return out


# -- per-launch fallback ------------------------------------------------
@pytest.mark.native
def test_structure_mismatch_falls_back_per_launch():
    mod, inputs = _nn()
    from repro.compiler import compile_fun

    fun = compile_fun(mod.build(), pipeline="full").fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    vals, st = ex.run(**{k: (v.copy() if hasattr(v, "copy") else v)
                         for k, v in inputs.items()})
    assert st.native_launches > 0

    def stale_literal(dirs):
        """The C text holds a stride the launch no longer has."""
        (k, d), *_ = [
            (k, d) for k, d in enumerate(dirs)
            if d[0] == "arrcomp" and 1 in d[4]
        ]
        lits = list(d[4])
        lits[lits.index(1)] = 2
        return dirs[:k] + [d[:4] + (tuple(lits),)] + dirs[k + 1:]

    # Poison every cached plan -- with a directive for a host scalar
    # that does not exist, then with a literal index component the
    # launch contradicts: the next launch's structure check fails and
    # must fall back -- per launch, with a record naming the statement,
    # without unplanning the statement or corrupting the run.
    specs = [s for s in eng.plans.values() if isinstance(s, KernelSpec)]
    assert specs
    for poison, detail in (
        (lambda dirs: dirs + [("env", "__poison__", ("i64", True))],
         "free variable '__poison__' vanished"),
        (stale_literal, "literal index component 2 is now 1"),
    ):
        clean = [list(spec.int_dirs) for spec in specs]
        for spec in specs:
            spec.int_dirs = poison(list(spec.int_dirs))
        eng.declined.records.clear()
        ex2 = MemExecutor(fun, native=eng)
        vals2, st2 = ex2.run(**{k: (v.copy() if hasattr(v, "copy") else v)
                                for k, v in inputs.items()})
        for spec, dirs in zip(specs, clean):
            spec.int_dirs = dirs
        assert st2.native_launches == 0
        assert st2.vec_launches + st2.interp_launches > 0
        assert st2.signature() == st.signature()
        for a, b in zip(vals, vals2):
            assert np.array_equal(
                np.asarray(ex.mem[a.mem][a.ixfn.gather_offsets({})]),
                np.asarray(ex2.mem[b.mem][b.ixfn.gather_offsets({})]),
            )
        assert [str(r) for r in eng.declined.records] == [
            f"launch structure-changed @ {spec.sites[0][1][4:]} ({detail})"
            for spec in specs
        ]


# -- an emitter bug -----------------------------------------------------
def test_emitter_crash_is_one_record_not_an_exception_per_request(monkeypatch):
    import repro.backend.engine as engine

    calls = []

    def crash(*args):
        calls.append(args)
        raise KeyError(("f32", "i64"))

    monkeypatch.setattr(engine, "emit_kernel", crash)
    mod, inputs = _nn()
    program = rt.compile(mod.build(), pipeline="full")
    ref, ref_stats = program.run(inputs, native=False, memoize=False)
    eng = NativeEngine(program._native_plans)
    program._native_engine, program._native_probed = eng, True
    for _ in range(2):  # the second request does not re-emit
        outs, stats = program.run(inputs, memoize=False)
        assert stats.native_launches == 0 and stats.vec_launches > 0
        assert stats.signature() == ref_stats.signature()
        for a, b in zip(outs, ref):
            assert np.array_equal(np.asarray(a), np.asarray(b))
    sites = list(program.coverage()["maps"])
    assert len(calls) == len(sites) > 0
    assert [(d.layer, d.rule, d.detail) for d in eng.declined.records] == [
        ("native", "internal-error", "KeyError(('f32', 'i64'))")
    ] * len(sites)
    assert all(
        m["tier"] == "vectorized" and m["declined"][0].rule == "internal-error"
        for m in program.coverage()["maps"].values()
    )


# -- stats bookkeeping --------------------------------------------------
def test_tier_counters_stay_out_of_signature():
    s = ExecStats()
    base = s.signature()
    s.native_launches = 7
    s.codegen_seconds = 1.5
    assert s.signature() == base


def test_native_hit_rate():
    s = ExecStats()
    assert s.native_hit_rate == 0.0
    s.native_launches = 3
    assert s.native_hit_rate == 1.0
    s.vec_launches = 2
    s.interp_launches = 1
    assert s.native_hit_rate == 0.5
