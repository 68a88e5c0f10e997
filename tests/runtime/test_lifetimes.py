"""A request holds only what its schedule has live.

Every real path hands a block's buffer back to the pool where the
executor's lifetime model retires it (``Let.mem_frees``, a host loop's
iteration end, a kernel's end), and a launch tape binds an input that
nothing on it writes in place.  So the most bytes a request's lease holds
at once is at most the run's ``ExecStats.peak_bytes``, a loop's
per-iteration blocks take turns on the same buffers, and the caller's
arrays are never written.  The pools here poison every buffer they take
back, so a block read after its death would show.
"""

import importlib

import numpy as np
import pytest

import repro.runtime as rt
import repro.runtime.program as program_module
from repro.backend import maybe_engine
from repro.mem.exec import MemExecutor
from repro.mem.memir import binding_of
from repro.pipeline.presets import PRESETS
from tests.runtime import WatchedPool, shape_class

BENCHMARKS = ["nw", "lud", "hotspot", "lbm", "optionpricing", "locvolcalib", "nn"]
PATHS = [
    "interpreted",
    "vectorized",
    pytest.param("native", marks=pytest.mark.native),
    pytest.param("tape", marks=pytest.mark.native),
]


def module(name):
    return importlib.import_module(f"repro.bench.programs.{name}")


def read_only(inputs):
    """``inputs`` with every array made read-only."""
    out = {}
    for k, v in inputs.items():
        if isinstance(v, np.ndarray):
            v = v.copy()
            v.setflags(write=False)
        out[k] = v
    return out


def serve(path, program, x, monkeypatch):
    """Two requests of ``x`` on ``path``: per request its outputs, its
    stats and the lease it ran on."""
    if path == "tape":
        monkeypatch.setattr(program_module, "BufferPool", WatchedPool)
        got = []
        for _ in range(2):
            outs, stats = program.run(x)
            got.append((outs, stats, shape_class(program, x).pool.leases[-1]))
        monkeypatch.undo()
        return got
    pool, got = WatchedPool(), []
    for _ in range(2):
        with pool.lease() as lease:
            ex = MemExecutor(
                program.compiled.fun, pool=lease,
                vectorize=path != "interpreted",
                native=maybe_engine() if path == "native" else None,
            )
            vals, stats = ex.run(**x)
            got.append(([rt.materialize(ex, v) for v in vals], stats, lease))
    return got


@pytest.mark.gate
@pytest.mark.parametrize("path", PATHS)
def test_a_request_holds_no_more_than_its_peak(path, monkeypatch):
    """7 benchmarks x 6 presets at ``small``, read-only inputs: each of
    two requests holds at most ``peak_bytes`` of pooled buffers at once,
    answers like a fresh executor, and leaves every input bit-equal."""
    for name in BENCHMARKS:
        mod = module(name)
        x = read_only(mod.inputs_for(*mod.TEST_DATASETS["small"]))
        before = {k: v.tobytes() for k, v in x.items() if isinstance(v, np.ndarray)}
        for preset in PRESETS:
            program = rt.compile(mod.build(), pipeline=preset, memoize=False)
            ex = MemExecutor(program.compiled.fun, vectorize=False)
            vals, ref = ex.run(**x)
            want = [rt.materialize(ex, v) for v in vals]
            for outs, stats, lease in serve(path, program, x, monkeypatch):
                at = (name, preset, stats.tape)
                assert lease.most_bytes <= stats.peak_bytes, at
                assert stats.peak_bytes == ref.peak_bytes, at
                assert stats.signature() == ref.signature(), at
                for a, b in zip(want, outs):
                    assert np.array_equal(a, b), at
                for k, v in before.items():
                    assert x[k].tobytes() == v, (at, k)


@pytest.mark.gate
@pytest.mark.parametrize("path", PATHS)
def test_more_iterations_hold_no_more_buffers(path, monkeypatch):
    """hotspot's loop allocates per iteration; each iteration's blocks
    die at its end, so 20 iterations hold as many buffers as 5."""
    mod = module("hotspot")
    held = []
    for iters in (5, 20):
        program = rt.compile(mod.build(), memoize=False)
        got = serve(path, program, mod.inputs_for(16, iters), monkeypatch)
        held.append({lease.most_buffers for _, _, lease in got})
    assert held[0] == held[1] and len(held[0]) == 1


@pytest.mark.native
@pytest.mark.parametrize(
    "name, args, copied",
    [("hotspot", (16, 3), ()), ("lbm", (8, 3), ()),
     ("nw", (4, 8), ("A",)), ("lud", (3, 4), ("A",))],
)
def test_a_tape_binds_what_nothing_writes_in_place(name, args, copied, monkeypatch):
    """``nw`` and ``lud`` update their ``A`` in place (a loop carries it
    in its own block), so their tapes copy it; what no launch, copy or
    fill writes is the caller's array.  ``coverage()`` says which, and
    how many blocks, buffers and bytes the tape holds."""
    mod = module(name)
    program = rt.compile(mod.build(), memoize=False)
    x = read_only(mod.inputs_for(*args))
    (first, stats, lease), _ = serve("tape", program, x, monkeypatch)
    assert stats.tape == "captured"
    (entry,) = program.coverage()["classes"].values()
    arrays = sorted(k for k, v in x.items() if isinstance(v, np.ndarray))
    assert sorted(entry["inputs"]) == arrays
    for k, how in entry["inputs"].items():
        if k in copied:
            assert how.startswith("copied: written by t_"), (k, how)
        else:
            assert how == "in place", k
    assert entry["buffers"] == stats.pool_misses <= entry["slots"]
    assert entry["bytes"] == lease.most_bytes <= stats.peak_bytes


@pytest.mark.parametrize("how", ["bare", "dry", "leased"])
def test_a_lease_run_keeps_only_live_blocks(how):
    """The blocks a run retired leave ``ex.mem`` in every mode -- a bare
    real executor, a dry one and one on a lease: what remains are the
    inputs and the blocks of the results."""
    mod = module("hotspot")
    program = rt.compile(mod.build(), memoize=False)
    fun = program.compiled.fun
    with WatchedPool().lease() as lease:
        if how == "dry":
            ex = MemExecutor(fun, mode="dry")
            vals, _ = ex.run(**mod.dry_inputs_for(16, 5))
        else:
            ex = MemExecutor(fun, pool=lease if how == "leased" else None)
            vals, _ = ex.run(**mod.inputs_for(16, 5))
        inputs = {
            binding_of(p).mem for p in fun.params
            if binding_of(p) is not None
        }
        assert set(ex.mem) == inputs | {v.mem for v in vals}
