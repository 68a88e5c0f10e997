"""A shape class's first native request walks its host program once
(``Program._record``): a dry run that plans every kernel the request
reaches before anything launches and records the launch tape, stops
where the host program reads buffer contents, and leaves later kernels
to their first launch."""

import importlib

import numpy as np
import pytest

import repro.runtime as rt
from repro.backend.cemit import KernelSpec
from repro.ir.builder import FunBuilder
from repro.ir.types import ArrayType
from repro.runtime import Program
from repro.runtime.program import _outermost_maps


def argmin_between_maps():
    """y = 2x; (v, i) = argmin y on the host; z = y - v."""
    b = FunBuilder("argmid")
    n = b.size_param("n")
    x = b.param("x", ArrayType("f32", (n,)))
    m = b.map_(n, names=["y"])
    m.returns(m.binop("*", m.index(x, [m.idx]), 2.0))
    (y,) = m.end()
    v, _ = b.argmin(y)
    m = b.map_(n, names=["z"])
    m.returns(m.binop("-", m.index(y, [m.idx]), v))
    m.end()
    b.returns("z")
    return b.build()


def branch_in_loop():
    """Three host iterations: the first adds one, the later ones double
    -- a map the run first reaches in iteration 1, in a taken branch."""
    b = FunBuilder("loopif")
    n = b.size_param("n")
    x = b.param("x", ArrayType("f32", (n,)))
    lp = b.loop(count=3, carried=[("a", x)], index="k")
    br = lp.if_(lp.binop(">", lp.idx, 0))
    for side, op, arg in ((br.then_builder, "*", 2.0), (br.else_builder, "+", 1.0)):
        m = side.map_(n)
        m.returns(m.binop(op, m.index(lp["a"], [m.idx]), arg))
        side.returns(*m.end())
    lp.returns(*br.end())
    b.returns(*lp.end())
    return b.build()


def request(n, seed=0):
    x = np.random.default_rng(seed).standard_normal(n).astype(np.float32)
    return {"n": n, "x": x}


def walked(program, inputs):
    """The engine's plans after the walk alone, by map statement."""
    engine = program._native(None)
    program._record(
        engine, inputs, program._shape_class(program.shape_key(inputs), inputs)
    )
    maps = list(_outermost_maps(program.compiled.fun.body))
    return [engine.plans.get(id(m)) for m in maps]


def same_outputs(program, inputs):
    outs, stats = program.run(inputs)
    want, want_stats = program.run(inputs, native=False)
    for a, b in zip(outs, want):
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert stats.signature() == want_stats.signature()
    return stats


@pytest.mark.native
def test_the_walk_stops_at_a_host_argmin():
    program = rt.compile(argmin_between_maps(), memoize=False)
    first, second = walked(program, request(16))
    assert isinstance(first, KernelSpec) and second is None
    for n, seed in ((16, 0), (16, 1), (24, 2)):
        stats = same_outputs(program, request(n, seed))
        assert stats.native_launches == 2  # the second built at its launch
    (why,) = program.declined.records  # one, however many requests
    assert (why.layer, why.rule) == ("tape", "host-data-dependent")


@pytest.mark.native
def test_the_walk_follows_host_loops_and_taken_branches():
    program = rt.compile(branch_in_loop(), memoize=False)
    plans = walked(program, request(16))
    assert len(plans) == 2 and all(
        isinstance(p, KernelSpec) and p.per_thread is None for p in plans
    )
    # The walk recorded the class's tape: the request replays it.
    stats = same_outputs(program, request(16))
    assert stats.native_launches == 3 and stats.tape == "replayed"
    stats = same_outputs(program, request(24))
    assert stats.native_launches == 3 and stats.tape == "captured"


@pytest.mark.parametrize("how", ["env", "native"])
def test_no_walk_without_the_native_tier(how, monkeypatch):
    if how == "env":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    walks = []
    monkeypatch.setattr(Program, "_record", lambda *a: walks.append(a))
    program = rt.compile(argmin_between_maps(), memoize=False)
    program.run(request(8), native=None if how == "env" else False)
    assert walks == []


@pytest.mark.native
def test_a_walk_that_prints_and_builds_nothing_adds_no_codegen_time():
    """``engine.codegen_seconds`` times printing and building kernels,
    not the walk around them: nw's second class finds every kernel
    planned and built."""
    mod = importlib.import_module("repro.bench.programs.nw")
    program = rt.compile(mod.build(), memoize=False)
    program.run(mod.inputs_for(4, 8))
    engine = program._native_engine
    spent = engine.codegen_seconds
    assert spent > 0
    assert program.run(mod.inputs_for(6, 16))[1].tape == "captured"
    assert engine.codegen_seconds == spent
