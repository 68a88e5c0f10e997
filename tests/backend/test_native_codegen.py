"""Generated-C structure: fused kernels lower to single-loop bodies.

The point of emitting from the *post-pipeline* memory IR is that the
fusion pass's work survives lowering: a producer inlined into its
consumer must yield one C loop over the thread space with the producer's
scalar expression spliced inline -- not a loop per original kernel and
not a materialized intermediate.
"""

import numpy as np
import pytest

from repro.backend import NativeEngine
from repro.backend.cemit import KernelSpec
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = pytest.mark.native


def _fused_specs(fun, engine):
    """KernelSpecs of outermost map statements carrying FusedRecords."""
    specs = []
    for stmt in fun.body.stmts:
        if getattr(stmt, "fused", ()) and id(stmt) in engine.plans:
            spec = engine.plans[id(stmt)]
            if isinstance(spec, KernelSpec):
                specs.append(spec)
    return specs


def test_fused_two_stage_pipeline_is_single_loop():
    # Seed 2 lowers fully (no mixed-kind min/max) and fuses.
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(2)),
        pipeline="full",
    ).fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    data = np.random.RandomState(0)
    ex.run(n=33, xs=data.randn(33).astype(np.float32))
    specs = _fused_specs(fun, eng)
    assert specs, "pipeline did not fuse or did not lower"
    for spec in specs:
        # Exactly one loop: the thread loop.  The inlined producer
        # contributes scalar statements, never a second loop or a
        # buffer round-trip.
        assert spec.source.count("for (") == 1, spec.source


def test_fused_benchmark_kernel_is_single_loop():
    from repro.bench.programs import nn

    fun = compile_fun(nn.build(), pipeline="full").fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    inp = nn.inputs_for(*nn.TEST_DATASETS["small"])
    ex.run(**inp)
    specs = _fused_specs(fun, eng)
    assert specs, "nn did not fuse or did not lower"
    for spec in specs:
        assert spec.source.count("for (") == 1, spec.source


def test_counter_stores_present():
    """The emitted C charges the simulated counters itself -- traffic
    accounting is compiled in, not replayed in Python."""
    fun = compile_fun(
        random_two_stage_pipeline(np.random.RandomState(2)),
        pipeline="full",
    ).fun
    eng = NativeEngine()
    ex = MemExecutor(fun, native=eng)
    data = np.random.RandomState(0)
    ex.run(n=33, xs=data.randn(33).astype(np.float32))
    (spec,) = _fused_specs(fun, eng)
    assert "C[1] +=" in spec.source  # bytes read
    assert "C[2] +=" in spec.source  # bytes written
    assert "C[3] +=" in spec.source  # flops
