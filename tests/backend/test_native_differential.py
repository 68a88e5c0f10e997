"""Differential tests for the native C executor tier.

The contract under test is the tier-equivalence invariant extended to
three tiers: for every benchmark and every pipeline preset, the native
tier's outputs and every simulated :class:`ExecStats` quantity --
``signature()``, ``traffic_signature()``, ``peak_bytes`` -- are
bit-identical to the vectorized and interpreted tiers.  The native tier
may *decline* work (emission rejects a construct, a launch's structure
changes) but must never change it.
"""

import numpy as np
import pytest

from repro.backend import NativeEngine
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.runtime import materialize

pytestmark = pytest.mark.native

BENCHMARKS = all_benchmarks()

#: Benchmarks whose outermost maps all lower to C under the full
#: pipeline (optionpricing keeps one exp-using map on the vectorized
#: tier; locvolcalib's tridiagonal solves use Python-semantics min/max
#: on mixed scalar kinds, which the emitter refuses).
FULLY_NATIVE = {"nw", "lud", "hotspot", "lbm", "nn"}


def _run(fun, **kw):
    inp = kw.pop("inputs")
    ex = MemExecutor(fun, **kw)
    vals, stats = ex.run(
        **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}
    )
    outs = [np.asarray(materialize(ex, v)) for v in vals]
    return outs, stats


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("preset", ["unopt", "sc", "sc+fuse", "full"])
def test_native_matches_other_tiers(name, preset):
    module = BENCHMARKS[name]
    compiled = compile_fun(module.build(), pipeline=preset)
    inp = module.inputs_for(*module.TEST_DATASETS["small"])

    outs_n, st_n = _run(compiled.fun, inputs=inp, native=NativeEngine())
    outs_v, st_v = _run(compiled.fun, inputs=inp)
    for a, b in zip(outs_n, outs_v):
        assert np.array_equal(a, b)
    assert st_n.signature() == st_v.signature()
    assert st_n.traffic_signature() == st_v.traffic_signature()
    assert st_n.peak_bytes == st_v.peak_bytes
    if name in FULLY_NATIVE:
        assert st_n.native_launches > 0
        assert st_n.vec_launches == st_n.interp_launches == 0


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_native_matches_interpreter(name):
    module = BENCHMARKS[name]
    compiled = compile_fun(module.build(), pipeline="full")
    inp = module.inputs_for(*module.TEST_DATASETS["small"])

    outs_n, st_n = _run(compiled.fun, inputs=inp, native=NativeEngine())
    outs_i, st_i = _run(compiled.fun, inputs=inp, vectorize=False)
    for a, b in zip(outs_n, outs_i):
        assert np.array_equal(a, b)
    assert st_n.signature() == st_i.signature()
    assert st_n.peak_bytes == st_i.peak_bytes


def test_plan_sharing_and_permanent_rejection_cache():
    """Plans are emitted once per statement and shared across executors;
    a second run re-launches the compiled kernels without re-emission."""
    module = BENCHMARKS["nn"]
    compiled = compile_fun(module.build(), pipeline="full")
    inp = module.inputs_for(200)
    eng = NativeEngine()
    _run(compiled.fun, inputs=inp, native=eng)
    emitted = dict(eng.plans)
    secs = eng.codegen_seconds
    outs2, st2 = _run(compiled.fun, inputs=inp, native=eng)
    assert eng.plans == emitted  # nothing re-planned
    assert eng.codegen_seconds == secs  # nothing re-emitted
    assert st2.native_launches > 0
