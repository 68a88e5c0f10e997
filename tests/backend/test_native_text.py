"""What the emitter hands to ``cc`` (ABI v4), as text.

The kernels are fast because of what the C compiler can see: counters
that live in registers, index components the memory IR knows printed as
literals, and nothing in the translation unit the body does not use.
And a launch can be cut into parts because the thread loop runs
``[T0, W)`` and nothing else reads ``W``.  Each property is asserted on
the emitted source of real kernels.
"""

import re

import numpy as np
import pytest

from repro import FunBuilder, compile_fun, f32
from repro.backend import NativeEngine, native_enabled
from repro.backend.cemit import KernelSpec
from repro.bench.programs import all_benchmarks
from repro.ir import scalar
from repro.mem.exec import MemExecutor
from repro.pipeline.presets import PRESETS
from repro.symbolic import Var
from tests.backend.test_native_corpus import SEEDS, _inputs
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = pytest.mark.skipif(
    not native_enabled(), reason="no C compiler available"
)


def _specs(fun, inputs):
    eng = NativeEngine()
    MemExecutor(fun, native=eng).run(**inputs)
    # A kernel the emitter crashed on is served a tier down: no test
    # would notice, so none may exist.
    assert not [d for d in eng.declined.records if d.rule == "internal-error"]
    return [s for s in eng.plans.values() if isinstance(s, KernelSpec)]


@pytest.fixture(scope="module")
def benchmark_specs():
    return [
        spec
        for mod in all_benchmarks().values()
        for preset in PRESETS
        for spec in _specs(
            compile_fun(mod.build(), pipeline=preset).fun,
            mod.inputs_for(*mod.TEST_DATASETS["small"]),
        )
    ]


def test_prelude_is_present_iff_called(benchmark_specs):
    corpus = [
        spec for seed in SEEDS for spec in _specs(
            compile_fun(
                random_two_stage_pipeline(np.random.RandomState(seed)),
                pipeline="full",
            ).fun,
            _inputs(seed),
        )
    ]
    seen = set()
    for spec in benchmark_specs + corpus:
        prelude, body = spec.source.split("void repro_kernel(")
        for text in dict.fromkeys(scalar.PRELUDE.values()):
            called = any(
                call in body for call, t in scalar.PRELUDE.items() if t == text
            )
            assert (text in prelude) == called, spec.source
            seen.add((text, called))
        assert "(void)" not in spec.source
    # Not vacuous: every piece is somewhere included and somewhere left
    # out (<stdlib.h> has no caller in either corpus).
    assert len(seen) == 7 and ("#include <stdlib.h>\n", True) not in seen


def test_thread_loop_starts_at_t0_and_w_is_only_its_bound(benchmark_specs):
    """A part ``[T0, W)`` of a launch indexes in-kernel allocation
    slots by ``t`` like the whole launch does: nothing but the thread
    loop's bound may read the launch width."""
    head = "void repro_kernel(long long T0, long long W, const long long*"
    loop = "for (long long t = T0; t < W; t++)"
    allocating = 0
    for spec in benchmark_specs:
        assert spec.source.startswith("/* repro kernel, ABI v4 */\n")
        assert spec.source.count(head) == spec.source.count(loop) == 1
        assert len(re.findall(r"\bW\b", spec.source)) == 2, spec.source
        assert len(re.findall(r"\bT0\b", spec.source)) == 2, spec.source
        allocating += bool(spec.alloc_sites)
    assert allocating  # slots indexed by t exist to be checked


def test_counters_live_in_locals_and_flush_at_exit(benchmark_specs):
    flush = re.compile(r"((?:    C\[(\d+)\] \+= c\2;\n)+)\}\n\Z")
    for spec in benchmark_specs:
        tail = flush.search(spec.source)
        assert tail, spec.source
        # Every ``C[`` is one of the straight-line flushes after the
        # thread loop; every bumped local is declared and flushed.
        assert spec.source.count("C[") == tail.group(1).count("C[")
        assert "for (" not in tail.group(1)
        bumped = set(re.findall(r"\b(c\d+) \+=", spec.source))
        declared = set(re.findall(r"long long (c\d+) = 0;", spec.source))
        flushed = set(re.findall(r"\+= (c\d+);", tail.group(1)))
        assert bumped == declared == flushed and bumped


def test_ir_constants_are_literals_and_shape_variables_arguments():
    n, m = Var("n"), Var("m")
    b = FunBuilder("column")
    b.size_param("n")
    b.size_param("m")
    A = b.param("A", f32(n, m))
    mp = b.map_(n, index="i")
    mp.returns(mp.index(A, [mp.idx, 1]))
    b.returns(*mp.end())
    fun = compile_fun(b.build(), pipeline="full").fun
    inputs = {"n": 5, "m": 7, "A": np.zeros((5, 7), dtype=np.float32)}
    (spec,) = _specs(fun, inputs)

    slot, literals = 0, {}
    for d in spec.int_dirs:
        if d[0] == "arrcomp":
            literals[d[1]] = (slot, d[4])
        slot += len(d[4]) if d[0] == "arrcomp" else 1
    # Row-major A: offset 0 and the innermost stride 1 are the IR's own
    # constants; n, m and the row stride m are the request's.
    base, lits = literals[("env", "A")]
    assert lits == (0, None, None, None, 1)
    assert f"t*ia[{base + 2}] + 1;" in spec.source
    assert f"ia[{base}]" not in spec.source
    assert f"ia[{base + 4}]" not in spec.source



def test_one_kernel_source_serves_every_shape_class():
    mod = all_benchmarks()["optionpricing"]
    fun = compile_fun(mod.build(), pipeline="full").fun
    eng = NativeEngine()
    digests = []
    for size in ("tiny", "small"):
        _, stats = MemExecutor(fun, native=eng).run(
            **mod.inputs_for(*mod.TEST_DATASETS[size])
        )
        assert stats.native_launches == 1
        digests.append([
            s.digest for s in eng.plans.values() if isinstance(s, KernelSpec)
        ])
    assert digests[0] == digests[1] and len(digests[0]) == 1
    assert not [d for d in eng.declined.records if d.layer == "launch"]
