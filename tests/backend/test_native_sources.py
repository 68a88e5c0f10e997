"""The emitted C, pinned byte for byte.

Every ``KernelSpec.source`` the native engine emits for the seven
benchmarks under the six pipeline presets (``small`` datasets), for the
30 corpus seeds and for the hand-built lowering cases is recorded by
its sha256 and byte length in ``native_sources.json``.  A refactor of
the emitter must leave that table as it is; a change to the kernels on
purpose rewrites it (``python -m tests.backend.test_native_sources``)
and declares its ``generated_c_bytes`` move.  A ``Program``'s
first-request walk must plan the same kernels before anything launches.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import NativeEngine
from repro.backend.cemit import KernelSpec
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.pipeline import PRESETS
from repro.runtime import Program
from tests.backend.test_native_corpus import SEEDS, _inputs
from tests.mem.test_vectorize import LOWERING_CASES
from tests.opt.conftest import random_two_stage_pipeline

pytestmark = [pytest.mark.gate, pytest.mark.native]

TABLE = Path(__file__).with_name("native_sources.json")


def _cases():
    """``(key, build, inputs)``: ``build()`` gives the compiled function."""
    for name, module in sorted(all_benchmarks().items()):
        inputs = module.inputs_for(*module.TEST_DATASETS["small"])
        for preset in PRESETS:
            yield f"{name}/{preset}", (
                lambda m=module, p=preset: compile_fun(m.build(), pipeline=p).fun
            ), inputs
    for seed in SEEDS:
        yield f"corpus/{seed}", (
            lambda s=seed: compile_fun(
                random_two_stage_pipeline(np.random.RandomState(s)),
                pipeline="full",
            ).fun
        ), _inputs(seed)
    for case in LOWERING_CASES:
        fun, inputs = case()
        for preset in ("unopt", "full"):
            yield f"{case.__name__}/{preset}", (
                lambda f=fun, p=preset: compile_fun(f, pipeline=p).fun
            ), inputs


def sources(build, inputs):
    """``[sha256, bytes]`` of every kernel one native run emits, sorted."""
    eng = NativeEngine()
    MemExecutor(build(), native=eng).run(**{
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()
    })
    return sorted(
        [hashlib.sha256(s.source.encode()).hexdigest(), len(s.source.encode())]
        for s in eng.plans.values() if isinstance(s, KernelSpec)
    )


CASES = list(_cases())


@pytest.mark.parametrize(
    "key, build, inputs", CASES, ids=[key for key, _, _ in CASES]
)
def test_emitted_c_is_pinned(key, build, inputs):
    want = json.loads(TABLE.read_text())[key]
    assert sources(build, inputs) == want


@pytest.mark.parametrize(
    "key, build, inputs", CASES, ids=[key for key, _, _ in CASES]
)
def test_first_request_walk_plans_the_pinned_c(key, build, inputs):
    """A ``Program``'s walk plans, before any launch, every kernel its
    first request would emit at that kernel's own first launch."""
    program = Program(SimpleNamespace(fun=build()), memoize=False)
    eng = program._native_engine = NativeEngine()
    program._native_probed = True
    program._record(
        eng, inputs, program._shape_class(program.shape_key(inputs), inputs)
    )
    specs = [s for s in eng.plans.values() if isinstance(s, KernelSpec)]
    assert all(s.fn is not None and s.per_thread is None for s in specs)
    assert sorted(
        [hashlib.sha256(s.source.encode()).hexdigest(), len(s.source.encode())]
        for s in specs
    ) == json.loads(TABLE.read_text())[key]


if __name__ == "__main__":
    table = {key: sources(build, inputs) for key, build, inputs in CASES}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(table)} cases", file=sys.stderr)
