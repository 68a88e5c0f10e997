"""Memory-space accounting: every accountant must agree.

The cost model prices per-space *traffic* (``KernelStat.space_read`` /
``space_written``), and ``ExecStats.signature()`` is space-agnostic, so
this file pins it: on every benchmark under both pipelines, the
interpreted, vectorized, native and unsampled dry runs attribute the
same bytes of every kernel to the same space, and their total
high-water marks equal ``estimate_peak`` (a dry run on the real inputs'
shapes).  A last test pins that the placement actually uses the
scratchpad, so the agreement is not vacuous.
"""

import pytest

from repro.backend import NativeEngine
from repro.bench.harness import compile_both
from repro.bench.programs import all_benchmarks
from repro.mem.exec import MemExecutor
from repro.reuse import estimate_peak
from tests.mem import space_traffic

BENCHMARKS = all_benchmarks()


def _fresh(inp):
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}


def _accounts(module, compiled, tiers):
    """``(space traffic, peak_bytes)`` of each real-mode tier and of the
    unsampled dry run, plus the ``estimate_peak`` total."""
    args = module.TEST_DATASETS["small"]
    inp = module.inputs_for(*args)
    runs = {}
    for tier, kw in tiers.items():
        _, st = MemExecutor(compiled.fun, **kw()).run(**_fresh(inp))
        runs[tier] = (space_traffic(st), st.peak_bytes)
    _, dry = MemExecutor(compiled.fun, mode="dry").run(
        **module.dry_inputs_for(*args)
    )
    runs["dry"] = (space_traffic(dry), dry.peak_bytes)
    return runs, estimate_peak(compiled.fun, inp).peak_bytes


def _assert_agree(name, runs, est):
    assert len(set(runs.values())) == 1, (name, runs)
    (_, peak), = set(runs.values())
    assert peak == est, (name, peak, est)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_space_peak_agreement_across_tiers_and_estimator(name):
    """Per-kernel space traffic and the total peak, interpreted and
    vectorized against dry mode and the estimator."""
    module = BENCHMARKS[name]
    tiers = {"interp": lambda: dict(vectorize=False), "vec": lambda: {}}
    for compiled in compile_both(module):
        _assert_agree(name, *_accounts(module, compiled, tiers))


@pytest.mark.native
@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_native_space_traffic_and_peak_match_dry(name):
    """The C tier's space counter slots and its allocation accounting
    against dry mode and the estimator."""
    module = BENCHMARKS[name]
    tiers = {"native": lambda: dict(native=NativeEngine())}
    for compiled in compile_both(module):
        _assert_agree(name, *_accounts(module, compiled, tiers))


def test_scratch_is_used_somewhere():
    """Kernel-local intermediates are placed in scratch; at least the
    block-recurrence benchmarks move some of their traffic there."""
    with_scratch = set()
    for name, module in BENCHMARKS.items():
        args = module.TEST_DATASETS["small"]
        for label, compiled in zip(("unopt", "opt"), compile_both(module)):
            _, dry = MemExecutor(compiled.fun, mode="dry").run(
                **module.dry_inputs_for(*args)
            )
            if any(
                sp == "scratch"
                for _, reads, writes in space_traffic(dry)
                for sp, _ in reads + writes
            ):
                with_scratch.add((name, label))
    assert len({n for n, _ in with_scratch}) >= 3, with_scratch
