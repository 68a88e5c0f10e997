"""Kernel-local accounting: every accountant must agree.

The cost model prices kernel-local *traffic* (``KernelStat.local_read``
/ ``local_written``: bytes that touched a block allocated inside an
outermost map), and ``ExecStats.signature()`` ignores locality, so this
file pins it: on every benchmark under both pipelines, the interpreted,
vectorized, native and unsampled dry runs attribute the same bytes of
every kernel to kernel-local blocks, and their total high-water marks
equal ``estimate_peak`` (a dry run on the real inputs' shapes).  A last
test pins that some traffic is kernel-local, so the agreement is not
vacuous.
"""

import pytest

from repro.backend import NativeEngine
from repro.bench.harness import compile_both
from repro.bench.programs import all_benchmarks
from repro.mem.exec import MemExecutor
from repro.reuse import estimate_peak
from tests.mem import local_traffic

BENCHMARKS = all_benchmarks()


def _fresh(inp):
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}


def _accounts(module, compiled, tiers):
    """``(local traffic, peak_bytes)`` of each real-mode tier and of the
    unsampled dry run, plus the ``estimate_peak`` total."""
    args = module.TEST_DATASETS["small"]
    inp = module.inputs_for(*args)
    runs = {}
    for tier, kw in tiers.items():
        _, st = MemExecutor(compiled.fun, **kw()).run(**_fresh(inp))
        runs[tier] = (local_traffic(st), st.peak_bytes)
    _, dry = MemExecutor(compiled.fun, mode="dry").run(
        **module.dry_inputs_for(*args)
    )
    runs["dry"] = (local_traffic(dry), dry.peak_bytes)
    return runs, estimate_peak(compiled.fun, inp).peak_bytes


def _assert_agree(name, runs, est):
    assert len(set(runs.values())) == 1, (name, runs)
    (_, peak), = set(runs.values())
    assert peak == est, (name, peak, est)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_space_peak_agreement_across_tiers_and_estimator(name):
    """Per-kernel local traffic and the total peak, interpreted and
    vectorized against dry mode and the estimator."""
    module = BENCHMARKS[name]
    tiers = {"interp": lambda: dict(vectorize=False), "vec": lambda: {}}
    for compiled in compile_both(module):
        _assert_agree(name, *_accounts(module, compiled, tiers))


@pytest.mark.native
@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_native_space_traffic_and_peak_match_dry(name):
    """The C tier's local counter slots and its allocation accounting
    against dry mode and the estimator."""
    module = BENCHMARKS[name]
    tiers = {"native": lambda: dict(native=NativeEngine())}
    for compiled in compile_both(module):
        _assert_agree(name, *_accounts(module, compiled, tiers))


def test_scratch_is_used_somewhere():
    """At least three benchmarks move some traffic through kernel-local
    blocks.  This pins ROADMAP item 1's defect: the cost model prices
    that traffic at an on-chip bandwidth, although the paper's compiler
    keeps such per-thread arrays in global memory.  Item 1 prices it as
    HBM and deletes the local pair, and this test with it."""
    with_local = set()
    for name, module in BENCHMARKS.items():
        args = module.TEST_DATASETS["small"]
        for label, compiled in zip(("unopt", "opt"), compile_both(module)):
            _, dry = MemExecutor(compiled.fun, mode="dry").run(
                **module.dry_inputs_for(*args)
            )
            if local_traffic(dry):
                with_local.add((name, label))
    assert len({n for n, _ in with_local}) >= 3, with_local
