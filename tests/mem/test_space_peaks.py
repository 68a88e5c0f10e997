"""Per-space peak accounting: every measurement must agree.

Mirrors ``tests/reuse/test_footprint.py``'s total-peak agreement at the
per-space granularity: the executor keeps a live/peak counter *per
memory space*, and the dicts it reports interpreted, vectorized, dry and
through ``estimate_peak`` (a dry run on the real inputs' shapes) must
match exactly on every benchmark under both pipelines.  A second test
pins that the placement actually uses the scratchpad: kernel-local
intermediates land in ``scratch`` somewhere in the corpus, so the
agreement is not vacuous.
"""

import pytest

from repro.bench.harness import compile_both
from repro.bench.programs import all_benchmarks
from repro.mem.exec import MemExecutor
from repro.reuse import estimate_peak

BENCHMARKS = all_benchmarks()


def _fresh(inp):
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}


def _nonzero(d):
    return {k: v for k, v in d.items() if v}


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_space_peak_agreement_across_tiers_and_estimator(name):
    module = BENCHMARKS[name]
    args = module.TEST_DATASETS["small"]
    for compiled in compile_both(module):
        inp = module.inputs_for(*args)
        ex_i = MemExecutor(compiled.fun, vectorize=False)
        ex_i.run(**_fresh(inp))
        ex_v = MemExecutor(compiled.fun)
        ex_v.run(**_fresh(inp))
        _, dry = MemExecutor(compiled.fun, mode="dry").run(
            **module.dry_inputs_for(*args)
        )
        est = estimate_peak(compiled.fun, inp)
        four = [
            _nonzero(ex_i.stats.space_peak_bytes),
            _nonzero(ex_v.stats.space_peak_bytes),
            _nonzero(dry.space_peak_bytes),
            _nonzero(est.space_peaks),
        ]
        assert four[0] == four[1] == four[2] == four[3], (name, four)
        # Every per-space peak is bounded by the total high-water mark,
        # and the inputs alone put the hbm peak at param_bytes or more.
        for sp, peak in four[0].items():
            assert 0 < peak <= ex_i.stats.peak_bytes, (name, sp, peak)
        assert four[0].get("hbm", 0) >= est.param_bytes, (name, four[0])


def test_scratch_is_used_somewhere():
    """Kernel-local intermediates are placed in scratch; at least the
    block-recurrence benchmarks keep some through the full pipeline."""
    with_scratch = set()
    for name, module in BENCHMARKS.items():
        args = module.TEST_DATASETS["small"]
        for label, compiled in zip(("unopt", "opt"), compile_both(module)):
            est = estimate_peak(compiled.fun, module.inputs_for(*args))
            if est.space_peaks.get("scratch"):
                with_scratch.add((name, label))
    assert len({n for n, _ in with_scratch}) >= 3, with_scratch
