"""Shared infrastructure for the paper-table benchmarks.

Each ``test_table*.py`` regenerates one table of the paper's evaluation
section through the full pipeline (compile twice, validate on real data at
small scale, dry-run at paper scale, apply the device cost models).  The
rendered tables are printed and also written to ``benchmarks/results/`` so
EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import pathlib
import sys
import warnings

import pytest

warnings.filterwarnings("ignore")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# A table whose program tier-1 already checks imports the test's builder.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def table_benchmark(benchmark, module, paper_impacts, loop_sample=None,
                    datasets=None):
    """Run one table end-to-end under pytest-benchmark and sanity-check it.

    ``paper_impacts`` is (lo, hi): the paper's reported impact range; the
    reproduction asserts only the *shape* -- every measured impact >= 1.0
    (short-circuiting never loses) and the mean impact within a generous
    factor of the paper's band.
    """
    from repro.bench.harness import run_table

    report = {}

    def run():
        report["r"] = run_table(
            module, loop_sample=loop_sample, datasets=datasets
        )
        return report["r"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    rep = report["r"]
    text = rep.render()
    text += f"\nvalidated against reference: {rep.validated}"
    text += f"\nshort-circuits committed   : {rep.sc_committed}"
    text += f"\ndead-copy reuses           : {rep.sc_reused_copies}"
    save_result(rep.name, text)

    benchmark.extra_info["validated"] = rep.validated
    benchmark.extra_info["sc_committed"] = rep.sc_committed
    for r in rep.rows:
        benchmark.extra_info[f"{r.device}/{r.dataset}/impact"] = round(r.impact, 3)

    assert rep.validated, "optimized pipeline diverged from the reference"
    impacts = [r.impact for r in rep.rows]
    assert all(i >= 0.999 for i in impacts), f"impact below 1x: {impacts}"
    lo, hi = paper_impacts
    mean = sum(impacts) / len(impacts)
    assert mean >= 1.0 and mean <= hi * 2.5, (
        f"mean impact {mean:.2f} wildly off the paper's {lo}-{hi} band"
    )
    return rep
