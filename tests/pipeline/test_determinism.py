"""The compiler is deterministic under hash randomisation.

Context fingerprints and verdict-table keys are built from
``frozenset``s, and perfbench's exact metrics assume that the same
source compiles to the same IR in every process.  Compile all seven
benchmarks under ``full`` in two interpreters with different
``PYTHONHASHSEED``s and compare the printed IR plus the prover pool's
``(client, tier, result)`` log and counters.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.gate

SRC = Path(__file__).resolve().parents[2] / "src"

DUMP = """
from repro.bench.programs import all_benchmarks
from repro.ir.pretty import pretty_fun
from repro.pipeline import CompileContext, PassManager, preset_pipeline

for name, mod in all_benchmarks().items():
    ctx = CompileContext(source=mod.build())
    PassManager(preset_pipeline("full"), "full").run(ctx)
    pool = ctx.provers
    print("==", name)
    print(pretty_fun(ctx.mfun))
    for r in pool.query_log:
        print(r.client, r.tier, r.result)
    print(pool.hits, pool.misses, pool.verdict_hits, pool.verdict_misses,
          pool.refuted_by_shared_point)
"""


def dump(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, "-c", DUMP], env=env, check=True,
        capture_output=True, text=True,
    ).stdout


def test_full_pipeline_is_identical_under_two_hash_seeds():
    first, second = dump("0"), dump("1")
    assert "== lud" in first and "sc polyhedral True" in first
    assert first == second
