"""The polyhedral fallback tier recovers previously-rejected sites.

The headline case is NW: its two widened-slice candidates used to die on
``non-invertible-layout`` because the structural prover cannot discharge
the leftover-region obligation of a widened rebase.  The relation
engine's per-face emptiness proof can, so the full compile now commits
all 6 candidates (2 widened; the per-diagonal similarity-table staging
contributes 2 structural ones) with the extra commits attributed to the
polyhedral tier -- and the optimized program must stay observably
identical: bit-identical outputs, identical traffic signature across
both executor tiers, verifier-clean under every pipeline preset.
"""

import numpy as np
import pytest

from repro.analysis.verifier import verify_fun
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from tests.mem import traffic_signature

BENCH = all_benchmarks()
PRESETS = ("unopt", "sc", "sc+fuse", "full")


def _outputs(fun, inputs, vectorize=True):
    ex = MemExecutor(fun, vectorize=vectorize)
    inp = {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()
    }
    vals, stats = ex.run(**inp)
    return [
        np.asarray(materialize(ex, v), dtype=np.float64) for v in vals
    ], stats


def test_nw_widened_sites_recovered_by_polyhedral_tier():
    opt = compile_fun(BENCH["nw"].build())
    st = opt.sc_stats
    assert st.committed == 6, st
    assert st.widened_candidates == 2, st
    assert st.tiers.get("polyhedral", 0) >= 2, st
    # The structural-era rejection reason must be gone entirely.
    assert "non-invertible-layout" not in st.failures, st.failures


def test_nw_recovery_preserves_outputs_and_traffic():
    mod = BENCH["nw"]
    inputs = mod.inputs_for(*mod.TEST_DATASETS["tiny"])
    opt = compile_fun(mod.build())
    unopt = compile_fun(mod.build(), pipeline="unopt")

    vec_out, vec_stats = _outputs(opt.fun, inputs)
    ref_out, _ = _outputs(unopt.fun, inputs)
    for a, b in zip(vec_out, ref_out):
        assert np.array_equal(a, b)

    # Tier equivalence: the interpreted executor agrees bit-for-bit and
    # byte-for-byte with the vectorized engine on the optimized program.
    interp_out, interp_stats = _outputs(opt.fun, inputs, vectorize=False)
    for a, b in zip(vec_out, interp_out):
        assert np.array_equal(a, b)
    assert traffic_signature(vec_stats) == traffic_signature(interp_stats)


@pytest.mark.parametrize("preset", PRESETS)
def test_nw_verifier_clean_under_every_preset(preset):
    res = compile_fun(BENCH["nw"].build(), pipeline=preset, verify=True)
    report = verify_fun(res.fun)
    assert report.ok(), report.render()
