"""Reuse on vs off must be invisible to everything but the allocator.

For every benchmark, both executor tiers, the coalesced program's
outputs are bit-identical to the unconstrained one's and the traffic
signature (bytes moved, flops, launches) is untouched -- only the
allocation columns of the stats may differ.
"""

import numpy as np

import pytest

from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor
from tests.mem import traffic_signature

BENCHMARKS = all_benchmarks()


def _outputs(ex, vals):
    out = []
    for v in vals:
        if hasattr(v, "mem"):
            out.append(np.asarray(ex.mem[v.mem][v.ixfn.gather_offsets({})]))
        else:
            out.append(np.asarray(v))
    return out


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_reuse_preserves_outputs_and_traffic(name):
    module = BENCHMARKS[name]
    args = module.TEST_DATASETS["small"]
    inp = module.inputs_for(*args)
    fun_on = compile_fun(module.build()).fun
    fun_off = compile_fun(module.build(), pipeline="sc+fuse").fun
    for vectorize in (True, False):
        runs = []
        for fun in (fun_on, fun_off):
            ex = MemExecutor(fun, vectorize=vectorize)
            vals, stats = ex.run(
                **{
                    k: (v.copy() if hasattr(v, "copy") else v)
                    for k, v in inp.items()
                }
            )
            runs.append((_outputs(ex, vals), stats))
        (out_on, st_on), (out_off, st_off) = runs
        for a, b in zip(out_on, out_off):
            assert np.array_equal(a, b), (name, vectorize)
        assert traffic_signature(st_on) == traffic_signature(st_off), (
            name,
            vectorize,
        )
