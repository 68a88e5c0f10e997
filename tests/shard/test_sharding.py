"""Multi-device sharding: bit-identity, halo accounting, scaling.

Hotspot's row-band decomposition only moves *where* a cell is computed
-- the f32 expression tree per cell is the same -- so outputs must be
bit-identical across device counts, and identical to the original
(unsharded) benchmark program.  Halo traffic is only the cross-device
payload: a 1-device run performs the same ghost refreshes (edge
replication) but moves nothing over the link.
"""

import numpy as np
import pytest

from repro.compiler import compile_fun
from repro.mem.exec import MemExecutor, RuntimeArray
from repro.shard import build_halo_copy, run_sharded, scaling_report

#: Small-but-interesting datasets: every device gets a non-trivial slab
#: and at least one cross-device exchange happens per step.
DATASETS = {"hotspot": (16, 3)}


def _materialize(ex, val):
    if isinstance(val, RuntimeArray):
        return np.asarray(ex.mem[val.mem][val.ixfn.gather_offsets({})])
    return np.asarray(val)


def _original_output(name, args):
    from repro.bench.programs import all_benchmarks

    module = all_benchmarks()[name]
    compiled = compile_fun(module.build())
    inp = module.inputs_for(*args)
    ex = MemExecutor(compiled.fun)
    vals, _ = ex.run(**inp)
    return _materialize(ex, vals[0]).reshape(-1)


def test_halo_copy_is_a_strided_copy():
    """The halo program is a unit-stride LMAD copy: D[doff + k] =
    S[soff + k], leaving the rest of D untouched."""
    compiled = compile_fun(build_halo_copy())
    rng = np.random.RandomState(0)
    S = rng.randn(40).astype(np.float32)
    D = rng.randn(50).astype(np.float32)
    soff, doff, cnt = 3, 11, 8
    expect = D.copy()
    expect[doff : doff + cnt] = S[soff : soff + cnt]
    ex = MemExecutor(compiled.fun)
    vals, st = ex.run(
        ls=S.size, ld=D.size, soff=soff, doff=doff, cnt=cnt,
        S=S.copy(), D=D.copy(),
    )
    assert np.array_equal(_materialize(ex, vals[0]), expect)
    # Short-circuiting lands the gather in the destination block: the
    # exchange costs one read + one write of the payload, nothing more.
    assert st.elided_copies >= 1


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_one_device_matches_original_program(name):
    args = DATASETS[name]
    res = run_sharded(name, args, 1)
    assert np.array_equal(
        res.outputs[0].reshape(-1), _original_output(name, args)
    )
    # Same-device ghost refreshes move nothing across the link.
    assert res.halo_bytes == 0


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_two_devices_bit_identical_with_halo_traffic(name):
    rep = scaling_report(name, DATASETS[name], 2)
    assert rep["outputs_identical"], rep
    assert rep["halo_bytes"] > 0
    assert rep["halo_exchanges"] > 0
    assert rep["base_halo_bytes"] == 0
    assert 0.0 < rep["efficiency"] <= 1.0, rep


@pytest.mark.parametrize("name,devices", [("hotspot", 4)])
def test_four_devices_still_identical(name, devices):
    rep = scaling_report(name, DATASETS[name], devices)
    assert rep["outputs_identical"], rep
    assert rep["halo_bytes"] > 0


def test_indivisible_grid_is_rejected():
    with pytest.raises(ValueError):
        run_sharded("hotspot", (16, 2), 3)
    # Hotspot's row bands are the only decomposition.
    for name, args in (("nw", (4, 16)), ("lbm", (8, 4)), ("nn", (16,))):
        with pytest.raises(KeyError, match="available: hotspot"):
            run_sharded(name, args, 2)
