"""Multi-device sharding: hotspot's grid split across N simulated GPUs.

The grid's rows are partitioned into N per-device bands, each padded
with one ghost (halo) row above and below.  The per-device step program
is a real memory-IR program (:func:`repro.bench.programs.hotspot.
build_rect`) compiled once and run N times per step; the ghost refreshes
between steps are executions of the :mod:`repro.shard.halo` copy
program, so *all* traffic -- compute and exchange alike -- flows through
executor accounting.  A ghost row is the neighbouring device's edge row,
or at the global boundary the device's own edge row (edge replication):
one exchange per boundary per direction per time step.  A single-device
run performs the same copies but moves nothing across the interconnect,
so its ``halo_bytes`` is 0.

Simulated time: per step, devices run concurrently (max of their cost
-model times) and the exchange phase pays max over concurrent link
transfers (latency + payload/bandwidth); cross-device efficiency is
``T(1) / (N * T(N))``.  Outputs are required to be bit-identical across
device counts -- the decomposition only moves *where* a cell is
computed, never its f32 expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.compiler import compile_fun
from repro.gpu import A100, CostModel, Device
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.shard.halo import build_halo_copy

#: Simulated inter-device link (NVLink-class): bytes/second and per
#: -transfer latency.  Only cross-device exchanges pay these; same
#: -device ghost refreshes are local copies at stream bandwidth.
LINK_BANDWIDTH = 64e9
LINK_LATENCY = 5e-6


@dataclass
class ShardResult:
    """One sharded run of hotspot."""

    #: Bytes moved across the inter-device links (payload, not doubled
    #: for read+write); 0 for a single device.
    halo_bytes: int
    halo_exchanges: int
    #: Simulated wall-clock: per step, max over concurrent devices plus
    #: the exchange phase.
    sim_time_s: float
    outputs: List[np.ndarray]


def run_sharded(
    name: str,
    args: Sequence[int],
    devices: int,
    device: Device = A100,
) -> ShardResult:
    """Run benchmark ``name`` at ``args`` split across ``devices``; only
    hotspot has a decomposition."""
    if name != "hotspot":
        raise KeyError(
            f"no sharded decomposition for {name!r} (available: hotspot)"
        )
    from repro.bench.programs import hotspot

    nv, iters = args
    if nv % devices:
        raise ValueError(f"hotspot: {devices} devices do not divide n={nv}")
    h = nv // devices
    inp = hotspot.inputs_for(nv, iters)
    T, P = inp["T"], inp["P"]
    cm = CostModel(device)
    step_prog = compile_fun(hotspot.build_rect())
    halo_prog = compile_fun(build_halo_copy())
    res = ShardResult(halo_bytes=0, halo_exchanges=0, sim_time_s=0.0,
                      outputs=[])

    def run(compiled, **inputs):
        """Run one compiled program: (first output, cost-model time)."""
        ex = MemExecutor(compiled.fun)
        vals, st = ex.run(**inputs)
        return materialize(ex, vals[0]), cm.total_time(st)

    def refresh(src, dst, soff: int, doff: int, cross: bool) -> float:
        """Copy one grid row of ``src`` into ``dst`` (flat offsets)
        through the halo program; the exchange's simulated time.
        ``cross`` marks a transfer between two distinct devices."""
        dflat = dst.reshape(-1)
        out, _ = run(halo_prog, ls=src.size, ld=dst.size, soff=soff,
                     doff=doff, cnt=nv, S=src.reshape(-1), D=dflat)
        np.copyto(dflat, out.reshape(-1))
        payload = nv * 4
        if not cross:
            return payload / device.stream_bandwidth
        res.halo_bytes += payload
        res.halo_exchanges += 1
        return LINK_LATENCY + payload / LINK_BANDWIDTH

    slabs, pslabs = [], []
    for d in range(devices):
        slab = np.zeros((h + 2, nv), dtype=np.float32)
        slab[1 : h + 1] = T[d * h : (d + 1) * h]
        pslab = np.zeros((h + 2, nv), dtype=np.float32)
        pslab[1 : h + 1] = P[d * h : (d + 1) * h]
        slabs.append(slab)
        pslabs.append(pslab)

    last, ghost = h * nv, (h + 1) * nv  # flat offsets of rows h, h + 1
    for _ in range(iters):
        # Ghost refresh: neighbours, or edge replication at the boundary.
        t_halo = 0.0
        for d in range(devices):
            if d > 0:
                t = refresh(slabs[d - 1], slabs[d], last, 0, cross=True)
            else:
                t = refresh(slabs[0], slabs[0], nv, 0, cross=False)
            t_halo = max(t_halo, t)
            if d < devices - 1:
                t = refresh(slabs[d + 1], slabs[d], nv, ghost, cross=True)
            else:
                t = refresh(slabs[d], slabs[d], last, ghost, cross=False)
            t_halo = max(t_halo, t)
        t_step = 0.0
        for d in range(devices):
            out, t = run(step_prog, h=h, n=nv, T=slabs[d], P=pslabs[d])
            slabs[d] = out.astype(np.float32, copy=False).reshape(h + 2, nv)
            t_step = max(t_step, t)
        res.sim_time_s += t_step + t_halo

    res.outputs = [np.concatenate([s[1 : h + 1] for s in slabs], axis=0)]
    return res


def scaling_report(
    name: str,
    args: Sequence[int],
    devices: int,
    device: Device = A100,
) -> Dict[str, object]:
    """N-device vs 1-device differential: identity, halo, efficiency."""
    base = run_sharded(name, args, 1, device)
    shard = run_sharded(name, args, devices, device)
    identical = len(base.outputs) == len(shard.outputs) and all(
        np.array_equal(a, b) for a, b in zip(base.outputs, shard.outputs)
    )
    efficiency = (
        base.sim_time_s / (devices * shard.sim_time_s)
        if shard.sim_time_s > 0
        else 0.0
    )
    return {
        "benchmark": name,
        "dataset": list(args),
        "devices": devices,
        "outputs_identical": identical,
        "halo_bytes": shard.halo_bytes,
        "halo_exchanges": shard.halo_exchanges,
        "base_halo_bytes": base.halo_bytes,
        "sim_time_1dev_s": base.sim_time_s,
        "sim_time_ndev_s": shard.sim_time_s,
        "efficiency": efficiency,
        "speedup": (
            base.sim_time_s / shard.sim_time_s if shard.sim_time_s else 0.0
        ),
    }
