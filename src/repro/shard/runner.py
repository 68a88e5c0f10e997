"""Multi-device sharding: run a benchmark split across N simulated GPUs.

The outermost grid dimension of a benchmark is partitioned into N
per-device slabs, each padded with explicit ghost (halo) regions.  The
per-device step program is a real memory-IR program (the benchmark
module's ``build_rect``) compiled once and served N times per step; the
ghost refreshes between steps are executions of the
:mod:`repro.shard.halo` copy program, so *all* traffic -- compute and
exchange alike -- flows through executor accounting.  Bytes moved
between two distinct devices are tallied into
:attr:`repro.mem.stats.ExecStats.halo_bytes`; a single-device run
performs the same copies (periodic wraps, edge replication) but moves
nothing across the interconnect, so its ``halo_bytes`` is 0.

Decompositions:

* **hotspot** -- row bands; ghost rows are the neighbouring devices'
  edge rows (edge replication at the global boundary).  One exchange
  per boundary per direction per time step.
* **lbm** -- row bands with *periodic* wrap: device 0's top ghost comes
  from device N-1's bottom row and vice versa.
* **nw** -- column bands of ``q/N`` block-columns each; devices sweep
  the global anti-diagonals as a wavefront pipeline, and after each
  sweep every device re-sends its right boundary column to its right
  neighbour's ghost column.  The pipeline's fill/drain shows up as
  idle devices at the early/late diagonals -- exactly the scaling
  -efficiency loss a real blocked wavefront pays.

Simulated time: per step, devices run concurrently (max of their cost
-model times) and the exchange phase pays max over concurrent link
transfers (latency + payload/bandwidth); cross-device efficiency is
``T(1) / (N * T(N))``.  Outputs are required to be bit-identical across
device counts -- the decomposition only moves *where* a cell is
computed, never its f32 expression tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compiler import compile_fun
from repro.gpu import A100, CostModel, Device
from repro.mem.exec import MemExecutor
from repro.mem.stats import ExecStats
from repro.runtime import materialize
from repro.shard.halo import build_halo_copy

#: Simulated inter-device link (NVLink-class): bytes/second and per
#: -transfer latency.  Only cross-device exchanges pay these; same
#: -device ghost refreshes are local copies at stream bandwidth.
LINK_BANDWIDTH = 64e9
LINK_LATENCY = 5e-6


@dataclass
class ShardResult:
    """One sharded run of one benchmark."""

    name: str
    devices: int
    steps: int
    #: Bytes moved across the inter-device links (payload, not doubled
    #: for read+write); 0 for a single device.
    halo_bytes: int
    halo_exchanges: int
    #: Simulated wall-clock: per step, max over concurrent devices plus
    #: the exchange phase.
    sim_time_s: float
    #: Sum of all devices' compute time (work, not wall-clock).
    compute_time_s: float
    outputs: List[np.ndarray]
    #: Aggregate executor statistics over every program run of this
    #: sharded execution, with ``halo_bytes`` stamped.
    stats: ExecStats = field(default_factory=ExecStats)


class _Runner:
    """Shared machinery: program serving, halo copies, time accounting."""

    def __init__(self, device: Device):
        self.device = device
        self.cm = CostModel(device)
        self.halo_prog = compile_fun(build_halo_copy())
        self.halo_bytes = 0
        self.halo_exchanges = 0
        self.sim_time_s = 0.0
        self.compute_time_s = 0.0
        self.agg = ExecStats()
        self._peak = 0

    # ------------------------------------------------------------------
    def run_program(self, compiled, **inputs) -> Tuple[np.ndarray, float]:
        """Run one compiled program; returns (first output array, time)."""
        ex = MemExecutor(compiled.fun)
        vals, st = ex.run(**inputs)
        out = materialize(ex, vals[0])
        self.agg.merge_scaled(st, 1.0)
        self._peak = max(self._peak, st.peak_bytes)
        t = self.cm.total_time(st)
        self.compute_time_s += t
        return out, t

    # ------------------------------------------------------------------
    def halo_copy(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        soff: int,
        sstr: int,
        doff: int,
        dstr: int,
        cnt: int,
        cross: bool,
    ) -> float:
        """Refresh one ghost region of ``dst`` from ``src`` (flat views).

        Executes the halo program and writes the result back into
        ``dst``; returns the exchange's simulated time.  ``cross`` marks
        a transfer between two distinct devices (tallied + link-priced).
        """
        sflat = np.ascontiguousarray(src).reshape(-1)
        dflat = np.ascontiguousarray(dst).reshape(-1)
        out, _ = self.run_program(
            self.halo_prog,
            ls=sflat.size,
            ld=dflat.size,
            soff=soff,
            sstr=sstr,
            doff=doff,
            dstr=dstr,
            cnt=cnt,
            S=sflat,
            D=dflat,
        )
        np.copyto(dst.reshape(-1), out.reshape(-1))
        payload = cnt * 4
        if cross:
            self.halo_bytes += payload
            self.halo_exchanges += 1
            return LINK_LATENCY + payload / LINK_BANDWIDTH
        return payload / self.device.stream_bandwidth

    # ------------------------------------------------------------------
    def finish(
        self, name: str, devices: int, steps: int, outputs: List[np.ndarray]
    ) -> ShardResult:
        self.agg.halo_bytes = self.halo_bytes
        self.agg.peak_bytes = self._peak
        return ShardResult(
            name=name,
            devices=devices,
            steps=steps,
            halo_bytes=self.halo_bytes,
            halo_exchanges=self.halo_exchanges,
            sim_time_s=self.sim_time_s,
            compute_time_s=self.compute_time_s,
            outputs=outputs,
            stats=self.agg,
        )


# ----------------------------------------------------------------------
# hotspot: row bands with edge-replicated global boundary
# ----------------------------------------------------------------------
def _run_hotspot(args: Sequence[int], devices: int, device: Device) -> ShardResult:
    from repro.bench.programs import hotspot as module

    nv, iters = args
    if nv % devices:
        raise ValueError(f"hotspot: {devices} devices do not divide n={nv}")
    h = nv // devices
    inp = module.inputs_for(nv, iters)
    T, P = inp["T"], inp["P"]

    rn = _Runner(device)
    prog = compile_fun(module.build_rect())

    slabs, pslabs = [], []
    for d in range(devices):
        slab = np.zeros((h + 2, nv), dtype=np.float32)
        slab[1 : h + 1] = T[d * h : (d + 1) * h]
        pslab = np.zeros((h + 2, nv), dtype=np.float32)
        pslab[1 : h + 1] = P[d * h : (d + 1) * h]
        slabs.append(slab)
        pslabs.append(pslab)

    row = nv  # elements per row
    for _ in range(iters):
        # Ghost refresh: neighbours, or edge replication at the boundary.
        t_halo = 0.0
        for d in range(devices):
            if d > 0:
                t = rn.halo_copy(slabs[d - 1], slabs[d], h * row, 1, 0, 1,
                                 row, cross=True)
            else:
                t = rn.halo_copy(slabs[0], slabs[0], 1 * row, 1, 0, 1,
                                 row, cross=False)
            t_halo = max(t_halo, t)
            if d < devices - 1:
                t = rn.halo_copy(slabs[d + 1], slabs[d], 1 * row, 1,
                                 (h + 1) * row, 1, row, cross=True)
            else:
                t = rn.halo_copy(slabs[d], slabs[d], h * row, 1,
                                 (h + 1) * row, 1, row, cross=False)
            t_halo = max(t_halo, t)
        t_step = 0.0
        for d in range(devices):
            out, t = rn.run_program(
                prog, h=h, n=nv, T=slabs[d], P=pslabs[d]
            )
            slabs[d] = out.astype(np.float32, copy=False).reshape(h + 2, nv)
            t_step = max(t_step, t)
        rn.sim_time_s += t_step + t_halo

    grid = np.concatenate([s[1 : h + 1] for s in slabs], axis=0)
    return rn.finish("hotspot", devices, iters, [grid])


# ----------------------------------------------------------------------
# lbm: row bands with periodic wrap
# ----------------------------------------------------------------------
def _run_lbm(args: Sequence[int], devices: int, device: Device) -> ShardResult:
    from repro.bench.programs import lbm as module

    nv, steps = args
    if nv % devices:
        raise ValueError(f"lbm: {devices} devices do not divide n={nv}")
    h = nv // devices
    inp = module.inputs_for(nv, steps)
    f = inp["f"].reshape(nv, nv * 9)  # row-major cell rows

    rn = _Runner(device)
    prog = compile_fun(module.build_rect())

    slabs = []
    for d in range(devices):
        slab = np.zeros((h + 2, nv * 9), dtype=np.float32)
        slab[1 : h + 1] = f[d * h : (d + 1) * h]
        slabs.append(slab)

    row = nv * 9
    for _ in range(steps):
        t_halo = 0.0
        for d in range(devices):
            up = (d - 1) % devices
            dn = (d + 1) % devices
            t = rn.halo_copy(slabs[up], slabs[d], h * row, 1, 0, 1, row,
                             cross=up != d)
            t_halo = max(t_halo, t)
            t = rn.halo_copy(slabs[dn], slabs[d], 1 * row, 1,
                             (h + 1) * row, 1, row, cross=dn != d)
            t_halo = max(t_halo, t)
        t_step = 0.0
        for d in range(devices):
            out, t = rn.run_program(
                prog,
                h=h,
                n=nv,
                f=slabs[d].reshape((h + 2) * nv, 9),
                dirs=inp["dirs"],
                w=inp["w"],
            )
            slabs[d] = out.astype(np.float32, copy=False).reshape(
                h + 2, nv * 9
            )
            t_step = max(t_step, t)
        rn.sim_time_s += t_step + t_halo

    grid = np.concatenate([s[1 : h + 1] for s in slabs], axis=0)
    return rn.finish("lbm", devices, steps, [grid.reshape(nv * nv, 9)])


# ----------------------------------------------------------------------
# nw: column bands sweeping the global anti-diagonals as a pipeline
# ----------------------------------------------------------------------
def _run_nw(args: Sequence[int], devices: int, device: Device) -> ShardResult:
    from repro.bench.programs import nw as module

    qv, bv = args
    if qv % devices:
        raise ValueError(f"nw: {devices} devices do not divide q={qv}")
    qc = qv // devices
    nv = qv * bv + 1
    w = qc * bv + 1
    A = module.make_input(nv).reshape(nv, nv)

    rn = _Runner(device)
    prog = compile_fun(module.build_rect())

    # Device d's slab: its qc*b matrix columns plus the ghost column on
    # the left (global column d*qc*b, device 0's being the real col 0).
    slabs = [
        np.ascontiguousarray(A[:, d * qc * bv : d * qc * bv + w])
        for d in range(devices)
    ]

    diagonals = 2 * qv - 1
    for i in range(diagonals):
        active = []
        for d in range(devices):
            bj_lo = max(d * qc, i - qv + 1)
            bj_hi = min((d + 1) * qc, i + 1)
            if bj_hi > bj_lo:
                active.append((d, bj_lo, bj_hi))
        t_step = 0.0
        for d, bj_lo, bj_hi in active:
            cnt = bj_hi - bj_lo
            bj0 = bj_hi - 1
            bi0 = i - bj0
            lb0 = bj0 - d * qc
            woff = (bi0 * bv + 1) * w + (lb0 * bv + 1)
            out, t = rn.run_program(
                prog,
                b=bv,
                nr=nv,
                w=w,
                cnt=cnt,
                woff=woff,
                gdiag=i,
                A=slabs[d].reshape(-1),
            )
            slabs[d] = out.astype(np.float32, copy=False).reshape(nv, w)
            t_step = max(t_step, t)
        # Right boundary column of every active device feeds the right
        # neighbour's ghost column before the next sweep.
        t_halo = 0.0
        for d, _lo, _hi in active:
            if d + 1 < devices:
                t = rn.halo_copy(
                    slabs[d], slabs[d + 1], w - 1, w, 0, w, nv, cross=True
                )
                t_halo = max(t_halo, t)
        rn.sim_time_s += t_step + t_halo

    parts = [slabs[0]] + [s[:, 1:] for s in slabs[1:]]
    grid = np.concatenate(parts, axis=1)
    return rn.finish("nw", devices, diagonals, [grid.reshape(-1)])


#: Benchmark name -> sharded runner.
SHARDED: Dict[str, Callable[..., ShardResult]] = {
    "hotspot": _run_hotspot,
    "lbm": _run_lbm,
    "nw": _run_nw,
}


def run_sharded(
    name: str,
    args: Sequence[int],
    devices: int,
    device: Device = A100,
) -> ShardResult:
    """Run benchmark ``name`` at ``args`` split across ``devices``."""
    try:
        runner = SHARDED[name]
    except KeyError:
        raise KeyError(
            f"no sharded decomposition for {name!r} "
            f"(available: {', '.join(sorted(SHARDED))})"
        ) from None
    return runner(args, devices, device)


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
