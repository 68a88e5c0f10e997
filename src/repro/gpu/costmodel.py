"""Roofline cost model: executor statistics to simulated seconds.

Per kernel:

    t = max(bytes / bandwidth, flops / effective_flops)
        + launches * launch_overhead

Copies (``copy``/``update``/``concat`` kernels) stream contiguously and use
the stream bandwidth; ``map``/``reduce`` kernels use a blend between stream
and strided bandwidth (GPU coalescing is decided by the innermost stride,
which the executor does not track per access; the blend parameter is a
documented approximation, not a per-benchmark tuning knob).

A ``sequential`` flag models Rodinia NN's sequential reference reduction
(one element per "round trip"), used only by reference models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import Device
from repro.mem.stats import ExecStats, KernelStat

#: Fraction of map-kernel traffic assumed coalesced.
DEFAULT_COALESCED_FRACTION = 0.7


@dataclass
class CostModel:
    """Converts :class:`~repro.mem.stats.ExecStats` into simulated time."""

    device: Device
    coalesced_fraction: float = DEFAULT_COALESCED_FRACTION

    def kernel_time(self, k: KernelStat) -> float:
        if k.kind in ("copy", "update", "concat", "fill"):
            bw = self.device.stream_bandwidth
        else:
            f = self.coalesced_fraction
            bw = (
                f * self.device.stream_bandwidth
                + (1.0 - f) * self.device.strided_bandwidth
            )
        # Memory spaces are parallel channels: DRAM and on-chip traffic
        # overlap, so the memory time is the *max* over per-space times,
        # not their sum.  All-HBM kernels reduce to the old bytes/bw.
        hbm_bytes = k.read_in("hbm") + k.written_in("hbm")
        mem_t = hbm_bytes / bw
        for sp in set(k.space_read) | set(k.space_written):
            sp_bytes = k.space_read.get(sp, 0) + k.space_written.get(sp, 0)
            if sp_bytes:
                mem_t = max(mem_t, sp_bytes / self.device.space_bandwidth(sp))
        flop_t = k.flops / self.device.effective_flops
        return max(mem_t, flop_t) + k.launches * self.device.launch_overhead

    def total_time(self, stats: ExecStats) -> float:
        return sum(self.kernel_time(k) for k in stats.kernels.values())

    def time_of_traffic(
        self,
        bytes_read: int,
        bytes_written: int,
        flops: int = 0,
        launches: int = 1,
        sequential_elems: int = 0,
    ) -> float:
        """Time for an analytically-modelled (reference) kernel.

        ``sequential_elems`` adds one memory round-trip latency per element
        -- the model of Rodinia NN's sequential reduction (paper table VII's
        "Rodinia is significantly slower, because it uses a sequential
        reduction").
        """
        mem_t = (bytes_read + bytes_written) / self.device.stream_bandwidth
        flop_t = flops / self.device.effective_flops
        seq_t = sequential_elems * 1.2e-8  # ~12ns dependent-op latency
        return max(mem_t, flop_t) + seq_t + launches * self.device.launch_overhead
