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

    def kernel_time(self, k: KernelStat) -> float:
        if k.kind in ("copy", "update", "concat", "fill"):
            bw = self.device.stream_bandwidth
        else:
            f = DEFAULT_COALESCED_FRACTION
            bw = (
                f * self.device.stream_bandwidth
                + (1.0 - f) * self.device.strided_bandwidth
            )
        # Kernel-local and HBM traffic are parallel channels that
        # overlap, so the memory time is the *max* of the two times, not
        # their sum.  All-HBM kernels reduce to bytes/bw.
        mem_t = k.hbm_bytes / bw
        if k.local_bytes:
            mem_t = max(mem_t, k.local_bytes / self.device.local_bandwidth)
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
