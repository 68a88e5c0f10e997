"""Device models for the two GPUs of the paper's evaluation.

Parameters are taken from the public datasheets; *efficiency* factors
reflect that streaming kernels reach only a fraction of peak (STREAM-like
efficiency ~85% on A100 HBM2e, a bit lower on MI100), and that irregular
(strided/gather) access patterns reach less still.

The relative standing of the two devices matters for table *shape*: the
MI100 has lower achievable bandwidth and higher launch overhead, which is
one reason the paper's MI100 columns show larger short-circuiting impact
for copy-bound benchmarks (e.g. LBM: 1.6x on MI100 vs 1.1x on A100).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Device:
    """A simulated GPU."""

    name: str
    #: Peak DRAM bandwidth, bytes/second.
    peak_bandwidth: float
    #: Achievable fraction of peak for contiguous streaming access.
    stream_efficiency: float
    #: Achievable fraction of peak for strided/gathered access.
    strided_efficiency: float
    #: Peak f32 throughput, flop/s.
    peak_flops: float
    #: Fraction of peak flops typical scalar-heavy kernels achieve.
    flop_efficiency: float
    #: Host-side kernel launch overhead, seconds.
    launch_overhead: float
    #: Aggregate bandwidth of kernel-local memory (blocks allocated
    #: inside an outermost map) as a multiple of peak DRAM bandwidth.
    #: Datasheet-order figure: ~19 TB/s shared memory on A100 vs
    #: 1.55 TB/s HBM2e.
    local_bandwidth_x: float

    @property
    def stream_bandwidth(self) -> float:
        return self.peak_bandwidth * self.stream_efficiency

    @property
    def local_bandwidth(self) -> float:
        return self.peak_bandwidth * self.local_bandwidth_x

    @property
    def strided_bandwidth(self) -> float:
        return self.peak_bandwidth * self.strided_efficiency

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.flop_efficiency


#: NVIDIA A100 (40 GB, HBM2e): 1555 GB/s, 19.5 TFLOP/s f32, ~4 us launches.
A100 = Device(
    name="A100",
    peak_bandwidth=1555e9,
    stream_efficiency=0.85,
    strided_efficiency=0.55,
    peak_flops=19.5e12,
    flop_efficiency=0.25,
    launch_overhead=4e-6,
    local_bandwidth_x=12.0,
)

#: AMD MI100: 1228 GB/s HBM2, 23.1 TFLOP/s f32, ~8 us launches (HIP).
MI100 = Device(
    name="MI100",
    peak_bandwidth=1228e9,
    stream_efficiency=0.75,
    strided_efficiency=0.40,
    peak_flops=23.1e12,
    flop_efficiency=0.25,
    launch_overhead=8e-6,
    local_bandwidth_x=9.0,
)
