"""Simulated-GPU substrate: device models and the roofline cost model.

The paper evaluates on an NVIDIA A100 and an AMD MI100; we have neither,
so (per the reproduction's substitution rule) the executor counts memory
traffic, flops and kernel launches exactly, and this package converts those
counts into simulated wall-clock time with a roofline model:

    t(kernel) = max(bytes / effective_bandwidth,
                    flops / effective_flops) + launch_overhead

Short-circuiting is a memory-traffic optimization, so its *impact* (the
opt/unopt ratio -- the paper's headline column) depends only on measured
traffic, which we count exactly; the absolute milliseconds and the
ref-relative columns inherit the model's approximations (no cache model,
no occupancy effects), which EXPERIMENTS.md documents.
"""

from repro.gpu.device import A100, MI100, Device
from repro.gpu.costmodel import CostModel

__all__ = ["A100", "MI100", "Device", "CostModel"]
