"""Multi-device sharding simulation (see :mod:`repro.shard.runner`)."""

from repro.shard.halo import build_halo_copy
from repro.shard.runner import (
    LINK_BANDWIDTH,
    LINK_LATENCY,
    ShardResult,
    run_sharded,
    scaling_report,
)

__all__ = [
    "LINK_BANDWIDTH",
    "LINK_LATENCY",
    "ShardResult",
    "build_halo_copy",
    "run_sharded",
    "scaling_report",
]
