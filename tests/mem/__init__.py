"""Test helpers over :class:`~repro.mem.stats.ExecStats`."""


def traffic_signature(stats) -> tuple:
    """``stats.signature()`` minus the allocation counters.

    Memory reuse (:mod:`repro.reuse`) merges allocations, so runs with
    and without it agree on traffic, flops and launches but not on
    ``alloc_bytes``/``alloc_count``; the differential tests pin exactly
    that.
    """
    return stats.signature()[:3]


def local_traffic(stats) -> tuple:
    """Per-kernel kernel-local traffic: ``((kind, label), reads,
    writes)`` for every kernel that touched a kernel-local block.

    :meth:`ExecStats.signature` ignores locality, yet the cost model
    prices these bytes (:meth:`repro.gpu.CostModel.kernel_time`), so the
    accountants are compared on them separately.
    """
    return tuple(sorted(
        (key, ks.local_read, ks.local_written)
        for key, ks in stats.kernels.items()
        if ks.local_bytes
    ))
