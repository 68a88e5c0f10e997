"""Test helpers over :class:`~repro.mem.stats.ExecStats`."""


def traffic_signature(stats) -> tuple:
    """``stats.signature()`` minus the allocation counters.

    Memory reuse (:mod:`repro.reuse`) merges allocations, so runs with
    and without it agree on traffic, flops and launches but not on
    ``alloc_bytes``/``alloc_count``; the differential tests pin exactly
    that.
    """
    return stats.signature()[:3]


def space_traffic(stats) -> tuple:
    """Per-kernel non-HBM traffic: ``((kind, label), reads, writes)`` for
    every kernel that touched a non-HBM space, each side a sorted tuple
    of ``(space, bytes)``.

    :meth:`ExecStats.signature` is space-agnostic, yet the cost model
    prices these bytes (:meth:`repro.gpu.CostModel.kernel_time`), so the
    accountants are compared on them separately.
    """

    def nonzero(d):
        return tuple(sorted((sp, n) for sp, n in d.items() if n))

    rows = (
        (key, nonzero(ks.space_read), nonzero(ks.space_written))
        for key, ks in stats.kernels.items()
    )
    return tuple(sorted(r for r in rows if r[1] or r[2]))
