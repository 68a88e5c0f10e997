"""Test helpers over :class:`~repro.mem.stats.ExecStats`."""


def traffic_signature(stats) -> tuple:
    """``stats.signature()`` minus the allocation counters.

    Memory reuse (:mod:`repro.reuse`) merges allocations, so runs with
    and without it agree on traffic, flops and launches but not on
    ``alloc_bytes``/``alloc_count``; the differential tests pin exactly
    that.
    """
    return stats.signature()[:3]
