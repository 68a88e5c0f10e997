"""Execution statistics: the raw material of the simulated-GPU cost model.

The memory-IR executor records, per *kernel* (a ``map`` launch, an explicit
``copy``/``concat``/``update`` data movement, or a ``reduce``):

* bytes read from and written to memory blocks,
* scalar floating-point operations,
* launch counts (a map inside a sequential loop launches once per
  iteration, exactly like a kernel inside a host loop on a real GPU).

Copies whose source already lives at the destination (the result of
short-circuiting) are tallied as *elided* instead -- the measured
difference between the unoptimized and optimized pipelines is precisely
the paper's "Opt. Impact" column.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple


@dataclass
class KernelStat:
    """Aggregated statistics for one static kernel site."""

    kind: str  # "map" | "copy" | "update" | "concat" | "reduce" | "fill"
    #: ``kind:names`` of the statement -- binding names are unique in a
    #: program, so ``(kind, label)`` identifies the site.
    label: str
    launches: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    flops: int = 0
    #: The part of ``bytes_read``/``bytes_written`` that touched a
    #: kernel-local block (one allocated inside an outermost map).  HBM
    #: traffic is the remainder, so the totals above stay the single
    #: source of truth (and the signature ignores locality).
    local_read: int = 0
    local_written: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def local_bytes(self) -> int:
        return self.local_read + self.local_written

    @property
    def hbm_bytes(self) -> int:
        """Bytes read or written in HBM: the remainder of the totals."""
        return self.bytes_total - self.local_bytes

    def note_read(self, nbytes: int, local: bool) -> None:
        self.bytes_read += nbytes
        if local:
            self.local_read += nbytes

    def note_written(self, nbytes: int, local: bool) -> None:
        self.bytes_written += nbytes
        if local:
            self.local_written += nbytes

    def merge_scaled(self, other: "KernelStat", factor: float) -> None:
        self.launches += other.launches  # launches do not scale with threads
        self.bytes_read += int(other.bytes_read * factor)
        self.bytes_written += int(other.bytes_written * factor)
        self.flops += int(other.flops * factor)
        self.local_read += int(other.local_read * factor)
        self.local_written += int(other.local_written * factor)


@dataclass
class ExecStats:
    """Whole-run statistics."""

    kernels: Dict[Tuple[str, str], KernelStat] = field(default_factory=dict)
    elided_copies: int = 0
    elided_bytes: int = 0
    alloc_bytes: int = 0
    alloc_count: int = 0
    #: High-water mark of live allocation bytes (input blocks plus
    #: allocations whose lifetime has not ended), maintained by the
    #: executor's lifetime model (``mem_frees`` annotations, kernel-end
    #: frees, loop-iteration reachability).  Excluded from
    #: :meth:`signature` and :meth:`merge_scaled`: it is a property of
    #: the whole run, set once at the end, not a mergeable counter --
    #: and programs compiled with and without ``mem_frees`` annotations
    #: must still be signature-equal.
    peak_bytes: int = 0
    #: Execution-tier counters (real mode): how many ``map`` statement
    #: executions ran on the vectorized engine vs the interpreted
    #: fallback.  Pure wall-clock bookkeeping -- excluded from
    #: :meth:`signature`, because the tiers must agree on every simulated
    #: quantity.
    vec_launches: int = 0
    interp_launches: int = 0
    #: Outermost map launches served by the compiled-C tier
    #: (:mod:`repro.backend`).  Like the other tier counters this
    #: describes *how* the run executed, never *what* it simulated, so
    #: it is excluded from :meth:`signature`.
    native_launches: int = 0
    #: Fusion accounting (:mod:`repro.opt.fuse`): producers inlined into
    #: the kernels this run launched, and the write+read round trip the
    #: elided intermediates would have cost.  Excluded from
    #: :meth:`signature`: fusion intentionally changes the traffic, so
    #: the gates compare fused-vs-unfused *outputs* (bit-identical) and
    #: assert the traffic strictly decreases instead.
    fused_kernels: int = 0
    bytes_elided_fusion: int = 0
    #: Runtime buffer-pool counters (:mod:`repro.runtime.pool`): how many
    #: allocations this run served from reused pooled buffers vs fresh
    #: ``np.zeros``.  Like the execution-tier counters, these describe
    #: *how* memory was obtained, not *what* the program simulated, so
    #: they are excluded from :meth:`signature` and from
    #: :meth:`merge_scaled`.
    pool_hits: int = 0
    pool_misses: int = 0
    #: How :class:`repro.runtime.Program` produced this run with respect
    #: to its launch tapes (:mod:`repro.runtime.tape`): ``"captured"``
    #: (the first replay of a tape just recorded for this shape class),
    #: ``"replayed"``, or ``"off: <reason>"``.  Describes
    #: *how* the run executed -- excluded from :meth:`signature`.
    tape: str = "off: bare executor"

    # ------------------------------------------------------------------
    def copy(self) -> "ExecStats":
        """An independent copy (every mutable part duplicated)."""
        out = copy.copy(self)
        out.kernels = {key: replace(ks) for key, ks in self.kernels.items()}
        return out

    def kernel(self, kind: str, label: str) -> KernelStat:
        key = (kind, label)
        ks = self.kernels.get(key)
        if ks is None:
            ks = self.kernels[key] = KernelStat(kind, label)
        return ks

    def merge_scaled(self, other: "ExecStats", factor: float) -> None:
        """Fold in a sub-run's stats, scaling data volume by ``factor``.

        Used by the dry-run executor: a map body is executed once and its
        traffic multiplied by the map's width (or a sampled loop body by
        the trip-count/samples ratio).
        """
        for key, ks in other.kernels.items():
            mine = self.kernels.get(key)
            if mine is None:
                mine = KernelStat(ks.kind, ks.label)
                self.kernels[key] = mine
            mine.merge_scaled(ks, factor)
        self.elided_copies += int(other.elided_copies * factor)
        self.elided_bytes += int(other.elided_bytes * factor)
        self.alloc_bytes += int(other.alloc_bytes * factor)
        self.alloc_count += int(other.alloc_count * factor)
        # Like launches, fused-kernel counts are per-launch facts; the
        # elided traffic is data volume and scales with the thread count.
        self.fused_kernels += other.fused_kernels
        self.bytes_elided_fusion += int(other.bytes_elided_fusion * factor)

    # ------------------------------------------------------------------
    @property
    def bytes_read(self) -> int:
        return sum(k.bytes_read for k in self.kernels.values())

    @property
    def bytes_written(self) -> int:
        return sum(k.bytes_written for k in self.kernels.values())

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def flops(self) -> int:
        return sum(k.flops for k in self.kernels.values())

    @property
    def launches(self) -> int:
        return sum(k.launches for k in self.kernels.values())

    @property
    def native_hit_rate(self) -> float:
        """Fraction of real-mode map dispatches served by compiled
        native kernels.  0.0 when nothing dispatched (dry mode, or the
        tier is off)."""
        total = (
            self.native_launches + self.vec_launches + self.interp_launches
        )
        return self.native_launches / total if total else 0.0

    def signature(self) -> tuple:
        """Canonical tuple of every *simulated* quantity.

        Two runs of the same program are cost-model equivalent iff their
        signatures are equal; the differential tests use this to pin the
        vectorized engine to the interpreted path bit-for-bit.
        Execution-tier counters are deliberately excluded: they describe
        *how* the run executed, not *what* it simulated.
        """
        kernels = sorted(
            (k.kind, k.label, k.launches, k.bytes_read, k.bytes_written, k.flops)
            for k in self.kernels.values()
        )
        return (
            tuple(kernels),
            self.elided_copies,
            self.elided_bytes,
            self.alloc_bytes,
            self.alloc_count,
        )

    def copy_traffic(self) -> int:
        """Bytes moved by pure data-movement kernels (copy/update/concat)."""
        return sum(
            k.bytes_total
            for k in self.kernels.values()
            if k.kind in ("copy", "update", "concat")
        )

    def summary(self) -> str:
        lines = [
            f"kernel launches : {self.launches}",
            f"bytes read      : {self.bytes_read:,}",
            f"bytes written   : {self.bytes_written:,}",
            f"flops           : {self.flops:,}",
            f"copy traffic    : {self.copy_traffic():,} bytes",
            f"elided copies   : {self.elided_copies} ({self.elided_bytes:,} bytes)",
            f"fused producers : {self.fused_kernels} "
            f"({self.bytes_elided_fusion:,} bytes elided)",
            f"allocations     : {self.alloc_count} ({self.alloc_bytes:,} bytes)",
        ]
        if self.native_launches:
            lines.append(
                f"native kernels  : {self.native_launches} launches "
                f"(hit rate {self.native_hit_rate:.2f}, tape {self.tape})"
            )
        if self.pool_hits or self.pool_misses:
            lines.append(
                f"pooled buffers  : {self.pool_hits} reused / "
                f"{self.pool_misses} fresh (hit rate "
                f"{self.pool_hits / (self.pool_hits + self.pool_misses):.2f})"
            )
        return "\n".join(lines)
