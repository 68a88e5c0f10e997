"""Launch tapes: a Program's host schedule, captured once per shape class.

A warm native request spends most of its time in the Python *around*
its kernels: instantiating index functions, walking argument
directives, proving once more that an update is elided, dispatching
statements.  All of that is a function of the request's **shape class**
(:meth:`repro.runtime.Program.shape_key`: array shapes plus the values
and types of every scalar input) -- unless a host-level statement turns
buffer *contents* into a scalar (``index``/``reduce``/``argmin`` outside
a kernel), which the executor reports and which makes the request
untapeable.

So the first native request at a shape runs the ordinary
:class:`~repro.mem.exec.MemExecutor` with a :class:`TapeRecorder`
attached; if every outermost map ran natively and no host value
depended on data, the recorder freezes a :class:`Tape`:

* the ordered pool acquisitions ``(dtype, size, zero)`` -- a tape holds
  **slot indices, never buffers**; every replay re-acquires from a fresh
  lease, so concurrent replays are private and nothing is pinned;
* the input bindings (parameter name -> slot);
* the host schedule in program order: native launches (the
  :class:`~repro.backend.engine.Launch` objects the engine marshalled,
  with their buffer slots), host-level copies and fills as
  ``(slot, offsets)`` pairs (offset arrays are the ones the Program's
  offset cache already holds);
* where the outputs live;
* the run's *host-only* :class:`~repro.mem.stats.ExecStats` -- launch
  counts, allocation and footprint accounting, fusion and elision
  tallies made on the host -- snapshotted before any C-side counter was
  folded in.

A replay walks the tape: one :func:`~repro.backend.engine.fire` per
launch -- with addresses into one pointer array and one counter array
of the whole request -- no symbolic expression, no statement dispatch.
Bytes and flops
counted inside the kernels are **re-counted** by every replay and folded
into a copy of the host-only statistics through the same
:func:`~repro.backend.engine.distribute` the executor uses, so they
follow each request's data, never the captured run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.cemit import SLOTS
from repro.backend.engine import Launch, distribute, fire
from repro.decisions import Decision
from repro.ir.interp import InterpError
from repro.ir.types import DTYPE_INFO
from repro.mem.exec import RuntimeArray, read_region, region_plan
from repro.mem.stats import ExecStats

#: numpy dtype string -> IR dtype name (what ``PoolLease.acquire`` takes).
_IR_DTYPE = {np.dtype(v[0]).str: k for k, v in DTYPE_INFO.items()}

_LAUNCH, _COPY, _FILL = range(3)


@dataclass(frozen=True, eq=False)
class Tape:
    """The frozen host schedule of one shape class."""

    #: ``(IR dtype, size, zero)`` per pool acquisition, in order.
    acquisitions: tuple
    #: ``(parameter name, slot, numpy dtype)`` per array input.
    inputs: tuple
    #: The schedule: ``(_LAUNCH, launch, ptr offset, row offset)``,
    #: ``(_COPY, dst slot, dst offsets, src slot, src offsets)``,
    #: ``(_FILL, slot, offsets, data)``.
    ops: tuple
    #: Slot of every buffer argument of every launch, concatenated
    #: (``len(acquisitions)`` where a launch supplies its own block).
    ptr_slots: np.ndarray
    #: Distinct counter sites, and the site of every counter row.
    sinks: tuple
    row_sink: np.ndarray
    #: ``("array", slot, region plan)`` or ``("const", value)``.
    outputs: tuple
    #: The capturing run's host-only statistics.
    skeleton: ExecStats
    launches: int

    def replay(self, inputs, lease) -> Tuple[List[object], ExecStats]:
        """Run the schedule on ``inputs`` with buffers from ``lease``."""
        bufs = [
            lease.acquire(size, dtype, zero)[0]
            for dtype, size, zero in self.acquisitions
        ]
        for name, slot, np_dtype in self.inputs:
            if name not in inputs:
                raise InterpError(f"missing input {name!r}")
            np.copyto(
                bufs[slot],
                np.ascontiguousarray(inputs[name], dtype=np_dtype).reshape(-1),
            )
        addrs = np.zeros(len(bufs) + 1, dtype=np.uintp)
        addrs[:-1] = [b.ctypes.data for b in bufs]
        ptrs = addrs[self.ptr_slots]  # every launch's char*[], end to end
        counters = np.zeros(len(self.row_sink) * SLOTS, dtype=np.int64)
        ptr_base, row_base = ptrs.ctypes.data, counters.ctypes.data
        for op in self.ops:
            code = op[0]
            if code == _LAUNCH:
                _, launch, ptr_off, row_off = op
                # In-kernel allocations: a fresh zeroed block per launch,
                # as the engine makes; alive until the call returns.
                blocks = []
                for pos, elems, np_dtype, *_ in launch.allocs:
                    blocks.append(np.zeros(elems, dtype=np_dtype))
                    ptrs[ptr_off + pos] = blocks[-1].ctypes.data
                fire(
                    launch,
                    ptr_base + ptrs.itemsize * ptr_off,
                    row_base + counters.itemsize * SLOTS * row_off,
                )
            elif code == _COPY:
                _, dslot, doffs, sslot, soffs = op
                bufs[dslot][doffs] = bufs[sslot][soffs].reshape(doffs.shape)
            else:
                _, slot, offs, data = op
                bufs[slot][offs] = data
        stats = self.skeleton.copy()
        summed = np.zeros((len(self.sinks), SLOTS), dtype=np.int64)
        np.add.at(summed, self.row_sink, counters.reshape(-1, SLOTS))
        distribute(stats, self.sinks, summed)
        stats.pool_hits, stats.pool_misses = lease.hits, lease.misses
        outs = [
            read_region(bufs[out[1]], out[2]) if out[0] == "array" else out[1]
            for out in self.outputs
        ]
        return outs, stats


class TapeRecorder:
    """What one capturing run tells the tape (see ``MemExecutor``'s
    ``recorder`` and ``NativeEngine._launch``)."""

    def __init__(self) -> None:
        #: Why no tape can be frozen from this run (the first refusal).
        self.declined: Optional[Decision] = None
        self.launches = 0
        self._inputs: List[tuple] = []
        #: The schedule so far; ``None`` once the run was refused.
        self._ops: Optional[List[tuple]] = []
        #: ``(sites, counters)`` of every native launch, folded into the
        #: run's statistics by :meth:`finish`.
        self._pending: List[tuple] = []

    # -- told by the executor and the engine -----------------------------
    def refuse(self, why: Decision) -> None:
        """A host-level value depends on buffer contents (layer
        ``tape``), or an outermost map did not run natively (the
        engine's own ``native`` / ``launch`` record)."""
        if self._ops is not None:
            self.declined, self._ops = why, None

    def input(self, name: str, buf: np.ndarray) -> None:
        self._inputs.append((name, buf))

    def copy(self, dst, dst_offs, src, src_offs) -> None:
        if self._ops is not None:
            self._ops.append((_COPY, dst, dst_offs, src, src_offs))

    def fill(self, buf, offs, data) -> None:
        if self._ops is not None:
            self._ops.append((_FILL, buf, offs, data))

    def launch(self, launch: Launch, bufs, counters) -> None:
        self.launches += 1
        self._pending.append((launch.spec.sites, counters))
        if self._ops is not None:
            self._ops.append((_LAUNCH, launch, bufs))

    # -- end of run ------------------------------------------------------
    def finish(self, ex, lease, values) -> Optional[Tape]:
        """Freeze the tape (``None`` when refused; see ``declined``),
        then fold the launches' counters into ``ex.stats``.  Call once,
        after ``ex.run`` returned ``values`` and before the lease
        closes."""
        tape = (
            self._freeze(ex, lease, values) if self._ops is not None else None
        )
        for sites, counters in self._pending:
            distribute(ex.stats, sites, counters)
        return tape

    def _freeze(self, ex, lease, values) -> Tape:
        held = lease.buffers()
        slot_of = {id(b): i for i, b in enumerate(held)}
        inputs = tuple(
            (name, slot_of[id(buf)], buf.dtype) for name, buf in self._inputs
        )
        input_slots = {slot for _, slot, _ in inputs}
        acquisitions = tuple(
            (_IR_DTYPE[b.dtype.str], b.size, i not in input_slots)
            for i, b in enumerate(held)
        )
        ops: List[tuple] = []
        ptr_slots: List[int] = []
        sink_of: Dict[tuple, int] = {}
        row_sink: List[int] = []
        for op in self._ops:
            if op[0] == _LAUNCH:
                _, launch, bufs = op
                ops.append((_LAUNCH, launch, len(ptr_slots), len(row_sink)))
                own = {a[0] for a in launch.allocs}
                ptr_slots += [
                    len(held) if i in own else slot_of[id(b)]
                    for i, b in enumerate(bufs)
                ] or [len(held)]
                for site in launch.spec.sites:
                    row_sink.append(sink_of.setdefault(site, len(sink_of)))
            elif op[0] == _COPY:
                _, dst, doffs, src, soffs = op
                ops.append(
                    (_COPY, slot_of[id(dst)], doffs, slot_of[id(src)], soffs)
                )
            else:
                _, buf, offs, data = op
                ops.append((_FILL, slot_of[id(buf)], offs, data))
        outputs = []
        for val in values:
            if isinstance(val, RuntimeArray):
                plan = region_plan(val.ixfn, lambda v=val: ex._offsets(v))
                outputs.append(("array", slot_of[id(ex.mem[val.mem])], plan))
            else:
                outputs.append(("const", val))
        return Tape(
            acquisitions, inputs, tuple(ops),
            np.asarray(ptr_slots, dtype=np.intp), tuple(sink_of),
            np.asarray(row_sink, dtype=np.intp), tuple(outputs),
            ex.stats.copy(), self.launches,
        )
