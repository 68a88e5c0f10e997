"""Launch tapes: a Program's host schedule, recorded once per shape class.

A warm native request spends most of its time in the Python *around*
its kernels: instantiating index functions, walking argument
directives, proving once more that an update is elided, dispatching
statements.  All of that is a function of the request's **shape class**
(:meth:`repro.runtime.Program.shape_key`: array shapes plus the values
and types of every scalar input) -- unless a host-level statement turns
buffer *contents* into a scalar (``index``/``reduce``/``argmin`` outside
a kernel), which stops the recording and makes the class untapeable.

So the first native request at a shape walks the host program once, in
a dry :class:`~repro.mem.exec.MemExecutor` with a :class:`TapeRecorder`
attached: each outermost map's kernel is planned and its launch
marshalled, never fired.  Once the kernels are built, if every map has
one, no launch fell back and no host value depended on data, the
recorder freezes a :class:`Tape`, and that request and every later one
of the class replays it:

* the ordered pool acquisitions ``(dtype, size, zero)`` -- a tape holds
  **slot indices, never buffers** (the recorder names each acquired
  memory block); every replay re-acquires from a fresh lease, so
  concurrent replays are private and nothing is pinned;
* the input bindings (parameter name -> slot);
* the host schedule in program order: native launches (the
  :class:`~repro.backend.engine.Launch` objects the engine marshalled,
  with their buffer slots), host-level copies and fills as
  ``(slot, offsets)`` pairs (offset arrays are the ones the Program's
  offset cache already holds);
* where the outputs live;
* the walk's statistics: what the host accounts -- launch counts,
  allocation and footprint accounting, fusion and elision tallies --
  and nothing counted inside a kernel.

A replay walks the tape: one :func:`~repro.backend.engine.fire` per
launch -- with addresses into one pointer array and one counter array
of the whole request -- no symbolic expression, no statement dispatch.
Bytes and flops counted inside the kernels are counted by every replay
and folded into a copy of the host statistics through the same
:func:`~repro.backend.engine.distribute` the executor uses, so they
follow each request's data.
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
    #: The recording run's statistics (host accounting only).
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


class Stopped(Exception):
    """Raised through a recording run by :meth:`TapeRecorder.host_read`."""


class TapeRecorder:
    """What one recording dry run tells the tape (see ``MemExecutor``'s
    ``recorder`` and ``NativeEngine.record_map``).  Buffers are named by
    their memory block in the run's ``ex.mem``."""

    def __init__(self) -> None:
        #: Why no tape can be frozen from this run (the first refusal).
        self.declined: Optional[Decision] = None
        #: ``(IR dtype, size, zero)`` per pool acquisition, in order,
        #: and the slot of each acquired block.
        self._acquisitions: List[tuple] = []
        self._slot: Dict[str, int] = {}
        self._inputs: List[tuple] = []
        #: The schedule up to the first refusal.
        self._ops: List[tuple] = []

    # -- told by the executor and the engine -----------------------------
    def refuse(self, why: Decision) -> None:
        """An outermost map has no kernel, or its launch no longer fits
        the kernel (the engine's own ``native`` / ``launch`` record)."""
        if self.declined is None:
            self.declined = why

    def host_read(self, stmt, exp) -> None:
        """A host-level statement is about to produce a scalar from
        buffer contents: everything downstream of it may differ between
        two requests of one shape class, so the run stops here."""
        self.refuse(Decision(
            "tape", "host-data-dependent", stmt.names[0],
            f"host-level {type(exp).__name__.lower()}",
        ))
        raise Stopped(self.declined)

    def acquire(self, block: str, dtype: str, size: int, zero=True) -> None:
        self._slot[block] = len(self._acquisitions)
        self._acquisitions.append((dtype, size, zero))

    def input(self, name: str, block: str, dtype: str, size: int) -> None:
        self._inputs.append((name, len(self._acquisitions), DTYPE_INFO[dtype][0]))
        self.acquire(block, dtype, size, zero=False)

    def copy(self, dst: str, dst_offs, src: str, src_offs) -> None:
        if self.declined is None:
            self._ops.append(
                (_COPY, self._slot[dst], dst_offs, self._slot[src], src_offs)
            )

    def fill(self, block: str, offs, data) -> None:
        if self.declined is None:
            self._ops.append((_FILL, self._slot[block], offs, data))

    def launch(self, site: str, launch: Launch, blocks) -> None:
        if self.declined is None:
            self._ops.append((_LAUNCH, site, launch, blocks))

    # -- end of run ------------------------------------------------------
    def freeze(self, ex, values, log) -> Optional[Tape]:
        """The tape of the run ``ex`` that returned ``values``, once its
        kernels are built; ``None`` when refused (see ``declined``).  A
        launch whose kernel did not build refuses, before anything the
        run met after it, with its statement's ``native`` record in the
        engine's ``log``."""
        for op in self._ops:
            if op[0] == _LAUNCH and op[2].spec.fn is None:
                self.declined = log.at("native", op[1])
                break
        if self.declined is not None:
            return None
        held = len(self._acquisitions)
        ops: List[tuple] = []
        ptr_slots: List[int] = []
        sink_of: Dict[tuple, int] = {}
        row_sink: List[int] = []
        for op in self._ops:
            if op[0] == _LAUNCH:
                _, _, launch, blocks = op
                ops.append((_LAUNCH, launch, len(ptr_slots), len(row_sink)))
                # ``held``: a block the launch supplies itself
                ptr_slots += [
                    held if b is None else self._slot[b] for b in blocks
                ] or [held]
                for site in launch.spec.sites:
                    row_sink.append(sink_of.setdefault(site, len(sink_of)))
            else:
                ops.append(op)
        outputs = []
        for val in values:
            if isinstance(val, RuntimeArray):
                plan = region_plan(val.ixfn, lambda v=val: ex._offsets(v))
                outputs.append(("array", self._slot[val.mem], plan))
            else:
                outputs.append(("const", val))
        return Tape(
            tuple(self._acquisitions), tuple(self._inputs), tuple(ops),
            np.asarray(ptr_slots, dtype=np.intp), tuple(sink_of),
            np.asarray(row_sink, dtype=np.intp), tuple(outputs),
            ex.stats.copy(), ex.stats.native_launches,
        )
