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

* the input bindings (parameter name -> slot): an input that no
  launch, copy or fill on the tape writes -- what the kernels store
  into (``KernelSpec.writes``), not the parameter's type, decides -- is
  the caller's own array, any other a leased copy;
* the host schedule in program order: native launches (the
  :class:`~repro.backend.engine.Launch` objects the engine marshalled,
  with their buffer slots), host-level copies and fills as
  ``(slot, offsets)`` pairs (offset arrays are the ones the Program's
  offset cache already holds), and each memory block's pool
  acquisition ``(dtype, size, zero)`` where it is born and release
  where the executor's lifetime model retires it -- a tape holds
  **slot indices, never buffers** (the recorder names each acquired
  memory block); every replay acquires from a fresh lease, so
  concurrent replays are private and nothing is pinned, and a block
  born after another of its ``(dtype, size)`` died takes that buffer,
  zeroed by the pool, so a replay holds what an executor run holds;
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

_LAUNCH, _COPY, _FILL, _ACQUIRE, _RELEASE = range(5)


@dataclass(frozen=True, eq=False)
class Tape:
    """The frozen host schedule of one shape class."""

    #: ``(parameter name, slot, numpy dtype, IR dtype, size, in place,
    #: pointer positions)`` per array input: the caller's array itself
    #: (as that dtype, C-contiguous) when nothing on the tape writes it,
    #: else a leased copy.
    inputs: tuple
    #: The schedule: ``(_LAUNCH, launch, ptr offset, row offset)``,
    #: ``(_COPY, dst slot, dst offsets, src slot, src offsets)``,
    #: ``(_FILL, slot, offsets, data)``, ``(_ACQUIRE, slot, IR dtype,
    #: size, zero, pointer positions)`` where a block is born and
    #: ``(_RELEASE, slot)`` where the executor's lifetime model ends it,
    #: so a replay holds what an executor run holds, and a block born
    #: later takes a returned buffer of its ``(dtype, size)``.
    ops: tuple
    #: Slot of every buffer argument of every launch, concatenated (-1
    #: where a launch supplies its own block).
    ptr_slots: np.ndarray
    #: Distinct counter sites, and the site of every counter row.
    sinks: tuple
    row_sink: np.ndarray
    #: ``("array", slot, region plan)`` or ``("const", value)``.
    outputs: tuple
    #: The recording run's statistics (host accounting only).
    skeleton: ExecStats
    launches: int
    #: ``Program.coverage``'s account: ``slots`` (memory blocks),
    #: ``buffers`` (what a replay draws from an empty pool), ``bytes``
    #: (the most a replay's lease holds at once) and per array input
    #: ``"in place"`` or ``"copied: written by <site>"``.
    footprint: Dict[str, object]

    def replay(self, inputs, lease) -> Tuple[List[object], ExecStats]:
        """Run the schedule on ``inputs`` with buffers from ``lease``."""
        bufs: List[Optional[np.ndarray]] = [None] * self.footprint["slots"]
        ptrs = np.zeros(len(self.ptr_slots), dtype=np.uintp)
        for name, slot, np_dtype, dtype, size, in_place, at in self.inputs:
            if name not in inputs:
                raise InterpError(f"missing input {name!r}")
            arr = np.ascontiguousarray(inputs[name], dtype=np_dtype).reshape(-1)
            if not in_place:
                buf = lease.acquire(size, dtype, False)[0]
                np.copyto(buf, arr)
                arr = buf
            bufs[slot] = arr
            ptrs[at] = arr.ctypes.data
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
                _, dst, doffs, src, soffs = op
                bufs[dst][doffs] = bufs[src][soffs].reshape(doffs.shape)
            elif code == _FILL:
                _, slot, offs, data = op
                bufs[slot][offs] = data
            elif code == _ACQUIRE:
                _, slot, dtype, size, zero, at = op
                buf = bufs[slot] = lease.acquire(size, dtype, zero)[0]
                ptrs[at] = buf.ctypes.data
            else:
                lease.release(bufs[op[1]])
                bufs[op[1]] = None
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
    their memory block in the run's ``ex.mem``; each acquired block is a
    *slot*, alive from its acquisition to its retirement, both counted
    in schedule operations recorded before them."""

    def __init__(self) -> None:
        #: Why no tape can be frozen from this run (the first refusal).
        self.declined: Optional[Decision] = None
        #: ``(IR dtype, size, zero, birth)`` per pool acquisition, in
        #: order, the slot of each acquired block, and where retired
        #: slots die.
        self._acquisitions: List[tuple] = []
        self._slot: Dict[str, int] = {}
        self._death: Dict[int, int] = {}
        self._inputs: List[tuple] = []
        #: Slot -> the first statement that writes it.
        self._writer: Dict[int, str] = {}
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
        self._acquisitions.append((dtype, size, zero, len(self._ops)))

    def retire(self, block: str) -> None:
        """The executor's lifetime model ended ``block`` (a no-op for a
        kernel's own scratch, which is no slot)."""
        slot = self._slot.get(block)
        if slot is not None:
            self._death[slot] = len(self._ops)

    def input(self, name: str, block: str, dtype: str, size: int) -> None:
        self._inputs.append((name, len(self._acquisitions), DTYPE_INFO[dtype][0]))
        self.acquire(block, dtype, size, zero=False)

    def _wrote(self, site: str, slot: int) -> int:
        self._writer.setdefault(slot, site)
        return slot

    def copy(self, site: str, dst: str, dst_offs, src: str, src_offs) -> None:
        if self.declined is None:
            self._ops.append((
                _COPY, self._wrote(site, self._slot[dst]), dst_offs,
                self._slot[src], src_offs,
            ))

    def fill(self, site: str, block: str, offs, data) -> None:
        if self.declined is None:
            self._ops.append(
                (_FILL, self._wrote(site, self._slot[block]), offs, data)
            )

    def launch(self, site: str, launch: Launch, blocks) -> None:
        if self.declined is None:
            for pos in launch.spec.writes:
                if blocks[pos] is not None:
                    self._wrote(site, self._slot[blocks[pos]])
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
        outputs = []
        for val in values:
            if isinstance(val, RuntimeArray):
                slot = self._slot[val.mem]
                self._death.pop(slot, None)  # read after the schedule
                plan = region_plan(val.ixfn, lambda v=val: ex._offsets(v))
                outputs.append(("array", slot, plan))
            else:
                outputs.append(("const", val))
        ptr_slots: List[int] = []
        for op in self._ops:
            if op[0] == _LAUNCH:
                blocks = op[3]
                ptr_slots += [
                    -1 if b is None else self._slot[b] for b in blocks
                ] or [-1]
        ptr_slots = np.asarray(ptr_slots, dtype=np.intp)

        def at(slot):
            return np.flatnonzero(ptr_slots == slot)

        # Before schedule position k: the releases of blocks born
        # earlier, the acquisitions, then blocks dead on arrival.
        inputs = {slot for _, slot, _ in self._inputs}
        born: Dict[int, List[tuple]] = {}
        for slot, (dtype, size, zero, birth) in enumerate(self._acquisitions):
            death = self._death.get(slot)
            if slot not in inputs:
                born.setdefault(birth, []).append(
                    (_ACQUIRE, slot, dtype, size, zero, at(slot))
                )
            if death is not None:
                born.setdefault(death, []).insert(
                    0 if death > birth else len(born[death]), (_RELEASE, slot)
                )
        ops: List[tuple] = []
        sink_of: Dict[tuple, int] = {}
        row_sink: List[int] = []
        ptr_off = 0
        for k, op in enumerate(self._ops + [None]):
            ops += born.get(k, ())
            if op is not None and op[0] == _LAUNCH:
                launch = op[2]
                ops.append((_LAUNCH, launch, ptr_off, len(row_sink)))
                ptr_off += len(op[3]) or 1
                for site in launch.spec.sites:
                    row_sink.append(sink_of.setdefault(site, len(sink_of)))
            elif op is not None:
                ops.append(op)
        placement = {}
        bound = []
        for name, slot, np_dtype in self._inputs:
            dtype, size = self._acquisitions[slot][:2]
            writer = self._writer.get(slot)
            placement[name] = (
                "in place" if writer is None else f"copied: written by {writer}"
            )
            bound.append(
                (name, slot, np_dtype, dtype, size, writer is None, at(slot))
            )
        return Tape(
            tuple(bound), tuple(ops), ptr_slots, tuple(sink_of),
            np.asarray(row_sink, dtype=np.intp), tuple(outputs),
            ex.stats.copy(), ex.stats.native_launches,
            {
                "slots": len(self._acquisitions),
                **_draw(bound, ops),
                "inputs": placement,
            },
        )


def _draw(inputs, ops) -> Dict[str, int]:
    """What a replay of ``ops`` on ``inputs`` draws from an empty pool
    (``buffers``) and the most bytes its lease holds at once."""
    idle: Dict[tuple, int] = {}
    size_of: Dict[int, tuple] = {}
    buffers = held = most = 0
    acquired = [
        (_ACQUIRE, slot, dtype, size) for _, slot, _, dtype, size, in_place, _
        in inputs if not in_place
    ]
    for op in acquired + [op for op in ops if op[0] in (_ACQUIRE, _RELEASE)]:
        if op[0] == _ACQUIRE:
            key = size_of[op[1]] = op[2:4]
            if idle.get(key):
                idle[key] -= 1
            else:
                buffers += 1
            held += op[3] * DTYPE_INFO[op[2]][1]
            most = max(most, held)
        else:
            key = size_of[op[1]]
            idle[key] = idle.get(key, 0) + 1
            held -= key[1] * DTYPE_INFO[key[0]][1]
    return {"buffers": buffers, "bytes": most}
