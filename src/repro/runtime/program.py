"""The compile-once, serve-many handle: :class:`Program`.

A :class:`Program` freezes everything a compilation produced that is
reusable across executions:

* the **post-pipeline memory IR** (the ``CompiledFun``);
* the **kernel plans** -- per outermost map statement its
  :class:`repro.mem.kernel.Plan`, with the body the vectorized tier
  staged from it (or why it declined), made once and shared by every
  subsequent run's executor;
* per **shape class** (array shapes plus every scalar's type and
  value), in one bounded LRU: a :class:`~repro.runtime.pool.BufferPool`
  whose buffers -- the coalesced allocation plan at that shape -- are
  reused across calls instead of re-allocated with ``np.zeros``, and
  within a call as the memory IR's lifetimes free them; the
  **offset cache**, enumerated LMAD offsets per concrete index function;
  and the **launch tape** (:mod:`repro.runtime.tape`): the host schedule
  of a native request -- acquisitions, marshalled launches, host copies,
  output locations -- recorded by one dry walk of the host program at
  the class's first request, which also plans (and builds, one ``cc``
  per core) every kernel it reaches; that request and every later one
  replay it, so a request costs its kernels rather than a trip through
  the symbolic interpreter per statement.  Everything a class holds is
  a function of its shape, so evicting a class drops it (classes apart
  only in floating-point scalars share the pool and offsets).

Each :meth:`Program.run` that does not replay a tape builds a fresh
:class:`~repro.mem.exec.MemExecutor` (executors are cheap, single-use
state machines) wired to a private lease of its class's pool, so
concurrent workers serving the same program never share mutable
executor state; the shared structures (pool free lists, offset caches,
dispatch plans, tapes) are lock-protected, or hold immutable values
whose loss only costs a recomputation.

Outputs are materialized into caller-owned NumPy arrays before the lease
closes -- a served response never aliases pool memory -- and a request
holds no more pooled bytes at once than its ``ExecStats.peak_bytes``:
a block's buffer goes back to the pool where the lifetime model retires
it, and a tape reads an input nothing writes in the caller's array.

Because the source language is pure, a compiled program is a
referentially transparent function of its inputs: same bytes in, same
bytes out, same simulated cost.  :class:`Program` therefore keeps a
small **response memo** (bounded LRU keyed by the content hash of the
request) and serves repeated identical requests from it -- the
serve-many analogue of common-subexpression elimination, and the reason
warm serving throughput is decoupled from the simulator's per-run
interpretation cost.  Every memoized response was produced by a real
pooled execution; hits return fresh copies of its outputs and
:class:`ExecStats` (so callers may mutate freely).  Pass
``memoize=False`` (per call or per program) to force execution -- the
differential tests do, since they exist to exercise the pooled executor
itself.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.backend.engine import REJECTED, executing
from repro.decisions import Decision, DecisionLog, Declined
from repro.ir import ast as A
from repro.mem.exec import MemExecutor, RuntimeArray
from repro.mem.stats import ExecStats
from repro.runtime.cache import cache_mode, make_key, program_cache
from repro.runtime.pool import BufferPool
from repro.runtime.tape import (
    Stopped, Tape, TapeRecorder, read_region, region_plan,
)


def compile_cached(
    fun: A.Fun,
    pipeline: str = "full",
    enable_splitting: bool = True,
    verify: bool = False,
    cache=None,
):
    """Cache-aware compilation returning a plain ``CompiledFun``.

    This is what :func:`repro.compiler.compile_fun` delegates to.  The
    cache key includes the program hash, pipeline preset, shape class,
    *and the function's assumptions* -- see :mod:`repro.runtime.cache`.
    ``cache=None`` follows the ``REPRO_PROGCACHE`` environment default
    (in-process memoization); ``cache=False`` forces a cold compile;
    ``cache="disk"`` adds the persistent on-disk layer; any other value
    raises ``ValueError``.
    """
    from repro.compiler import _compile_uncached

    def thunk():
        return _compile_uncached(
            fun,
            pipeline=pipeline,
            enable_splitting=enable_splitting,
            verify=verify,
        )

    mode = cache_mode(cache)
    if mode == "off":
        return thunk()
    key = make_key(fun, pipeline, enable_splitting, verify)
    compiled, _state = program_cache().get_or_compile(
        key, thunk, disk=(mode == "disk")
    )
    return compiled


class _ShapeClass:
    """What a Program retains per shape class: its buffer pool, its
    offset arrays, and its launch tape or why there is none.  Classes
    apart only in floating-point scalars (equal ``sizes``) share the
    pool and offsets: no such scalar sizes a buffer, and sharing is
    sound anyway (exact-size buffers, offsets keyed by index function)."""

    __slots__ = ("sizes", "pool", "offs", "tape", "declined", "replays")

    def __init__(self, sizes: str, twin: Optional["_ShapeClass"]) -> None:
        self.sizes = sizes
        self.pool = twin.pool if twin else BufferPool()
        #: (mem, ixfn) -> offset array (read-only values; see
        #: MemExecutor._offsets).
        self.offs: Dict = twin.offs if twin else {}
        self.tape: Optional[Tape] = None
        #: The record that turned taping off for this class (None: not
        #: yet tried, or taped) -- or, under rule ``premise-violated``,
        #: that refuses every request of it.
        self.declined: Optional[Decision] = None
        self.replays = 0


class Program:
    """A compiled function plus its reusable runtime state."""

    #: Bounded response-memo size (distinct request contents retained).
    MEMO_ENTRIES = 32
    #: Bounded number of shape classes retained (least recently
    #: requested evicted first).
    SHAPE_CLASSES = 16

    def __init__(self, compiled, memoize: bool = True):
        self.compiled = compiled
        #: Shared kernel plans (id(stmt) -> repro.mem.kernel.Plan: the
        #: staged body, or the Decision saying why the body is not
        #: expressible).
        self._vec_plans: Dict[int, object] = {}
        #: The lazily-built native engine: its ``plans`` (id(stmt) ->
        #: KernelSpec or the rejection sentinel) own the compiled
        #: kernels.  One emission + cc invocation per map statement per
        #: Program; every later run (and every concurrent worker)
        #: dispatches straight into the cached shared object.
        self._native_engine = None
        self._native_probed = False
        #: Shape-class LRU: shape key -> what the class retains.
        self._classes: "OrderedDict[str, _ShapeClass]" = OrderedDict()
        #: Why requests were not taped: one record per statement that
        #: refused a capture (a host-level data-dependent scalar, a map
        #: the native tier declined, a launch that fell back), however
        #: many shape classes ran into it (``repeats``) -- and one per
        #: shape class the function's assumptions do not hold for.
        self.declined = DecisionLog()
        #: The record that turns every later class's tape off (_record).
        self._untaped: Optional[Decision] = None
        #: Serve repeated identical requests from prior responses
        #: (sound: the language is pure).  Overridable per call.
        self.memoize = memoize
        self._memo: "OrderedDict[tuple, Tuple[List[object], ExecStats]]" = (
            OrderedDict()
        )
        self.memo_hits = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def shape_key(
        self, inputs: Mapping[str, object], floats: bool = True
    ) -> str:
        """The concrete shape class of one request's inputs: the shape
        of every array, the type and value of everything else (0-d
        included) -- so every value the host program computes without
        reading a buffer is a function of this key.  ``floats=False``
        keeps only the type of a floating-point scalar: the key of the
        buffers and offsets a class draws."""
        parts = []
        for name in sorted(inputs):
            v = inputs[name]
            shape = getattr(v, "shape", None)
            if shape:
                parts.append(f"{name}:{shape}")
            elif floats or not isinstance(v, (float, np.floating)):
                parts.append(f"{name}={type(v).__name__}:{v!r}")
            else:
                parts.append(f"{name}={type(v).__name__}")
        return "|".join(parts)

    def _shape_class(self, skey: str, inputs) -> _ShapeClass:
        """The (most recently used) LRU entry of ``skey``, the class of
        ``inputs``; a new one shares the pool and offsets of a retained
        class of the same sizes."""
        with self._lock:
            cls = self._classes.get(skey)
            if cls is None:
                sizes = self.shape_key(inputs, floats=False)
                twin = next(
                    (c for c in self._classes.values() if c.sizes == sizes),
                    None,
                )
                cls = self._classes[skey] = _ShapeClass(sizes, twin)
                while len(self._classes) > self.SHAPE_CLASSES:
                    self._classes.popitem(last=False)
            else:
                self._classes.move_to_end(skey)
            return cls

    def coverage(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Which tier serves what, and why no better one does.

        ``"maps"``: per outermost ``map`` (under its first binding name)
        the ``tier`` its launches run on -- ``"native"``,
        ``"vectorized"``, ``"interpreted"``, ``None`` before its first
        dispatch -- ``declined``, the record of every tier above that
        one which said no (and of launches that fell back), and
        ``parts``, the most parts any native launch of it ran in (1:
        never split across threads).
        ``"classes"``: per retained shape class the tape's ``state``
        (``"captured"``, ``"off"``, or ``"new"`` before the first native
        request), the ``launches`` on it, the ``replays`` served, and
        ``declined``, the record that turned it off (or, under
        ``premise-violated``, that refuses the class's requests); and
        for a captured tape its ``slots`` (the memory blocks it
        acquires), ``buffers`` (what a replay draws from an empty pool:
        blocks of equal ``(dtype, size)`` whose lifetimes do not overlap
        share one), ``bytes`` (the most its lease holds at once) and per
        array input ``"in place"`` (the caller's array: nothing on the
        tape writes it) or ``"copied: written by <site>"``."""
        engine = self._native_engine
        maps = {}
        for stmt in _outermost_maps(self.compiled.fun.body):
            site = stmt.names[0]
            declined = [
                d for d in (engine.declined.records if engine else ())
                if d.site == site
            ]
            plan = engine.plans.get(id(stmt)) if engine else None
            vec = self._vec_plans.get(id(stmt))
            parts = 1
            if plan is not None and plan is not REJECTED:
                tier, parts = "native", plan.parts
            elif vec is None or vec.body is None and vec.declined is None:
                tier = None
            elif vec.declined is None:
                tier = "vectorized"
            else:
                tier = "interpreted"
                declined.append(vec.declined)
            maps[site] = {"tier": tier, "declined": declined, "parts": parts}
        with self._lock:
            classes = {
                skey: {
                    "state": (
                        "captured" if cls.tape
                        else "off" if cls.declined else "new"
                    ),
                    "launches": cls.tape.launches if cls.tape else 0,
                    "replays": cls.replays,
                    "declined": cls.declined,
                    **(cls.tape.footprint if cls.tape else {}),
                }
                for skey, cls in self._classes.items()
            }
        return {"maps": maps, "classes": classes}

    def _native(self, want: Optional[bool]):
        """Resolve the per-call native preference to an engine (or None).

        ``None`` means "use it if available"; availability is probed
        once per program (honors ``REPRO_NATIVE`` and compiler
        auto-detection, warning once when native was wanted but no
        compiler exists)."""
        if want is False:
            return None
        with self._lock:
            if not self._native_probed:
                self._native_probed = True
                from repro.backend import maybe_engine

                self._native_engine = maybe_engine()
        return self._native_engine

    def _request_key(self, inputs: Mapping[str, object]) -> str:
        """Content identity of one request (exact: hashes array bytes)."""
        h = hashlib.sha256()
        for name in sorted(inputs):
            v = inputs[name]
            h.update(name.encode())
            if isinstance(v, np.ndarray):
                h.update(str(v.shape).encode())
                h.update(v.dtype.str.encode())
                h.update(np.ascontiguousarray(v).tobytes())
            else:
                h.update(repr(v).encode())
        return h.hexdigest()

    @staticmethod
    def _fresh_response(
        entry: Tuple[List[object], ExecStats],
    ) -> Tuple[List[object], ExecStats]:
        outs, stats = entry
        return (
            [o.copy() if isinstance(o, np.ndarray) else o for o in outs],
            stats.copy(),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, object],
        memoize: Optional[bool] = None,
        native: Optional[bool] = None,
    ) -> Tuple[List[object], ExecStats]:
        """Execute (or recall) one request against pooled buffers.

        Inputs are read, never mutated: a tape binds an array input that
        nothing on it writes in place and copies the others into leased
        buffers, as the executor copies every one.  Outputs are materialized NumPy
        arrays/scalars owned by the caller.  The returned
        :class:`ExecStats` carries ``pool_hits``/``pool_misses``; on a
        response-memo hit it is a copy of the producing run's stats
        (signature-identical by construction).

        A memo miss executes and then stores its response unless a
        concurrent duplicate stored one first: the language is pure, so
        either response is the answer.
        """
        engine = self._native(native)
        use_memo = self.memoize if memoize is None else memoize
        key = (self._request_key(inputs), engine is not None) if use_memo else None
        if key is not None:
            with self._lock:
                entry = self._memo.get(key)
                if entry is not None:
                    self._memo.move_to_end(key)
                    self.memo_hits += 1
                    outs, stats = self._fresh_response(entry)
                    # A recalled response acquired no buffers.
                    stats.pool_hits = stats.pool_misses = 0
                    return outs, stats
        outs, stats = self._execute(inputs, engine)
        if key is not None:
            with self._lock:
                if key not in self._memo:
                    self._memo[key] = self._fresh_response((outs, stats))
                    while len(self._memo) > self.MEMO_ENTRIES:
                        self._memo.popitem(last=False)
        return outs, stats

    def _execute(
        self, inputs: Mapping[str, object], engine=None
    ) -> Tuple[List[object], ExecStats]:
        """One real pooled execution (the memo's production path): a
        replay of the shape class's launch tape -- recorded first, by
        :meth:`_record`, at the class's first native request -- else the
        executor."""
        skey = self.shape_key(inputs)
        cls = self._shape_class(skey, inputs)
        refused = cls.declined
        if refused is not None and refused.rule == "premise-violated":
            raise Declined(refused.rule, refused.detail)
        recorded = (
            engine is not None and cls.tape is None and cls.declined is None
            and self._record(engine, inputs, cls)
        )
        off = "native tier not in use" if engine is None else cls.declined
        tape = cls.tape if off is None else None
        with cls.pool.lease() as lease, executing():
            if tape is not None:
                try:
                    outs, stats = tape.replay(inputs, lease)
                except BaseException:
                    # Keep no tape a request failed on: the next request
                    # at this shape records it again.
                    cls.tape = None
                    raise
                if recorded:
                    stats.tape = "captured"
                else:
                    with self._lock:
                        cls.replays += 1
                    stats.tape = "replayed"
            else:
                ex = MemExecutor(
                    self.compiled.fun,
                    pool=lease,
                    offs_cache=cls.offs,
                    vec_plans=self._vec_plans,
                    native=engine,
                )
                try:
                    vals, stats = ex.run(**dict(inputs))
                except Declined as why:
                    # The function's assumptions do not hold at this
                    # shape: the class remembers, so the next such
                    # request is refused without evaluating anything.
                    with self._lock:
                        cls.declined = self.declined.add(
                            "admit", why.rule, skey, why.detail
                        )
                    raise
                outs = [materialize(ex, v) for v in vals]
                stats.tape = f"off: {off}"
        return outs, stats

    def _record(self, engine, inputs, cls: _ShapeClass) -> bool:
        """Record ``cls``'s launch tape in one dry run of the host
        program (its values are functions of the shape class), building
        every kernel it plans before anything executes.  A host read of
        a buffer (which stops the run), a map without a kernel or a
        launch that no longer fits its kernel turns the tape off, with
        the first such record in program order.  A ``native`` or
        ``tape`` record at a statement every walk reaches (see
        :func:`_always_reached`) turns every later class off unwalked:
        a map without a kernel never gets one, and a host read always
        stops the walk.  Returns whether ``cls`` holds a tape recorded
        here."""
        why = self._untaped
        if why is None:
            rec = TapeRecorder()
            with engine.planning():
                if cls.tape is not None or cls.declined is not None:
                    return False  # a concurrent request recorded it
                ex = MemExecutor(
                    self.compiled.fun, mode="dry", offs_cache=cls.offs,
                    vec_plans=self._vec_plans, native=engine, recorder=rec,
                )
                try:
                    values, _ = ex.run(**dict(inputs))
                except Stopped:
                    values = None
                except Exception:  # the request meets it again, and says so
                    return False
            tape = rec.freeze(ex, values, engine.declined)
            if tape is not None:
                with self._lock:
                    cls.tape = tape
                return True
            why = rec.declined
            if why.layer in ("native", "tape") and why.site in _always_reached(
                self.compiled.fun.body
            ):
                self._untaped = why
        with self._lock:
            if cls.declined is None:
                cls.declined = self.declined.add(
                    why.layer, why.rule, why.site, why.detail
                )
        return False


def _always_reached(block: A.Block):
    """The sites every run of ``block`` reaches unless an earlier
    statement stops it: its statements, and those of the body of a loop
    among them that runs a constant, positive number of times."""
    for stmt in block.stmts:
        yield from stmt.names[:1]
        if isinstance(stmt.exp, A.Loop) and (stmt.exp.count.as_int() or 0) > 0:
            yield from _always_reached(stmt.exp.body)


def _outermost_maps(block: A.Block):
    """The ``map`` statements the host program launches as kernels."""
    for stmt in block.stmts:
        if isinstance(stmt.exp, A.Map):
            yield stmt
        else:
            for blk in A.sub_blocks(stmt.exp):
                yield from _outermost_maps(blk)


def materialize(ex: MemExecutor, val):
    """Read one result of ``ex.run`` out of the executor: a caller-owned
    array for an array value (a contiguous slice where the region is
    one, else a gather through the executor's offset cache), scalars
    unchanged.  The one way every caller -- :class:`Program`, the bench
    harness, the sharding driver, the examples -- reads an output."""
    if isinstance(val, RuntimeArray):
        buf = ex.mem[val.mem]
        assert isinstance(buf, np.ndarray)
        return read_region(buf, region_plan(val.ixfn, lambda: ex._offsets(val)))
    return val


def compile(
    fun: A.Fun,
    pipeline: str = "full",
    enable_splitting: bool = True,
    verify: bool = False,
    cache=None,
    memoize: bool = True,
) -> Program:
    """Compile (or fetch from cache) and wrap into a :class:`Program`."""
    compiled = compile_cached(
        fun,
        pipeline=pipeline,
        enable_splitting=enable_splitting,
        verify=verify,
        cache=cache,
    )
    return Program(compiled, memoize=memoize)
