"""The compile-once, serve-many handle: :class:`Program`.

A :class:`Program` freezes everything a compilation produced that is
reusable across executions:

* the **post-pipeline memory IR** (the ``CompiledFun``);
* the **kernel plans** -- per outermost map statement its
  :class:`repro.mem.kernel.Plan`, with the body the vectorized tier
  staged from it (or why it declined), made once and shared by every
  subsequent run's executor;
* the **offset cache** -- enumerated LMAD offsets per concrete index
  function, the dominant warm-run cost after buffer allocation
  (cleared whenever a shape class is evicted, so it holds entries of
  retained classes only);
* the **coalesced allocation plan**, materialized per shape class into a
  :class:`~repro.runtime.pool.BufferPool` whose buffers are reused
  across calls instead of re-allocated with ``np.zeros``;
* the **launch tape** of each shape class (:mod:`repro.runtime.tape`):
  the host schedule of a native request -- acquisitions, marshalled
  launches, host copies, output locations -- captured by the first
  request of that class and replayed by every later one, so a warm
  request costs its kernels rather than a trip through the symbolic
  interpreter per statement.  Plans and tapes share one bounded LRU of
  shape classes.

Each :meth:`Program.run` that does not replay a tape builds a fresh
:class:`~repro.mem.exec.MemExecutor` (executors are cheap, single-use
state machines) wired to a private pool lease, so concurrent workers
serving the same program never share mutable executor state; the shared
structures (pool free lists, offset cache, dispatch plans, tapes) are
lock-protected, or hold immutable values whose loss only costs a
recomputation.

Outputs are materialized into caller-owned NumPy arrays before the lease
closes -- a served response never aliases pool memory.

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
from repro.runtime.tape import Tape, TapeRecorder, read_region, region_plan


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
    ``cache="disk"`` adds the persistent on-disk layer.
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
    """What a Program retains per shape class beside the pool's
    allocation plan: the launch tape, or why there is none."""

    __slots__ = ("tape", "declined", "replays")

    def __init__(self) -> None:
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
    #: Bounded number of shape classes whose allocation plan and launch
    #: tape are retained (least recently requested evicted first).
    SHAPE_CLASSES = 16

    def __init__(self, compiled, memoize: bool = True):
        self.compiled = compiled
        #: Shared allocation-plan pool (lock-protected; leased per run).
        self.pool = BufferPool()
        #: Shared per-(mem, ixfn) offset arrays (read-only values; see
        #: MemExecutor._offsets).  Cleared when a shape class is
        #: evicted: retained classes re-enumerate once.
        self._offs_cache: Dict = {}
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
        #: Shape-class LRU: shape key -> launch tape state.  Evicting a
        #: class also drops its allocation plan (and the idle buffers
        #: only it could reuse) from the pool.
        self._classes: "OrderedDict[str, _ShapeClass]" = OrderedDict()
        #: Why requests were not taped: one record per statement that
        #: refused a capture (a host-level data-dependent scalar, a map
        #: the native tier declined, a launch that fell back), however
        #: many shape classes ran into it (``repeats``) -- and one per
        #: shape class the function's assumptions do not hold for.
        self.declined = DecisionLog()
        #: Serve repeated identical requests from prior responses
        #: (sound: the language is pure).  Overridable per call.
        self.memoize = memoize
        self._memo: "OrderedDict[tuple, Tuple[List[object], ExecStats]]" = (
            OrderedDict()
        )
        self.memo_hits = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def shape_key(self, inputs: Mapping[str, object]) -> str:
        """The concrete shape class of one request's inputs: the shape
        of every array, the type and value of everything else (0-d
        included) -- so every value the host program computes without
        reading a buffer is a function of this key."""
        parts = []
        for name in sorted(inputs):
            v = inputs[name]
            shape = getattr(v, "shape", None)
            parts.append(
                f"{name}:{shape}" if shape
                else f"{name}={type(v).__name__}:{v!r}"
            )
        return "|".join(parts)

    def _shape_class(self, skey: str) -> _ShapeClass:
        """The (most recently used) LRU entry of ``skey``."""
        with self._lock:
            cls = self._classes.get(skey)
            if cls is None:
                cls = self._classes[skey] = _ShapeClass()
                while len(self._classes) > self.SHAPE_CLASSES:
                    evicted, _ = self._classes.popitem(last=False)
                    self.pool.drop_plan(evicted)
                    self._offs_cache.clear()
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
        ``premise-violated``, that refuses the class's requests)."""
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

        Inputs are read, never mutated (the executor copies array
        parameters into leased buffers).  Outputs are materialized NumPy
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
        """One real pooled execution (the memo's production path):
        a replay of the shape class's launch tape when there is one,
        else the executor -- recording, if a tape may come of it."""
        skey = self.shape_key(inputs)
        cls = self._shape_class(skey)
        refused = cls.declined
        if refused is not None and refused.rule == "premise-violated":
            raise Declined(refused.rule, refused.detail)
        off = "native tier not in use" if engine is None else cls.declined
        tape = cls.tape if off is None else None
        with self.pool.lease() as lease, executing():
            if tape is not None:
                try:
                    outs, stats = tape.replay(inputs, lease)
                except BaseException:
                    # Keep no tape a request failed on: the next request
                    # at this shape goes through the executor again.
                    cls.tape = None
                    raise
                with self._lock:
                    cls.replays += 1
                stats.tape = "replayed"
            else:
                rec = TapeRecorder() if off is None else None
                ex = MemExecutor(
                    self.compiled.fun,
                    pool=lease,
                    offs_cache=self._offs_cache,
                    vec_plans=self._vec_plans,
                    native=engine,
                    recorder=rec,
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
                if rec is not None:
                    cls.tape = rec.finish(ex, lease, vals)
                    why = rec.declined
                    if why is not None:
                        with self._lock:
                            off = cls.declined = self.declined.add(
                                why.layer, why.rule, why.site, why.detail
                            )
                stats.tape = "captured" if off is None else f"off: {off}"
            if engine is not None:
                stats.codegen_seconds = engine.codegen_seconds
            if self.pool.plan(skey) is None:
                # First execution at this shape class: freeze the
                # allocation plan, so that evicting another class keeps
                # the free lists this one draws.  (Not for a class
                # evicted while this request ran.)
                with self._lock:
                    if self._classes.get(skey) is cls:
                        self.pool.note_plan(skey, lease.manifest())
        return outs, stats


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
