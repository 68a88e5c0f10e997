"""Launch machinery for the native C executor tier.

:meth:`NativeEngine.try_run_map` has the contract of
:func:`repro.mem.vectorize.try_run_map`: it either executes one
outermost ``map`` statement completely -- outputs *and* every simulated
``ExecStats`` quantity bit-identical to the interpreted walk -- and
returns ``True``, or touches nothing and returns ``False`` so the
executor falls through to the vectorized/interpreted tiers.

:meth:`NativeEngine.plan` prints a statement's kernel plan
(:mod:`repro.mem.kernel`, shared with the vectorized tier) for its first
launch with :func:`repro.backend.cemit.emit_kernel`, producing launch-
*structure*-specialized C plus a list of argument directives (which host
scalars, symbolic expressions, index-function components, and buffers
to marshal per launch); :meth:`NativeEngine.planning` then builds every
kernel printed, one ``cc`` per core at once.  The dry run that records
a :class:`repro.runtime.Program` shape class's launch tape plans every
kernel it reaches (:meth:`NativeEngine.record_map`) before anything
launches; any other statement is planned at its first launch.  The
compiled entry point is cached by source digest (:mod:`repro.backend.
build`); the per-statement plan is shared across all executors of a
Program, exactly like the kernel plans.  A statement whose subtree the
emitter declines -- or crashes on (``internal-error``) -- or whose C the
toolchain fails to build is marked and never attempted again; a launch
whose concrete structure no longer matches the plan (a rank or
scalar-kind change) falls back for that launch only.  Either way
:attr:`NativeEngine.declined` says why.

A launch is ``marshal -> fire -> distribute``: :meth:`NativeEngine.
marshal` turns the directives into a :class:`Launch` (concrete argument
arrays, and the memory blocks to pass; mutates nothing), :func:`fire`
is the ctypes call, and :func:`distribute` folds the counters the C code
accumulated into the run's ``KernelStat``s.  A recording dry run stops
after ``marshal``: :mod:`repro.runtime.tape` keeps its ``Launch``
objects and every replay fires them through the same ``fire`` and
``distribute``.

``fire`` is also where a launch is cut into parts: the iterations of an
outermost map are independent (short-circuiting's cross-iteration check
and the verifier's R01--R04 establish it in the memory IR), so a launch
that moves enough counted bytes runs as contiguous ``[T0, W)`` ranges,
one on the calling thread and one on each idle helper thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.backend import build
from repro.backend.cemit import SLOTS, KernelSpec, components, emit_kernel
from repro.decisions import DecisionLog, Declined
from repro.ir import scalar
from repro.ir.interp import InterpError, eval_sym
from repro.ir.types import DTYPE_INFO
from repro.mem.kernel import declined, native_rule

#: Plan sentinel: no kernel for this statement (``NativeEngine.declined``
#: holds the reason under the statement's binding name).
REJECTED = object()

#: A launch of width >= 2 is split when ``width * spec.per_thread``
#: reaches this many counted bytes.  Handing a part to an idle helper
#: costs ~40-60 us on a 2-core VM and kernels run 4-12 counted KB/us:
#: at 0.66 MB lbm's kernel takes 103 us whole and 98 us in two parts,
#: and at 512 KiB the lud launches that split slow wavefront down.
SPLIT_BYTES = 2 << 20


class Launch:
    """One marshalled launch: every argument that depends only on the
    host environment (so, for a :class:`repro.runtime.Program`, only on
    the request's shape class).  Buffers and counters are supplied per
    execution; a launch tape (:mod:`repro.runtime.tape`) keeps these
    objects and re-fires them."""

    __slots__ = ("spec", "width", "ia", "fa", "ia_ptr", "fa_ptr", "allocs")

    def __init__(self, spec, width, ia, fa, allocs):
        self.spec = spec
        self.width = width
        # The arrays own the memory the addresses point at.
        self.ia = ia
        self.fa = fa
        self.ia_ptr = ia.ctypes.data
        self.fa_ptr = fa.ctypes.data
        #: Per in-kernel allocation site: (buffer position, element
        #: count, numpy dtype) of the fresh zeroed block each execution
        #: needs, then (static name, IR dtype, block count) for its
        #: birth in the executor (``MemExecutor._born``).
        self.allocs = allocs


def _block(counters: int, sites: int) -> np.ndarray:
    """The ``sites x SLOTS`` counter block at address ``counters``."""
    rows = (ctypes.c_longlong * (sites * SLOTS)).from_address(counters)
    return np.ctypeslib.as_array(rows).reshape(sites, SLOTS)


def fire(launch: Launch, bufs: int, counters: int) -> None:
    """Run one launch.  ``bufs`` is the address of this execution's
    ``char*[]``, ``counters`` of its zeroed ``len(sites) * SLOTS``
    counter block.

    A launch of width >= 2 whose counted bytes reach :data:`SPLIT_BYTES`
    runs in contiguous parts, one per helper idle at this moment plus
    the caller's; each helper part counts into a zeroed block of its own
    that is added into ``counters`` afterwards (integer sums: the block
    equals an unsplit launch's)."""
    spec, width = launch.spec, launch.width
    pool = _HELPERS
    helpers = (
        pool.claim(width - 1)
        if width >= 2 and width * (spec.per_thread or 0) >= SPLIT_BYTES
        else None
    )
    if helpers:
        _fire_parts(launch, bufs, counters, pool, helpers)
    else:
        spec.fn(0, width, launch.ia_ptr, launch.fa_ptr, bufs, counters)
    if spec.per_thread is None:
        counted = _block(counters, len(spec.sites))[:, 1:3].sum()
        spec.per_thread = int(counted) / width


def _fire_parts(launch, bufs, counters, pool, helpers) -> None:
    spec, width = launch.spec, launch.width
    n = len(helpers) + 1
    spec.parts = max(spec.parts, n)
    cuts = [width * k // n for k in range(n + 1)]
    sites = len(spec.sites)
    blocks = np.zeros((len(helpers), sites * SLOTS), dtype=np.int64)
    args = (launch.ia_ptr, launch.fa_ptr, bufs)
    for k, helper in enumerate(helpers, 1):
        helper.start(
            spec.fn, (cuts[k], cuts[k + 1], *args, blocks[k - 1].ctypes.data)
        )
    try:
        spec.fn(cuts[0], cuts[1], *args, counters)
    finally:
        # Every part returns before anything is raised or released.
        errors = [helper.join() for helper in helpers]
        pool.release(helpers)
    for error in errors:
        if error is not None:
            raise error
    _block(counters, sites)[:] += blocks.sum(axis=0).reshape(sites, SLOTS)


class _Helper:
    """One daemon thread that runs one launch part at a time.  Two bare
    locks hand a part over and back: ~20 us less per split launch than
    a ``concurrent.futures`` pool's queue, futures and waiters."""

    def __init__(self) -> None:
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._job: tuple = ()
        self._error: Optional[BaseException] = None
        threading.Thread(
            target=self._serve, name="repro-launch-part", daemon=True
        ).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            fn, args = self._job
            try:
                fn(*args)
            except BaseException as e:  # noqa: BLE001 - caller re-raises
                self._error = e
            self._done.release()

    def start(self, fn, args) -> None:
        self._job, self._error = (fn, args), None
        self._go.release()

    def join(self) -> Optional[BaseException]:
        """Wait for the part; what it raised, if anything."""
        self._done.acquire()
        return self._error


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


class _Helpers:
    """The process's helper threads -- one per core beside the caller's,
    started at the first launch that wants them -- and the request gate:
    helpers are offered only while no other request is executing, so
    concurrent requests never run more parts than there are cores."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Optional[List[_Helper]] = None
        self._executing = 0

    def claim(self, most: int) -> List[_Helper]:
        """Up to ``most`` idle helpers, now the caller's."""
        with self._lock:
            if self._executing > 1:
                return []
            if self._idle is None:
                self._idle = [_Helper() for _ in range(_cores() - 1)]
            taken = self._idle[:most]
            del self._idle[:most]
            return taken

    def release(self, helpers) -> None:
        with self._lock:
            self._idle.extend(helpers)

    @contextlib.contextmanager
    def executing(self):
        with self._lock:
            self._executing += 1
        try:
            yield
        finally:
            with self._lock:
                self._executing -= 1


_HELPERS = _Helpers()


def executing():
    """Context manager: one request executes for as long as it is open
    (see :class:`_Helpers`)."""
    return _HELPERS.executing()


def _forget_helpers() -> None:
    """A forked child has the parent's memory but none of its threads."""
    global _HELPERS
    _HELPERS = _Helpers()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def distribute(stats, sites, counters) -> None:
    """Fold C-accumulated counters into ``stats``: one ``SLOTS``-wide
    row of ``counters`` per ``(kind, label)`` site.

    A site whose row is all zero never executed and must not create a
    ``KernelStat`` (the interpreter registers a nested statement's stat
    per execution); the launch's own site was registered by the
    executor before the launch, so skipping its all-zero row loses
    nothing.  Additive, hence order-independent: rows of several
    launches may be distributed in any order or pre-summed per site.
    """
    rows = counters.reshape(-1, SLOTS).tolist()
    for (kind, label), row in zip(sites, rows):
        if not any(row):
            continue
        _ent, br, bw, fl, elc, elb, lr, lw = row
        ks = stats.kernel(kind, label)
        ks.bytes_read += br
        ks.bytes_written += bw
        ks.flops += fl
        # The local slots duplicate the part of br/bw that touched a
        # kernel-local block.
        ks.local_read += lr
        ks.local_written += lw
        stats.elided_copies += elc
        stats.elided_bytes += elb


def _eval_int(expr, env) -> int:
    v = eval_sym(expr, env)
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if not isinstance(v, (int, np.integer)):
        raise declined("structure-changed", "non-integer symbolic value")
    return int(v)


class NativeEngine:
    """Shared native-tier state: dispatch plans + compiled kernels."""

    def __init__(self, plans: Optional[Dict[int, object]] = None):
        #: id(stmt) -> KernelSpec | REJECTED (one per Program, like the
        #: kernel plans; ``Program.coverage`` reads it).
        self.plans: Dict[int, object] = plans if plans is not None else {}
        #: Every statement this engine put in ``plans``: an id is unique
        #: only while its object lives, so the engine keeps them alive.
        self._planned: List[object] = []
        #: Why a statement has no kernel (layer ``native``) or a launch
        #: of it fell back (``launch``), under the statement's binding
        #: name: ``plans`` is keyed by addresses, which mean nothing to a
        #: reader and nothing after this process.
        self.declined = DecisionLog()
        self._lock = threading.Lock()
        #: id(stmt) -> (stmt, KernelSpec) printed by :meth:`plan`, not
        #: yet built.
        self._unbuilt: Dict[int, tuple] = {}
        #: Cumulative wall clock of printing kernels (:meth:`plan`) and
        #: building them (:meth:`planning`): a walk that prints and builds
        #: nothing adds nothing.
        self.codegen_seconds = 0.0

    # ------------------------------------------------------------------
    def try_run_map(self, ex, stmt, exp, env, width, dests) -> bool:
        spec = self.plans.get(id(stmt))
        if spec is None:
            with self.planning():
                self.plan(ex, stmt, env, dests)
            spec = self.plans[id(stmt)]
        if spec is REJECTED:
            return False
        try:
            launch, blocks = self.marshal(spec, ex, env, width, dests)
        except (Declined, InterpError) as e:
            with self._lock:
                self._fell_back(stmt, e)
            return False
        # Commit: allocate, fire, distribute.  The backing blocks are
        # kernel scratch: they die when the outermost map ends.
        bufs = [ex.mem[b] if b is not None else None for b in blocks]
        for i, elems, np_dtype, name, dtype, count in launch.allocs:
            bufs[i] = np.zeros(elems, dtype=np_dtype)
            ex._born(name, dtype, elems, count, bufs[i])
        counters = np.zeros(len(spec.sites) * SLOTS, dtype=np.int64)
        buf_ptrs = (ctypes.c_void_p * max(1, len(bufs)))(
            *[b.ctypes.data for b in bufs] or [0]
        )
        fire(launch, ctypes.addressof(buf_ptrs), counters.ctypes.data)
        distribute(ex.stats, spec.sites, counters)
        return True

    def record_map(self, ex, stmt, env, width, dests) -> None:
        """:meth:`try_run_map` in the dry run that records a launch tape
        (``ex._recorder``; under :meth:`planning`): plan the kernel,
        marshal the launch and record it with its host accounting -- or
        refuse the tape with the engine's record."""
        rec = ex._recorder
        spec = self.plan(ex, stmt, env, dests)
        if spec is REJECTED:
            rec.refuse(self.declined.at("native", stmt.names[0]))
            return
        try:
            launch, blocks = self.marshal(spec, ex, env, width, dests)
        except (Declined, InterpError) as e:
            rec.refuse(self._fell_back(stmt, e))
            return
        for _, elems, _, name, dtype, count in launch.allocs:
            ex._born(name, dtype, elems, count)
        ex.stats.native_launches += 1
        rec.launch(stmt.names[0], launch, blocks)

    def _fell_back(self, stmt, e):
        """Record that a launch's concrete structure diverges from the
        plan (caller holds the lock)."""
        rule, detail = (
            (e.rule, e.detail) if isinstance(e, Declined)
            else ("interp-error", str(e))
        )
        return self.declined.add("launch", rule, stmt.names[0], detail)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def planning(self):
        """Hold the engine while :meth:`plan` prints kernels, then build
        every one it printed, one ``cc`` per core at once; printing and
        building count in :attr:`codegen_seconds`."""
        with self._lock:
            try:
                yield
            finally:
                if self._unbuilt:
                    t0 = time.perf_counter()
                    self._build()
                    self.codegen_seconds += time.perf_counter() - t0

    def plan(self, ex, stmt, env, dests):
        """Print ``stmt``'s kernel for its first launch (``env``, ``dests``),
        to build when :meth:`planning` ends; or record why there is none.
        Returns the statement's spec (built or not) or :data:`REJECTED`."""
        if id(stmt) in self._unbuilt:
            return self._unbuilt[id(stmt)][1]
        if id(stmt) in self.plans:
            return self.plans[id(stmt)]
        self._planned.append(stmt)
        try:
            kplan = ex._vec_plans[id(stmt)]
            why = native_rule(kplan)
            if why is not None:
                raise why
            t0 = time.perf_counter()
            spec = emit_kernel(ex, kplan, env, dests)
            self.codegen_seconds += time.perf_counter() - t0
            self._unbuilt[id(stmt)] = (stmt, spec)
            return spec
        except Declined as why:
            self.declined.add("native", why.rule, stmt.names[0], why.detail)
        except Exception as bug:
            # An emitter bug is not this request's problem, nor the
            # next one's: the vectorized tier serves the statement,
            # and the record is one no test run may contain.
            self.declined.add(
                "native", "internal-error", stmt.names[0], repr(bug)
            )
        self.plans[id(stmt)] = REJECTED
        return REJECTED

    def _build(self) -> None:
        """Compile the printed kernels; a launch sees a plan only once
        it is built (or ``REJECTED``, with its own record)."""
        todo, self._unbuilt = list(self._unbuilt.values()), {}
        try:
            built = build.compile_kernels(
                [spec.source for _, spec in todo], _cores()
            )
        except Exception as bug:  # recorded like an emitter bug
            built = [build.BuildError("internal-error", repr(bug))] * len(todo)
        for (stmt, spec), got in zip(todo, built):
            if isinstance(got, build.BuildError):
                self.declined.add("native", got.rule, stmt.names[0], got.detail)
                self.plans[id(stmt)] = REJECTED
            else:
                spec.fn, spec.digest = got
                self.plans[id(stmt)] = spec

    # ------------------------------------------------------------------
    def marshal(self, spec: KernelSpec, ex, env, width, dests):
        """Directives -> concrete arguments of one launch.

        Returns ``(launch, blocks)``: ``blocks[i]`` names the memory
        block of buffer argument ``i`` in ``ex.mem``, ``None`` where the
        kernel wants a per-launch backing block (``launch.allocs``).
        Mutates nothing: a :class:`~repro.decisions.Declined` here is a
        clean no-op fallback."""
        ia: list = []
        for d in spec.int_dirs:
            tag = d[0]
            if tag == "env":
                ia.append(self._scalar(env, d[1], d[2], want_int=True))
            else:  # ("arrcomp", source, ranks, dtype, literals)
                _, source, ranks, dtype, lits = d
                ra = self._source_array(source, env, dests)
                if ra.dtype != dtype:
                    raise declined("structure-changed", "array dtype changed")
                if tuple(len(l.dims) for l in ra.ixfn.lmads) != ranks:
                    raise declined(
                        "structure-changed", "index-function structure changed"
                    )
                for comp, lit in zip(components(ra.ixfn), lits):
                    v = self._concrete(comp)
                    if lit is not None and v != lit:
                        # The C text holds ``lit`` where this launch has v.
                        raise declined(
                            "structure-changed",
                            f"literal index component {lit} is now {v}",
                        )
                    ia.append(v)
        fa = [
            self._scalar(env, d[1], d[2], want_int=False)
            for d in spec.flt_dirs
        ]
        blocks: list = [None] * len(spec.buf_dirs)
        allocs = []
        for i, d in enumerate(spec.buf_dirs):
            tag = d[0]
            if tag == "arr":
                ra = self._source_array(d[1], env, dests)
                blocks[i] = ex._resolve_mem(ra.mem, env)
            elif tag == "mem":
                blocks[i] = ex._resolve_mem(d[1], env)
            else:  # ("alloc", site_idx)
                name, size_sym, count_syms, dtype = spec.alloc_sites[d[1]]
                size = _eval_int(size_sym, env)
                total = 1
                for cs in count_syms:
                    total *= _eval_int(cs, env)
                allocs.append((
                    i, total * size, DTYPE_INFO[dtype][0], name, dtype, total,
                ))
        return Launch(
            spec, int(width),
            np.asarray(ia, dtype=np.int64), np.asarray(fa, dtype=np.float64),
            tuple(allocs),
        ), blocks

    # ------------------------------------------------------------------
    @staticmethod
    def _scalar(env, name, kind, want_int):
        v = env.get(name)
        if v is None and name not in env:
            raise declined("structure-changed", f"free variable {name!r} vanished")
        try:
            ok = scalar.kind_of(v) == kind
        except TypeError:
            ok = False
        if not ok:
            raise declined("structure-changed", f"scalar kind of {name!r} changed")
        return int(v) if want_int else float(v)

    @staticmethod
    def _source_array(source, env, dests):
        from repro.mem.exec import RuntimeArray

        tag, key = source
        ra = env.get(key) if tag == "env" else dests[key]
        if not isinstance(ra, RuntimeArray):
            raise declined("structure-changed", "array argument vanished")
        return ra

    @staticmethod
    def _concrete(expr) -> int:
        v = expr.as_int()
        if v is None:
            raise declined("structure-changed", "symbolic index-function component")
        return v
