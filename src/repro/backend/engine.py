"""Launch machinery for the native C executor tier.

:class:`NativeEngine` mirrors :class:`repro.mem.vectorize.VecEngine`'s
contract: ``try_run_map`` either executes one outermost ``map``
statement completely -- outputs *and* every simulated ``ExecStats``
quantity bit-identical to the interpreted walk -- and returns ``True``,
or touches nothing and returns ``False`` so the executor falls through
to the vectorized/interpreted tiers.

The first launch of a statement drives :func:`repro.backend.cemit.
emit_kernel` over the kernel subtree, producing launch-*structure*-
specialized C plus a list of argument directives (which host scalars,
symbolic expressions, index-function components, and buffers to marshal
per launch).  The compiled entry point is cached by source digest
(:mod:`repro.backend.build`); the per-statement plan is shared across
all executors of a :class:`repro.runtime.Program`, exactly like the
vectorized dispatch plans.  A statement whose subtree the emitter
declines -- or crashes on (``internal-error``) -- or whose C the
toolchain fails to build is marked and never attempted again; a launch whose concrete structure no longer
matches the plan (a rank or scalar-kind change) falls back for that
launch only.  Either way :attr:`NativeEngine.declined` says why.

A launch is ``marshal -> fire -> distribute``: :meth:`NativeEngine.
marshal` turns the directives into a :class:`Launch` (concrete argument
arrays; mutates nothing), :func:`fire` is the ctypes call, and
:func:`distribute` folds the counters the C code accumulated into the
run's ``KernelStat``s.  :mod:`repro.runtime.tape` keeps the ``Launch``
objects of a captured run and replays them through the same ``fire``
and ``distribute``.
"""

from __future__ import annotations

import ctypes
import threading
import time
from typing import Dict, Optional

import numpy as np

from repro.backend import build
from repro.backend.cemit import SLOTS, KernelSpec, components, emit_kernel
from repro.decisions import DecisionLog, Declined
from repro.ir import scalar
from repro.ir.interp import InterpError, eval_sym
from repro.ir.types import DTYPE_INFO

#: Plan sentinel: no kernel for this statement (``NativeEngine.declined``
#: holds the reason under the statement's binding name).
REJECTED = object()

_LL_PTR = ctypes.POINTER(ctypes.c_longlong)
_DBL_PTR = ctypes.POINTER(ctypes.c_double)


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
        # The arrays own the memory the pointers address.
        self.ia = ia
        self.fa = fa
        self.ia_ptr = ia.ctypes.data_as(_LL_PTR)
        self.fa_ptr = fa.ctypes.data_as(_DBL_PTR)
        #: Per in-kernel allocation site: (buffer position, element
        #: count, numpy dtype) of the fresh zeroed block each execution
        #: needs, then (static name, bytes, block count, space) for the
        #: executor's footprint accounting.
        self.allocs = allocs


def fire(launch: Launch, buf_ptrs, counters_ptr) -> None:
    """The ctypes call.  ``buf_ptrs`` addresses this execution's
    ``char*[]``, ``counters_ptr`` its zeroed ``len(sites) * SLOTS``
    counter block."""
    launch.spec.fn(
        launch.width, launch.ia_ptr, launch.fa_ptr, buf_ptrs, counters_ptr
    )


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
        _ent, br, bw, fl, elc, elb, scr, scw, rgr, rgw = row
        ks = stats.kernel(kind, label)
        ks.bytes_read += br
        ks.bytes_written += bw
        ks.flops += fl
        # Space slots duplicate the part of br/bw that touched a
        # non-HBM space (see cemit.SPACE_SLOTS).
        for sp, rd, wr in (("scratch", scr, scw), ("regs", rgr, rgw)):
            if rd:
                ks.space_read[sp] = ks.space_read.get(sp, 0) + rd
            if wr:
                ks.space_written[sp] = ks.space_written.get(sp, 0) + wr
        stats.elided_copies += elc
        stats.elided_bytes += elb


def _eval_int(expr, env) -> int:
    v = eval_sym(expr, env)
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if not isinstance(v, (int, np.integer)):
        raise Declined("structure-changed", "non-integer symbolic value")
    return int(v)


class NativeEngine:
    """Shared native-tier state: dispatch plans + compiled kernels."""

    def __init__(self, plans: Optional[Dict[int, object]] = None):
        #: id(stmt) -> KernelSpec | REJECTED (shared per Program, like
        #: the vectorized dispatch plans).
        self.plans: Dict[int, object] = plans if plans is not None else {}
        #: Why a statement has no kernel (layer ``native``) or a launch
        #: of it fell back (``launch``), under the statement's binding
        #: name: ``plans`` is keyed by addresses, which mean nothing to a
        #: reader and nothing after this process.
        self.declined = DecisionLog()
        self._lock = threading.Lock()
        #: Cumulative emission + cc wall clock (ExecStats.codegen_seconds).
        self.codegen_seconds = 0.0

    # ------------------------------------------------------------------
    def try_run_map(self, ex, stmt, exp, env, width, dests) -> bool:
        plan = self.plans.get(id(stmt))
        if plan is None:
            plan = self._emit(ex, stmt, exp, env, dests)
        rec = ex._recorder
        if plan is REJECTED:
            if rec is not None:
                rec.refuse(self.declined.at("native", stmt.names[0]))
            return False
        try:
            self._launch(plan, ex, env, width, dests)
        except (Declined, InterpError) as e:
            # This launch's concrete structure diverges from the plan.
            rule, detail = (
                (e.rule, e.detail) if isinstance(e, Declined)
                else ("interp-error", str(e))
            )
            with self._lock:
                why = self.declined.add(
                    "launch", rule, stmt.names[0], detail
                )
            if rec is not None:
                rec.refuse(why)
            return False
        return True

    # ------------------------------------------------------------------
    def _emit(self, ex, stmt, exp, env, dests):
        with self._lock:
            plan = self.plans.get(id(stmt))
            if plan is not None:
                return plan
            t0 = time.perf_counter()
            try:
                spec = emit_kernel(ex, stmt, exp, env, dests)
                fn, digest = build.compile_kernel(spec.source)
                spec.fn = fn
                spec.digest = digest
                plan = spec
            except (Declined, build.BuildError) as why:
                self.declined.add(
                    "native", why.rule, stmt.names[0], why.detail
                )
                plan = REJECTED
            except Exception as bug:
                # An emitter bug is not this request's problem, nor the
                # next one's: the vectorized tier serves the statement,
                # and the record is one no test run may contain.
                self.declined.add(
                    "native", "internal-error", stmt.names[0], repr(bug)
                )
                plan = REJECTED
            self.codegen_seconds += time.perf_counter() - t0
            self.plans[id(stmt)] = plan
            return plan

    # ------------------------------------------------------------------
    def _launch(self, spec: KernelSpec, ex, env, width, dests) -> None:
        """marshal -> fire -> distribute: the one launch path.

        With a tape recorder attached to the executor the counters are
        handed to it instead (it distributes them at the end of the run,
        after snapshotting the run's host-only statistics)."""
        launch, bufs = self.marshal(spec, ex, env, width, dests)
        # Commit point: allocate the per-site backing blocks with the
        # interpreter's exact accounting (one fresh zeroed block per
        # site holding all per-execution slots; freed wholesale when the
        # outermost map ends, via the kernel-alloc log).
        for i, elems, np_dtype, name, nbytes, total, space in launch.allocs:
            buf = np.zeros(elems, dtype=np_dtype)
            ex._alloc_counter += 1
            unique = f"{name}@{ex._alloc_counter}"
            ex.mem[unique] = buf
            ex.stats.alloc_count += total
            ex.stats.alloc_bytes += nbytes
            ex._note_alloc(name, unique, nbytes, space)
            bufs[i] = buf
        counters = np.zeros(len(spec.sites) * SLOTS, dtype=np.int64)
        buf_ptrs = (ctypes.c_void_p * max(1, len(bufs)))(
            *[b.ctypes.data for b in bufs] or [0]
        )
        fire(launch, buf_ptrs, counters.ctypes.data_as(_LL_PTR))
        rec = ex._recorder
        if rec is None:
            distribute(ex.stats, spec.sites, counters)
        else:
            rec.launch(launch, bufs, counters)

    def marshal(self, spec: KernelSpec, ex, env, width, dests):
        """Directives -> concrete arguments of one launch.

        Returns ``(launch, bufs)``; ``bufs[i]`` is ``None`` where the
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
                    raise Declined("structure-changed", "array dtype changed")
                if tuple(len(l.dims) for l in ra.ixfn.lmads) != ranks:
                    raise Declined(
                        "structure-changed", "index-function structure changed"
                    )
                for comp, lit in zip(components(ra.ixfn), lits):
                    v = self._concrete(comp)
                    if lit is not None and v != lit:
                        # The C text holds ``lit`` where this launch has v.
                        raise Declined(
                            "structure-changed",
                            f"literal index component {lit} is now {v}",
                        )
                    ia.append(v)
        fa = [
            self._scalar(env, d[1], d[2], want_int=False)
            for d in spec.flt_dirs
        ]
        bufs: list = [None] * len(spec.buf_dirs)
        allocs = []
        for i, d in enumerate(spec.buf_dirs):
            tag = d[0]
            if tag == "arr":
                ra = self._source_array(d[1], env, dests)
                bufs[i] = self._buffer(ex, ra.mem, env)
            elif tag == "mem":
                bufs[i] = self._buffer(ex, d[1], env)
            else:  # ("alloc", site_idx)
                name, size_sym, count_syms, dtype, space = (
                    spec.alloc_sites[d[1]]
                )
                size = _eval_int(size_sym, env)
                total = 1
                for cs in count_syms:
                    total *= _eval_int(cs, env)
                np_dtype, itemsize = DTYPE_INFO[dtype]
                allocs.append((
                    i, total * size, np_dtype,
                    name, total * size * itemsize, total, space,
                ))
        return Launch(
            spec, int(width),
            np.asarray(ia, dtype=np.int64), np.asarray(fa, dtype=np.float64),
            tuple(allocs),
        ), bufs

    # ------------------------------------------------------------------
    @staticmethod
    def _scalar(env, name, kind, want_int):
        v = env.get(name)
        if v is None and name not in env:
            raise Declined("structure-changed", f"free variable {name!r} vanished")
        try:
            ok = scalar.kind_of(v) == kind
        except TypeError:
            ok = False
        if not ok:
            raise Declined("structure-changed", f"scalar kind of {name!r} changed")
        return int(v) if want_int else float(v)

    @staticmethod
    def _source_array(source, env, dests):
        from repro.mem.exec import RuntimeArray

        tag, key = source
        ra = env.get(key) if tag == "env" else dests[key]
        if not isinstance(ra, RuntimeArray):
            raise Declined("structure-changed", "array argument vanished")
        return ra

    @staticmethod
    def _concrete(expr) -> int:
        v = expr.as_int()
        if v is None:
            raise Declined("structure-changed", "symbolic index-function component")
        return v

    @staticmethod
    def _buffer(ex, mem, env) -> np.ndarray:
        buf = ex.mem[ex._resolve_mem(mem, env)]
        if not isinstance(buf, np.ndarray):
            raise Declined("structure-changed", "memory block is not materialized")
        return buf
