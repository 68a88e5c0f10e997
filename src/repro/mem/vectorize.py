"""Vectorized kernel engine: batched NumPy execution of ``map`` bodies.

The interpreted executor (:mod:`repro.mem.exec`) runs a ``map`` by
evaluating the lambda body once per thread index.  This module executes
the *same* body once with the thread dimension batched: the thread
variable becomes an ``np.arange(width)`` lane vector, scalar operations
become broadcast ufuncs, and every array access evaluates its LMAD index
function for all lanes at once.  It is SIMT-lockstep: lane-varying
conditionals run both branches under complementary masks, sequential
loops with uniform trip counts iterate on the host.  Race-free programs
(the :mod:`repro.analysis` checkers gate every benchmark) observe no
difference from the interpreter's sequential thread order.

A body is *staged*, not interpreted: the walk that decides whether a map
is expressible (:meth:`VecEngine._plan_map`) lowers each statement it
accepts into a closure with everything a request cannot change fixed --
the statement kind, the operator row, every index-function component as
a compiled evaluator, a block's flop charge.  A launch only runs the
closures, in one environment (names are bound once, so loop iterations
and ``if`` branches share it).  No width, size or host-scalar value is
baked in, so one staged body serves every shape class; what a request
decides -- whether an operand is a lane vector, the kind of a host scalar,
which block a view lands in -- is read per run.

Two invariants tie the engine to the interpreter:

* **bit-identical results** -- scalar operators are the rows of
  :mod:`repro.ir.scalar`, applied to lane vectors converted as its
  promotion rule says (DESIGN.md section 7, "Scalar semantics");
* **bit-identical accounting** -- every simulated quantity
  (``bytes_read``/``bytes_written``/``flops`` per kernel, elisions,
  allocations) is counted exactly as the interpreted path would: an
  operation over ``L`` active lanes counts ``L`` times.

The walk is a taint analysis seeded with the thread variable: any
construct whose batched execution could diverge from per-thread
interpretation (lane-varying trip counts or shapes, reductions,
array-valued lane-varying branches) rejects the whole map, which then
falls back to the interpreted path.  There is deliberately no dynamic
try/except fallback: a plan either runs vectorized to completion or was
never attempted, so statistics cannot be double-counted.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.decisions import Decision, Declined
from repro.ir import ast as A
from repro.ir import scalar
from repro.ir.interp import InterpError
from repro.ir.types import DTYPE_INFO
from repro.mem.exec import MemExecutor, MemRef, RuntimeArray
from repro.mem.memir import binders, binding_of, iter_stmts
from repro.symbolic import SymExpr

_nd = np.ndarray


class MapPlan:
    """What the planner made of one map statement: its staged ``body``,
    or the ``declined`` record of why there is none.  It holds the
    statement itself: plan tables are keyed by ``id(stmt)``, which is
    unique only while the statement lives."""

    __slots__ = ("stmt", "declined", "body", "free")

    def __init__(self, stmt: A.Let, declined=None, body=None, free=()):
        self.stmt, self.declined, self.body = stmt, declined, body
        #: Names the body reads from the launching environment.
        self.free = free

    def run(self, ex: MemExecutor, env, width: int, dests) -> None:
        r = _Run(ex, width, ex._current_kernel(), {}, set(), env)
        venv = dict(env)
        for name in self.free:
            v = venv.get(name)
            if v.__class__ is RuntimeArray:
                venv[name] = _view_of(v, ex)
        param = self.stmt.exp.lam.params[0]
        venv[param] = r.lanes
        r.weak.add(param)
        vals = self.body.run(r, venv)
        for dest, val in zip(dests, vals):
            if dest is not None:
                _write_result(r, _fix0(_view_of(dest, ex), r.lanes), val)


class VecEngine:
    """Per-executor dispatch into the (possibly shared) plan table."""

    def __init__(self, ex: MemExecutor, plans: Optional[Dict[int, object]] = None):
        self.ex = ex
        #: id(map stmt) -> :class:`MapPlan`, made at the statement's first
        #: dispatch.  A Program passes a shared dict, so a body is staged
        #: once per compiled function, not once per request.
        self._plans: Dict[int, object] = plans if plans is not None else {}

    # ------------------------------------------------------------------
    # Entry point (called from MemExecutor._exec_map, real mode only)
    # ------------------------------------------------------------------
    def try_run_map(self, stmt: A.Let, exp: A.Map, env, width: int, dests) -> bool:
        plan = self._plans.get(id(stmt))
        if plan is None:
            plan = self._plans[id(stmt)] = self._plan_map(stmt, exp)
        if plan.body is None:
            return False
        plan.run(self.ex, env, width, dests)
        return True

    @staticmethod
    def _plan_map(stmt: A.Let, exp: A.Map) -> MapPlan:
        param = exp.lam.params[0]
        try:
            body = _Stager(param).block(exp.lam.body, False, (param,))
        except Declined as why:
            return MapPlan(
                stmt, Decision("vectorize", why.rule, stmt.names[0], why.detail)
            )
        return MapPlan(stmt, body=body, free=A.exp_uses(exp))


# ----------------------------------------------------------------------
# Planning and lowering: one walk
# ----------------------------------------------------------------------
class _Stager:
    """The taint analysis, lowering each statement it accepts.

    ``tainted``: scalars that may differ between lanes; ``lane_arrays``:
    arrays that may; ``local_mems``: blocks allocated in the body;
    ``visible``: names bound at this point of every launch (an
    existential block of a compound result that is not among them is
    bound from the result's value, as the interpreter binds it);
    ``bindings``: the annotation each array of the body was made from."""

    def __init__(self, param: str):
        self.tainted = {param}
        self.lane_arrays: set = set()
        self.local_mems: set = set()
        self.visible: set = set()
        self.bindings: Dict[str, object] = {}

    def block(self, block: A.Block, masked: bool, bound=()) -> "_Block":
        outer = self.visible
        self.visible = outer | set(bound)
        steps, flops = [], 0
        for stmt in block.stmts:
            try:
                steps.append(self.stmt(stmt, masked))
            except Declined as why:
                # Name the innermost statement the analysis stopped at.
                raise Declined(
                    why.rule, why.detail or f"at {stmt.names[0]}"
                ) from None
            if type(stmt.exp) in (A.BinOp, A.UnOp):
                flops += scalar.OPS[stmt.exp.op].flops
            self.visible.update(stmt.names)
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    self.bindings[pe.name] = pe.mem
        self.visible = outer
        return _Block(steps, block.result, flops)

    def _check_bindings(self, stmt: A.Let) -> None:
        """Array bindings must have lane-uniform extents.

        Offsets and strides may depend on the thread variable (that is the
        whole point of short-circuited scratch buffers); the *shape* of a
        region must not, or lanes would transfer different amounts.
        """
        for pe in stmt.pattern:
            if pe.is_array():
                b = binding_of(pe)
                if b is None:
                    raise Declined("array-without-binding")
                self._uniform_shape(b)

    def _uniform_shape(self, b) -> None:
        for l in b.ixfn.lmads:
            for d in l.dims:
                if d.shape.free_vars() & self.tainted:
                    raise Declined("lane-varying-shape")

    def _lane_binding(self, pe) -> bool:
        b = binding_of(pe)
        return bool(b.ixfn.free_vars() & self.tainted) or b.mem in self.local_mems

    def stmt(self, stmt: A.Let, masked: bool) -> "Step":
        exp = stmt.exp
        kind = type(exp)
        name = stmt.names[0]
        pe = stmt.pattern[0]
        tainted, lane_arrays = self.tainted, self.lane_arrays

        if kind is A.Lit:
            return _scalar(name, _constant(_NP_TYPE[exp.dtype].type(exp.value)))
        if kind is A.ScalarE:
            if exp.expr.free_vars() & tainted:
                tainted.add(name)
            return _scalar(name, _evaluator(exp.expr))
        if kind is A.BinOp or kind is A.UnOp:
            if scalar.OPS[exp.op].lanes is None:
                raise Declined(
                    "not-bit-exact", f"{exp.op} has no bit-exact lane form"
                )
            if A.exp_uses(exp) & tainted:
                tainted.add(name)
            return (_binop if kind is A.BinOp else _unop)(name, exp)
        if kind is A.VarRef and not pe.is_array():
            if exp.name in tainted:
                tainted.add(name)
            return _alias(name, exp.name)
        if kind is A.Index:
            idx_vars = frozenset().union(*(i.free_vars() for i in exp.indices))
            if (idx_vars & tainted) or exp.src in lane_arrays:
                tainted.add(name)
            return _index(name, exp)
        if kind is A.Reduce or kind is A.ArgMin:
            raise Declined("reduction-in-body")
        if kind is A.If:
            return self._if(stmt, exp, masked)
        if kind not in _ARRAY_STEPS and kind not in (A.Alloc, A.Map, A.Loop):
            raise Declined("unsupported-expression")

        # What is left makes arrays or blocks: every lane must run it.
        if masked:
            raise Declined("masked-loop" if kind is A.Loop else "masked-array-stmt")
        if kind is A.Alloc:
            if exp.size.free_vars() & tainted:
                raise Declined("lane-varying-shape")
            self.local_mems.add(name)
            return _alloc(name, exp)
        if kind is A.Map:
            return self._map(stmt, exp)
        if kind is A.Loop:
            return self._loop(stmt, exp)
        self._check_bindings(stmt)
        spec = getattr(exp, "spec", None)
        extents = (
            [exp.n] if kind is A.Iota else exp.shape if kind is A.Replicate
            else [c for _, c, _ in spec.triplets] if isinstance(spec, A.TripletSpec)
            else [d.shape for d in spec.lmad.dims] if isinstance(spec, A.LmadSpec)
            else ()
        )
        if any(e.free_vars() & tainted for e in extents):
            raise Declined("lane-varying-shape")
        # A view or copy varies where its binding or its source does.
        # Scratch contents get written per-lane later; replicate of a
        # tainted value differs per lane; all are conservatively
        # lane-varying unless provably uniform, which we never need.
        src = exp.name if kind is A.VarRef else getattr(exp, "src", None)
        if (
            kind not in _VIEWS
            or self._lane_binding(pe)
            or src in lane_arrays
        ):
            lane_arrays.add(name)
        if kind is A.Update:
            # An update in place is made from its source's annotation: the
            # source's view is the result's.
            in_place = self.bindings.get(exp.src) == binding_of(pe)
            return _update(name, pe, exp, in_place)
        return _ARRAY_STEPS[kind](name, pe, exp)

    def _map(self, stmt: A.Let, exp: A.Map) -> "Step":
        # A nested map extends the lane space: width_outer x width_inner
        # composite lanes, provided the inner width is lane-uniform.
        if exp.width.free_vars() & self.tainted:
            raise Declined("lane-varying-map-width")
        self._check_bindings(stmt)
        param = exp.lam.params[0]
        self.tainted.add(param)
        body = self.block(exp.lam.body, False, (param,))
        for pe in stmt.pattern:
            (self.lane_arrays if pe.is_array() else self.tainted).add(pe.name)
        return _nested_map(stmt, exp, body)

    def _loop(self, stmt: A.Let, exp: A.Loop) -> "Step":
        if exp.count.free_vars() & self.tainted:
            raise Declined("lane-varying-trip-count")
        bound = [exp.index]
        for prm, _init in exp.carried:
            bound.append(prm.name)
            b = binding_of(prm)
            if not prm.is_array():
                # Even a uniform initializer can become lane-varying
                # through the body; taint conservatively.
                self.tainted.add(prm.name)
                continue
            if b is not None:
                self._uniform_shape(b)
                bound.append(b.mem)
                self.bindings[prm.name] = b
            self.lane_arrays.add(prm.name)
        body = self.block(exp.body, False, bound)
        # A carried array's view is its parameter's annotation, re-derived
        # each iteration -- unless the body's result was made from the
        # same annotation under the same variables: then it is the view.
        per_iteration = {exp.index, *(p.name for p, _ in exp.carried)} | {
            n for s in iter_stmts(exp.body) for n in s.names
        }
        params = []
        for (prm, _init), res in zip(exp.carried, exp.body.result):
            b = binding_of(prm)
            if not prm.is_array() or b is None:
                params.append((prm.name, None, None, False))
                continue
            kept = self.bindings.get(res) == b and not (
                (b.ixfn.free_vars() | {b.mem}) & per_iteration
            )
            params.append((prm.name, _view_maker(b, prm.type.dtype), b.mem, kept))
        self._check_bindings(stmt)
        results = self._results(stmt)
        for pe in stmt.pattern:
            (self.lane_arrays if pe.is_array() else self.tainted).add(pe.name)
        return _loop(exp, params, body, results)

    def _if(self, stmt: A.Let, exp: A.If, masked: bool) -> "Step":
        arrays = any(pe.is_array() for pe in stmt.pattern)
        if masked and arrays:
            raise Declined("masked-array-stmt")
        if A.operand_vars(exp.cond) & self.tainted:
            # Lane-varying condition: masked execution of both
            # branches.  Array-producing statements are forbidden
            # inside (they would need per-lane shapes), and all
            # results become lane vectors.
            if arrays:
                raise Declined("lane-varying-array-branch")
            then = self.block(exp.then_block, True)
            other = self.block(exp.else_block, True)
            for pe in stmt.pattern:
                self.tainted.add(pe.name)
        else:
            then = self.block(exp.then_block, masked)
            other = self.block(exp.else_block, masked)
            self._check_bindings(stmt)
            for pe, tr, er in zip(
                stmt.pattern, exp.then_block.result, exp.else_block.result
            ):
                if pe.is_array():
                    self.lane_arrays.add(pe.name)
                elif tr in self.tainted or er in self.tainted:
                    self.tainted.add(pe.name)
        return _if(stmt, exp, then, other, self._results(stmt))

    def _results(self, stmt: A.Let) -> Callable:
        """Binds a loop's or an ``if``'s results (see :func:`_bind_results`)."""
        scalars, arrays = [], []
        for k, pe in enumerate(stmt.pattern):
            b = binding_of(pe)
            if not pe.is_array():
                scalars.append((k, pe.name))
            elif b is None:
                arrays.append((k, pe.name, None, None))
            else:
                exist = None if b.mem in self.visible else b.mem
                arrays.append((k, pe.name, _view_maker(b, pe.type.dtype), exist))
                self.visible.add(b.mem)
        return functools.partial(_bind_results, scalars=scalars, arrays=arrays)


# ----------------------------------------------------------------------
# Run-time state
# ----------------------------------------------------------------------
class _Run:
    """One launch's lane state; a nested map's sub-run has its own, over
    composite lanes.  ``lanes``: the active lanes' ids; ``sel``: the same,
    or None while all ``W`` are; ``L``: how many.  ``blocks``: each
    lane-expanded in-body block (one ``W * size`` buffer) -> its lanes'
    base offsets.  ``weak``: the names bound to a *weak* lane vector (a
    thread index, or what Python-scalar arithmetic made of one; a uniform
    value says which it is by its type, an ndarray cannot).  ``host``:
    the launching environment."""

    __slots__ = ("ex", "W", "lanes", "sel", "L", "ks", "blocks", "weak", "host")

    def __init__(self, ex, W, ks, blocks, weak, host):
        self.ex, self.ks = ex, ks
        self.W = self.L = W
        self.lanes, self.sel = np.arange(W, dtype=np.int64), None
        self.blocks, self.weak, self.host = blocks, weak, host


#: ``step(run, env)``: one lowered statement; it binds what its
#: statement binds in ``env``.
Step = Callable[[_Run, dict], None]


class _Block:
    """A block's statements lowered to steps, and its flop charge: every
    scalar operator of the block counts its flops once per active lane."""

    __slots__ = ("steps", "result", "flops")

    def __init__(self, steps: List[Step], result, flops: int):
        self.steps, self.result, self.flops = steps, result, flops

    def run(self, r: _Run, env) -> List[object]:
        if self.flops:
            r.ks.flops += r.L * self.flops
        for step in self.steps:
            step(r, env)
        out = []
        for n in self.result:
            if n in env:
                out.append(env[n])
            elif n in r.ex.mem:
                out.append(MemRef(n))
            else:
                raise InterpError(f"unbound result {n!r}")
        return out


class _View:
    """An array inside a launch: its block, and its index function with
    every LMAD component evaluated -- an int, or (offsets and strides
    only: the planner keeps shapes uniform) a full-width int64 lane
    vector.  ``off``/``dims`` are the index-side LMAD, ``outer`` the
    others, memory side first; a lane-expanded block's lane bases are
    part of the memory-side offset."""

    __slots__ = ("mem", "space", "dtype", "item", "off", "dims", "outer")

    def __init__(self, mem, space, dtype, off, dims, outer=()):
        self.mem, self.space, self.dtype = mem, space, dtype
        self.item = DTYPE_INFO[dtype][1]
        self.off, self.dims, self.outer = off, dims, outer

    def relaid(self, off, dims, outer=None) -> "_View":
        """The same block under another layout."""
        return _View(
            self.mem, self.space, self.dtype, off, dims,
            self.outer if outer is None else outer,
        )

    def lmads(self):
        return [*self.outer, (self.off, self.dims)]

    def size(self) -> int:
        n = 1
        for d, _ in self.dims:
            n *= d
        return n


# ----------------------------------------------------------------------
# Compiled evaluators
# ----------------------------------------------------------------------
def _int(v):
    """A scalar as ``eval_sym`` reads it: NumPy integers as Python ints."""
    return v.item() if isinstance(v, np.generic) else v


def _evaluator(expr: SymExpr) -> Callable[[dict], object]:
    """``expr`` as a function of an environment: a Python int where every
    variable is uniform, else an int64 lane vector.  (Integer arithmetic,
    so the order of the terms does not matter.)"""
    b = expr.constant_term()
    terms = [(c, mono) for mono, c in expr.terms.items() if mono]
    if not terms:
        return _constant(b)
    if len(terms) == 1 and len(terms[0][1]) == 1 and terms[0][1][0][1] == 1:
        a, ((var, _),) = terms[0]
        if a == 1 and not b:  # a copy of a name: no arithmetic on lanes
            return lambda env: _int(env[var])
        return lambda env: a * _int(env[var]) + b

    def poly(env):
        out = b
        for c, mono in terms:
            val = c
            for v, p in mono:
                val = val * _int(env[v]) ** p
            out = out + val
        return out

    return poly


def _operand(op: A.Operand):
    """``(value of the operand in an environment, its name or None)``."""
    if isinstance(op, str):
        return operator.itemgetter(op), op
    if isinstance(op, SymExpr):
        return _evaluator(op), None
    return _constant(op), None


def _constant(c):
    return lambda _: c


def _view_maker(b, dtype: str) -> Callable[[_Run, dict], _View]:
    """The view a binder's memory annotation ``b`` describes, made at run
    time from compiled component evaluators."""
    mem_name = b.mem
    *outer, (off_of, dims_of) = [
        (_evaluator(l.offset), [(_evaluator(d.shape), _evaluator(d.stride))
                                for d in l.dims])
        for l in b.ixfn.lmads
    ]

    def make(r, env):
        mem = r.ex._resolve_mem(mem_name, env)
        off = off_of(env)
        dims = tuple([(n(env), s(env)) for n, s in dims_of])
        lm = tuple([
            (o(env), tuple([(n(env), s(env)) for n, s in d])) for o, d in outer
        ])
        base = r.blocks.get(mem)
        if base is not None:
            if lm:
                lm = ((lm[0][0] + base, lm[0][1]),) + lm[1:]
            else:
                off = base if off.__class__ is int and not off else off + base
        return _View(mem, r.ex._space_of(mem), dtype, off, dims, lm)

    return make


def _view_of(ra: RuntimeArray, ex: MemExecutor) -> _View:
    """A host array's view (its index function is concrete)."""
    *outer, (off, dims) = [
        (l.offset.as_int(),
         tuple([(d.shape.as_int(), d.stride.as_int()) for d in l.dims]))
        for l in ra.ixfn.lmads
    ]
    return _View(ra.mem, ex._space_of(ra.mem), ra.dtype, off, dims, tuple(outer))


# ----------------------------------------------------------------------
# Offsets: batched index-function application
# ----------------------------------------------------------------------
def _pick(c, sel):
    return c[sel] if sel is not None and c.__class__ is _nd else c


def _offsets(v: _View, idx, lane):
    """Flat offsets of ``v`` at the indices ``idx``, ``lane`` fitting each
    lane-vector component to them.  Composed index functions unrank
    through the outer LMADs exactly like ``IndexFn.apply_concrete``."""
    off = lane(v.off)
    for i, (_, s) in zip(idx, v.dims):
        off = off + i * lane(s)
    for loff, dims in reversed(v.outer):
        coords = np.unravel_index(off, tuple([n for n, _ in dims]))
        off = lane(loff)
        for c, (_, s) in zip(coords, dims):
            off = off + c * lane(s)
    return off


def _point(v: _View, idx_of, env, sel):
    """Offsets of ``v`` at the indices ``idx_of`` evaluate to in ``env``
    for the active lanes (``sel``: their ids, None for all): a uniform
    int or an int64 lane vector."""
    if sel is None and not v.outer:
        off = v.off
        for i_of, (_, s) in zip(idx_of, v.dims):
            off = off + i_of(env) * s
        return off
    return _offsets(v, [f(env) for f in idx_of], lambda c: _pick(c, sel))


def _region(v: _View, rows, W: int) -> np.ndarray:
    """All flat offsets of ``v``, shape ``(L, size)``, for the lanes
    ``rows`` (None: all ``W``).  Row ``k`` holds its lane's offsets in C
    order of the visible shape -- matching both ``gather_offsets`` and
    the interpreter's ``data.reshape`` convention."""
    size = v.size()
    idx = np.indices(tuple([n for n, _ in v.dims])).reshape(len(v.dims), size)

    def lane(c):  # a lane vector as a column against the region's row
        return _pick(c, rows)[:, None] if c.__class__ is _nd else c

    return np.broadcast_to(
        _offsets(v, idx, lane), (W if rows is None else len(rows), size)
    )


def _fix0(v: _View, ids) -> _View:
    """``v`` with its first dimension fixed at ``ids``."""
    (_, s), *rest = v.dims
    return v.relaid(v.off + ids * s, tuple(rest))


def _slice(v: _View, triplets) -> _View:
    """``v`` sliced by evaluated ``(start, count, step)`` triplets."""
    off, dims = v.off, []
    for (start, count, step), (_, s) in zip(triplets, v.dims):
        off = off + start * s
        dims.append((count, step * s))
    return v.relaid(off, tuple(dims))


def _expand(v: _View, wi: int) -> _View:
    """``v`` for the composite lanes of a nested map of width ``wi``."""

    def rep(c):
        return np.repeat(c, wi) if c.__class__ is _nd else c

    def lmad(off, dims):
        return rep(off), tuple([(n, rep(s)) for n, s in dims])

    return v.relaid(*lmad(v.off, v.dims), tuple([lmad(*l) for l in v.outer]))


# ----------------------------------------------------------------------
# The one copy rule, per lane
# ----------------------------------------------------------------------
def _coincide(src: _View, dst: _View):
    """Which lanes' source and destination coincide: None (none), True
    (all) or a bool lane vector."""
    if src.mem != dst.mem or len(src.outer) != len(dst.outer):
        return None
    same = True
    for (os_, ds), (od, dd) in zip(src.lmads(), dst.lmads()):
        if len(ds) != len(dd):
            return None
        pairs = [(os_, od)]
        for (ns, ss), (nd, sd) in zip(ds, dd):
            pairs += [(ns, nd), (ss, sd)]
        for a, b in pairs:
            eq = a == b
            if eq.__class__ is _nd:
                same = eq if same is True else same & eq
                if not same.any():
                    return None
            elif not eq:
                return None
    return same


def _copy(r: _Run, src: _View, dst: _View) -> None:
    """Per-lane mirror of ``MemExecutor._copy_region`` (every lane is
    active: no array statement runs masked).  A lane's copy is elided iff
    its source and destination coincide -- decided numerically, which is
    equivalent to the interpreter's structural comparison of instantiated
    (constant) index functions."""
    ex, W = r.ex, r.W
    same = _coincide(src, dst)
    n_el = 0 if same is None else W if same is True else int(np.count_nonzero(same))
    src_nb = src.size() * src.item
    dst_nb = dst.size() * dst.item
    if n_el:
        ex.stats.elided_copies += n_el
        ex.stats.elided_bytes += (src_nb + dst_nb) * n_el
    n_rem = W - n_el
    if n_rem == 0:
        return
    r.ks.note_read(src_nb * n_rem, src.space)
    r.ks.note_written(dst_nb * n_rem, dst.space)
    rows = None if n_el == 0 else np.flatnonzero(~same)
    doffs = _region(dst, rows, W)
    if doffs.size:
        soffs = _region(src, rows, W)
        ex.mem[dst.mem][doffs] = ex.mem[src.mem][soffs].reshape(doffs.shape)


def _write_result(r: _Run, region: _View, val) -> None:
    """Each lane's map result into its row of the destination: the copy
    of an array result, the write of a scalar one."""
    if val.__class__ is _View:
        _copy(r, val, region)
        return
    r.ks.note_written(region.item * r.W, region.space)
    off = _point(region, (), None, None)  # every index 0
    _store(r.ex.mem[region.mem], off, val)


def _store(buf, off, val) -> None:
    if off.__class__ is _nd:
        buf[off] = val
    else:
        # All lanes write one cell: the interpreter's last thread wins.
        buf[off] = val[-1] if val.__class__ is _nd else val


# ----------------------------------------------------------------------
# Steps: scalars
# ----------------------------------------------------------------------
def _mark(weak: set, name: str, is_weak: bool) -> None:
    (weak.add if is_weak else weak.discard)(name)


def _scalar(name: str, value_of) -> Step:
    """A literal or an index expression (its lane vectors are weak)."""

    def step(r, env):
        v = env[name] = value_of(env)
        if v.__class__ is _nd:
            r.weak.add(name)

    return step


def _alias(name: str, src: str) -> Step:
    def step(r, env):
        v = env[name] = env[src]
        if v.__class__ is _nd:
            _mark(r.weak, name, src in r.weak)

    return step


def _form(op: str, key, vals, literal):
    """How ``op`` applies to operands of the kinds ``key`` spells (a lane
    vector's ``(dtype char, weak)``, a uniform value's type): the
    conversion of each operand (None: as it is; a literal's is its
    converted value), and whether the result is weak -- the operator
    table's promotion, decided once per key."""
    dtype, kind = scalar.op_typing(op, *[
        (_IR_DTYPE[k[0]], k[1]) if v.__class__ is _nd else scalar.kind_of(v)
        for k, v in zip(key, vals)
    ])
    to = None if dtype is None else _NP_TYPE[dtype]
    convs = [
        None if to is None or (v.__class__ is _nd and k[0] == to.char)
        else (lambda a: a.astype(to)) if v.__class__ is _nd
        else _constant(to.type(v)) if lit
        else to.type
        for k, v, lit in zip(key, vals, literal)
    ]
    return convs, kind is not None and kind[1]


def _binop(name: str, exp: A.BinOp) -> Step:
    op, row = exp.op, scalar.OPS[exp.op]
    on_scalars, on_lanes = row.scalar, row.lanes
    x_of, xn = _operand(exp.x)
    y_of, yn = _operand(exp.y)
    literal = [not isinstance(o, (str, SymExpr)) for o in (exp.x, exp.y)]
    forms: dict = {}

    def step(r, env):
        x, y = x_of(env), y_of(env)
        x_lanes, y_lanes = x.__class__ is _nd, y.__class__ is _nd
        if not (x_lanes or y_lanes):
            env[name] = on_scalars(x, y)  # uniform: its type says its kind
            return
        # A lane vector: an index expression's is weak, a name's as marked.
        weak = r.weak
        key = (
            (x.dtype.char, xn is None or xn in weak) if x_lanes else x.__class__,
            (y.dtype.char, yn is None or yn in weak) if y_lanes else y.__class__,
        )
        form = forms.get(key)
        if form is None:
            form = forms[key] = _form(op, key, (x, y), literal)
        (cx, cy), is_weak = form
        env[name] = on_lanes(
            x if cx is None else cx(x), y if cy is None else cy(y)
        )
        if is_weak:
            weak.add(name)
        else:
            weak.discard(name)

    return step


def _unop(name: str, exp: A.UnOp) -> Step:
    op, row = exp.op, scalar.OPS[exp.op]
    on_scalars, on_lanes = row.scalar, row.lanes
    x_of, xn = _operand(exp.x)
    forms: dict = {}

    def step(r, env):
        x = x_of(env)
        if x.__class__ is not _nd:
            env[name] = on_scalars(x)
            return
        key = ((x.dtype.char, xn is None or xn in r.weak),)
        form = forms.get(key)
        if form is None:
            form = forms[key] = _form(op, key, (x,), (False,))
        (cx,), is_weak = form
        env[name] = on_lanes(x if cx is None else cx(x))
        _mark(r.weak, name, is_weak)

    return step


def _index(name: str, exp: A.Index) -> Step:
    src, idx_of = exp.src, [_evaluator(i) for i in exp.indices]

    def step(r, env):
        v = env[src]
        r.ks.note_read(v.item * r.L, v.space)
        env[name] = r.ex.mem[v.mem][_point(v, idx_of, env, r.sel)]

    return step


# ----------------------------------------------------------------------
# Steps: arrays
# ----------------------------------------------------------------------
def _alloc(name: str, exp: A.Alloc) -> Step:
    size_of = _evaluator(exp.size)
    np_dtype, item = DTYPE_INFO[exp.dtype]

    def step(r, env):
        ex, W = r.ex, r.W
        size = int(size_of(env))
        ex._alloc_counter += 1
        unique = f"{name}@{ex._alloc_counter}"
        ex.mem[unique] = np.zeros(W * size, dtype=np_dtype)
        r.blocks[unique] = r.lanes * size
        env[name] = MemRef(unique)
        ex.stats.alloc_count += W
        ex.stats.alloc_bytes += W * size * item
        # One W-lane buffer stands for W per-thread blocks: same live
        # bytes as the interpreted tier's per-thread allocations.
        ex._note_alloc(name, unique, W * size * item, exp.space)

    return step


def _view_step(name: str, pe: A.PatElem, exp) -> Step:
    """A change of layout (or an alias): the annotation is the value."""
    make = _view_maker(binding_of(pe), pe.type.dtype)

    def step(r, env):
        env[name] = make(r, env)

    return step


def _fill(name: str, pe: A.PatElem, exp) -> Step:
    if type(exp) is A.Scratch:  # uninitialized: nothing is written
        return _view_step(name, pe, exp)
    make = _view_maker(binding_of(pe), pe.type.dtype)
    if type(exp) is A.Iota:
        n_of, np_dtype = _evaluator(exp.n), DTYPE_INFO[exp.dtype][0]
    else:
        value_of = _operand(exp.value)[0]

    def step(r, env):
        dest = env[name] = make(r, env)
        r.ks.note_written(dest.size() * dest.item * r.L, dest.space)
        offs = _region(dest, None, r.W)
        if offs.size:
            buf = r.ex.mem[dest.mem]
            if type(exp) is A.Iota:
                buf[offs] = np.arange(int(n_of(env)), dtype=np_dtype)
            else:
                val = value_of(env)
                buf[offs] = val[:, None] if val.__class__ is _nd else val

    return step


def _copy_step(name: str, pe: A.PatElem, exp: A.Copy) -> Step:
    make = _view_maker(binding_of(pe), pe.type.dtype)

    def step(r, env):
        dest = make(r, env)
        _copy(r, env[exp.src], dest)
        env[name] = dest

    return step


def _concat(name: str, pe: A.PatElem, exp: A.Concat) -> Step:
    make = _view_maker(binding_of(pe), pe.type.dtype)

    def step(r, env):
        dest = env[name] = make(r, env)
        rest = [(0, n, 1) for n, _ in dest.dims[1:]]
        offset = 0
        for s in exp.srcs:
            src = env[s]
            rows = src.dims[0][0]
            _copy(r, src, _slice(dest, [(offset, rows, 1)] + rest))
            offset += rows

    return step


def _update(name: str, pe: A.PatElem, exp: A.Update, in_place=False) -> Step:
    make = (
        (lambda r, env: env[exp.src]) if in_place
        else _view_maker(binding_of(pe), pe.type.dtype)
    )
    spec = exp.spec
    if isinstance(spec, A.PointSpec):
        idx_of = [_evaluator(i) for i in spec.indices]
        value_of = _operand(exp.value)[0]

        def point(r, env):
            res = env[name] = make(r, env)
            r.ks.note_written(res.item * r.L, res.space)
            off = _point(res, idx_of, env, r.sel)
            _store(r.ex.mem[res.mem], off, value_of(env))

        return point
    if isinstance(spec, A.TripletSpec):
        trips = [tuple(map(_evaluator, t)) for t in spec.triplets]

        def region(res, env):
            return _slice(res, [(a(env), n(env), s(env)) for a, n, s in trips])
    else:
        # A generalized LMAD slice of a rank-1 view (Lmad.compose_slice).
        off_of = _evaluator(spec.lmad.offset)
        dims_of = [(_evaluator(d.shape), _evaluator(d.stride)) for d in spec.lmad.dims]

        def region(res, env):
            s = res.dims[0][1]
            dims = tuple([(n(env), st(env) * s) for n, st in dims_of])
            return res.relaid(res.off + off_of(env) * s, dims)

    def sliced(r, env):
        res = make(r, env)
        value = env[exp.value] if isinstance(exp.value, str) else None
        if value.__class__ is not _View:
            raise InterpError("slice update value must be an array variable")
        _copy(r, value, region(res, env))
        env[name] = res

    return sliced


#: Statements whose value is their source's array, relaid out or copied.
_VIEWS = (A.VarRef, A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.Copy)
#: ``kind -> factory(name, pattern element, exp)`` of the array steps.
_ARRAY_STEPS = {
    **dict.fromkeys(_VIEWS[:-1], _view_step),
    A.Copy: _copy_step,
    A.Iota: _fill, A.Replicate: _fill, A.Scratch: _fill,
    A.Update: _update,
    A.Concat: _concat,
}


# ----------------------------------------------------------------------
# Steps: compound statements
# ----------------------------------------------------------------------
def _bind_results(r, env, vals, srcs, scalars, arrays) -> None:
    """Bind a loop's or an ``if``'s results: ``vals``, which its block
    bound to ``srcs``.  Scalars (existential blocks among them) first,
    then arrays, through what those bound."""
    weak = r.weak
    for k, name in scalars:
        v = env[name] = vals[k]
        if v.__class__ is _nd:
            _mark(weak, name, srcs[k] in weak)
    for k, name, make, exist in arrays:
        if make is None:
            env[name] = vals[k]
            continue
        if exist is not None and exist not in r.ex.mem and exist not in r.host:
            # An existential block binds to wherever the value is.
            env[exist] = MemRef(vals[k].mem)
        env[name] = make(r, env)


def _nested_map(stmt: A.Let, exp: A.Map, body: _Block) -> Step:
    """Execute a nested map by expanding to a composite lane space.

    With outer width ``W`` and (lane-uniform) inner width ``wi``, the
    body runs in a sub-run of ``W * wi`` composite lanes, outer-major:
    composite lane ``c`` is outer lane ``c // wi``, inner thread ``c %
    wi``.  Outer lane vectors and views are ``np.repeat``-ed.  Mirrors
    the interpreter exactly: the nested map charges its own kernel entry
    and adds no launch (a multi-dimensional grid, not a separate kernel).
    """
    param = exp.lam.params[0]
    width_of = _evaluator(exp.width)
    makers = [
        _view_maker(binding_of(pe), pe.type.dtype) if pe.is_array() else None
        for pe in stmt.pattern
    ]
    label = f"map:{'/'.join(stmt.names)}"
    # What the body reads of the enclosing lanes: operands, and the
    # variables of its binders' index functions.
    used = set(A.exp_uses(exp))
    for s in iter_stmts(exp.lam.body):
        for pe in binders(s):
            if pe.mem is not None:
                used |= pe.mem.ixfn.free_vars()

    def step(r, env):
        ex, W = r.ex, r.W
        wi = int(width_of(env))
        dests = [m(r, env) if m is not None else None for m in makers]
        ks = ex.stats.kernel("map", label)
        blocks = {m: np.repeat(base, wi) for m, base in r.blocks.items()}
        sub = _Run(ex, W * wi, ks, blocks, r.weak, r.host)
        senv = dict(env)
        for k in used:
            v = senv.get(k)
            if v.__class__ is _nd and v.ndim == 1 and v.shape[0] == W:
                senv[k] = np.repeat(v, wi)
            elif v.__class__ is _View:
                senv[k] = _expand(v, wi)
        inner_ids = np.tile(np.arange(wi, dtype=np.int64), W)
        senv[param] = inner_ids
        r.weak.add(param)
        ex._kernel_stack.append(ks)
        try:
            if wi > 0:
                vals = body.run(sub, senv)
                for dest, val in zip(dests, vals):
                    if dest is not None:
                        _write_result(sub, _fix0(_expand(dest, wi), inner_ids), val)
        finally:
            ex._kernel_stack.pop()
        for pe, dest in zip(stmt.pattern, dests):
            env[pe.name] = dest

    return step


def _loop(exp: A.Loop, params, body: _Block, results) -> Step:
    """A sequential loop, iterated on the host in the launch's one
    environment (``params``: see :meth:`_Stager._loop`)."""
    count_of = _evaluator(exp.count)
    index = exp.index
    inits = [init for _, init in exp.carried]

    def step(r, env):
        count = int(count_of(env))
        weak, mem = r.weak, r.ex.mem
        state, srcs = [env[i] for i in inits], inits
        for it in range(count):
            env[index] = it
            for (prm, make, pmem, kept), val, src in zip(params, state, srcs):
                if make is None:
                    env[prm] = val
                    if val.__class__ is _nd:
                        _mark(weak, prm, src in weak)
                    continue
                if pmem not in mem:
                    env[pmem] = MemRef(val.mem)
                env[prm] = val if it and kept else make(r, env)
            state, srcs = body.run(r, env), body.result
        results(r, env, state, srcs)

    return step


def _if(stmt: A.Let, exp: A.If, then: _Block, other: _Block, results) -> Step:
    cond_of = _operand(exp.cond)[0]
    branches = [
        (then, sorted(A.block_free_vars(exp.then_block))),
        (other, sorted(A.block_free_vars(exp.else_block))),
    ]
    names = stmt.names

    def step(r, env):
        cond = cond_of(env)
        if cond.__class__ is not _nd:
            blk = then if cond else other
            results(r, env, blk.run(r, env), blk.result)
            return
        # (values, result names) of each branch some lane takes.
        sides = [
            (_run_masked(r, blk, env, m, free), blk.result)
            for m, (blk, free) in zip((cond, ~cond), branches)
            if m.any()
        ]
        weak = r.weak
        for k, name in enumerate(names):
            vals = [side[k] for side, _ in sides]
            env[name] = vals[0] if len(vals) == 1 else _merge_masked(cond, *vals)
            _mark(weak, name, all(
                srcs[k] in weak if side[k].__class__ is _nd
                else scalar.kind_of(side[k])[1]
                for side, srcs in sides
            ))

    return step


def _run_masked(r: _Run, blk: _Block, env, mask, free) -> List[object]:
    """Run ``blk`` on the lanes of ``mask``, in an environment of what it
    reads from ``env`` (lane vectors narrowed to those lanes)."""
    L = r.L
    menv = {}
    for k in free:
        if k in env:
            v = env[k]
            if v.__class__ is _nd and v.ndim == 1 and v.shape[0] == L:
                v = v[mask]
            menv[k] = v
    saved = r.lanes, r.sel, r.L
    r.lanes = r.sel = r.lanes[mask]
    r.L = len(r.lanes)
    try:
        return blk.run(r, menv)
    finally:
        r.lanes, r.sel, r.L = saved


def _merge_masked(mask, tv, ev):
    out = np.empty(mask.shape[0], dtype=np.result_type(tv, ev))
    out[mask] = tv
    out[~mask] = ev
    return out


_NP_TYPE = {d: np.dtype(np_name) for d, (np_name, _) in DTYPE_INFO.items()}
_IR_DTYPE = {t.char: d for d, t in _NP_TYPE.items()}
