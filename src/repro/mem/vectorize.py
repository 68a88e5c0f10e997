"""Vectorized tier: batched NumPy execution of outermost ``map`` launches.

The interpreted executor (:mod:`repro.mem.exec`) runs a ``map`` by
evaluating the lambda body once per thread index.  This tier runs the
*same* body once with the thread dimension batched: the thread variable
becomes an ``np.arange(width)`` lane vector, scalar operations become
broadcast ufuncs, and every array access evaluates its LMAD index
function for all lanes at once.  It is SIMT-lockstep: lane-varying
conditionals run both branches under complementary masks, sequential
loops with uniform trip counts iterate on the host.  Race-free programs
(the :mod:`repro.analysis` checkers gate every benchmark) observe no
difference from the interpreter's sequential thread order.

It is one of the two printers of a :class:`~repro.mem.kernel.Plan`:
where :func:`~repro.mem.kernel.vector_rule` accepts the plan, each node
is *staged* into a closure with everything a request cannot change
fixed -- the operator row, every index-function component as a compiled
evaluator, a block's flop charge.  A launch only runs the closures, in
one environment (names are bound once, so loop iterations and ``if``
branches share it).  No width, size or host-scalar value is baked in,
so one staged body serves every shape class; what a request decides --
whether an operand is a lane vector, the kind of a host scalar, which
block a view lands in -- is read per run.  Results and every simulated
quantity are bit-identical to the interpreter's: operators are the
rows of :mod:`repro.ir.scalar`, and an operation over ``L`` active lanes
counts ``L`` times.  There is no dynamic fallback: the executor offers
each launch of an outermost map to :func:`try_run_map`, which runs the
whole map, nested maps included, or declines it before touching
anything -- a map nested in an interpreted launch is interpreted too.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, List

import numpy as np

from repro.decisions import Decision
from repro.ir import ast as A
from repro.ir import scalar
from repro.ir.interp import InterpError
from repro.ir.types import DTYPE_INFO
from repro.mem.exec import MemExecutor, MemRef, RuntimeArray
from repro.mem.kernel import (
    Block, Node, Plan, elision_guard, label, vector_rule,
)
from repro.mem.memir import binders, binding_of, iter_stmts
from repro.symbolic import SymExpr

_nd = np.ndarray


def try_run_map(ex: MemExecutor, plan: Plan, env, width: int, dests) -> bool:
    """Run one launch of the outermost map ``plan`` and return True, or
    touch nothing and return False: :func:`~repro.mem.kernel.vector_rule`
    declined it (the record is ``plan.declined``).  The body is staged at
    the first launch and kept on the plan, which a Program shares, so a
    body is staged once per compiled function, not once per request."""
    if plan.body is None:
        if plan.declined is not None:
            return False
        why = vector_rule(plan)
        if why is not None:
            plan.declined = Decision(
                "vectorize", why.rule, plan.stmt.names[0], why.detail
            )
            return False
        plan.body = _launcher(plan.stmt, _stage(plan.root))
    plan.body(ex, env, width, dests)
    return True


def _launcher(stmt: A.Let, body: "_Block") -> Callable:
    """One launch of a staged outermost map."""
    param, free = stmt.exp.lam.params[0], A.exp_uses(stmt.exp)

    def run(ex: MemExecutor, env, width: int, dests) -> None:
        r = _Run(ex, width, ex._current_kernel(), {}, set(), env)
        venv = dict(env)
        for name in free:
            v = venv.get(name)
            if v.__class__ is RuntimeArray:
                venv[name] = _view_of(v, ex)
        venv[param] = r.lanes
        r.weak.add(param)
        vals = body.run(r, venv)
        for dest, val in zip(dests, vals):
            if dest is not None:
                _write_result(r, _fix0(_view_of(dest, ex), r.lanes), val)

    return run


def _stage(block: Block) -> "_Block":
    return _Block(
        [_STEPS[n.kind](n) for n in block.nodes], block.result, block.flops
    )


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
    pairs = src.mem == dst.mem and elision_guard(src.lmads(), dst.lmads())
    if not pairs:
        return None
    same = True
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


def _scalar(node: Node) -> Step:
    """A literal or an index expression (its lane vectors are weak)."""
    name, exp = node.stmt.names[0], node.exp
    value_of = (
        _constant(_NP_TYPE[exp.dtype].type(exp.value)) if type(exp) is A.Lit
        else _evaluator(exp.expr)
    )

    def step(r, env):
        v = env[name] = value_of(env)
        if v.__class__ is _nd:
            r.weak.add(name)

    return step


def _alias(node: Node) -> Step:
    name, src = node.stmt.names[0], node.exp.name

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


def _op(node: Node) -> Step:
    """A row of the operator table, on uniform values or lane vectors."""
    name, exp = node.stmt.names[0], node.exp
    op, row = exp.op, scalar.OPS[exp.op]
    on_scalars, on_lanes = row.scalar, row.lanes
    x_of, xn = _operand(exp.x)
    forms: dict = {}
    if type(exp) is A.UnOp:

        def unop(r, env):
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

        return unop
    y_of, yn = _operand(exp.y)
    literal = [not isinstance(o, (str, SymExpr)) for o in (exp.x, exp.y)]

    def binop(r, env):
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

    return binop


def _index(node: Node) -> Step:
    name, exp = node.stmt.names[0], node.exp
    src, idx_of = exp.src, [_evaluator(i) for i in exp.indices]

    def step(r, env):
        v = env[src]
        r.ks.note_read(v.item * r.L, v.space)
        env[name] = r.ex.mem[v.mem][_point(v, idx_of, env, r.sel)]

    return step


# ----------------------------------------------------------------------
# Steps: arrays
# ----------------------------------------------------------------------
def _alloc(node: Node) -> Step:
    name, exp = node.stmt.names[0], node.exp
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


def _dest(node: Node) -> Callable[[_Run, dict], _View]:
    pe = node.stmt.pattern[0]
    return _view_maker(binding_of(pe), pe.type.dtype)


def _view_step(node: Node) -> Step:
    """A change of layout, an alias or uninitialized scratch: the
    annotation is the value."""
    name, make = node.stmt.names[0], _dest(node)

    def step(r, env):
        env[name] = make(r, env)

    return step


def _fill(node: Node) -> Step:
    name, exp, make = node.stmt.names[0], node.exp, _dest(node)
    iota = type(exp) is A.Iota
    if iota:
        n_of, np_dtype = _evaluator(exp.n), DTYPE_INFO[exp.dtype][0]
    else:
        value_of = _operand(exp.value)[0]

    def step(r, env):
        dest = env[name] = make(r, env)
        r.ks.note_written(dest.size() * dest.item * r.L, dest.space)
        offs = _region(dest, None, r.W)
        if offs.size:
            buf = r.ex.mem[dest.mem]
            if iota:
                buf[offs] = np.arange(int(n_of(env)), dtype=np_dtype)
            else:
                val = value_of(env)
                buf[offs] = val[:, None] if val.__class__ is _nd else val

    return step


def _copy_step(node: Node) -> Step:
    name, src, make = node.stmt.names[0], node.exp.src, _dest(node)

    def step(r, env):
        dest = make(r, env)
        _copy(r, env[src], dest)
        env[name] = dest

    return step


def _concat(node: Node) -> Step:
    name, srcs, make = node.stmt.names[0], node.exp.srcs, _dest(node)

    def step(r, env):
        dest = env[name] = make(r, env)
        rest = [(0, n, 1) for n, _ in dest.dims[1:]]
        offset = 0
        for s in srcs:
            src = env[s]
            rows = src.dims[0][0]
            _copy(r, src, _slice(dest, [(offset, rows, 1)] + rest))
            offset += rows

    return step


def _update(node: Node) -> Step:
    name, exp = node.stmt.names[0], node.exp
    # An update in place is made from its source's annotation: the
    # source's view is the result's.
    make = (lambda r, env: env[exp.src]) if node.in_place else _dest(node)
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


# ----------------------------------------------------------------------
# Steps: compound statements
# ----------------------------------------------------------------------
def _results(results) -> Callable:
    """Binds a loop's or an ``if``'s results (see :func:`_bind_results`)."""
    scalars = [(k, pe.name) for k, pe, _ in results if not pe.is_array()]
    arrays = [
        (k, pe.name, pe.mem and _view_maker(pe.mem, pe.type.dtype), exist)
        for k, pe, exist in results if pe.is_array()
    ]
    return functools.partial(_bind_results, scalars=scalars, arrays=arrays)


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


def _nested_map(node: Node) -> Step:
    """Execute a nested map by expanding to a composite lane space.

    With outer width ``W`` and (lane-uniform) inner width ``wi``, the
    body runs in a sub-run of ``W * wi`` composite lanes, outer-major:
    composite lane ``c`` is outer lane ``c // wi``, inner thread ``c %
    wi``.  Outer lane vectors and views are ``np.repeat``-ed.  Mirrors
    the interpreter exactly: the nested map charges its own kernel entry
    and adds no launch (a multi-dimensional grid, not a separate kernel).
    """
    stmt, exp = node.stmt, node.exp
    site = label(stmt)
    body = _stage(node.blocks[0])
    param = exp.lam.params[0]
    width_of = _evaluator(exp.width)
    makers = [
        _view_maker(binding_of(pe), pe.type.dtype) if pe.is_array() else None
        for pe in stmt.pattern
    ]
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
        ks = ex.stats.kernel("map", site)
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


def _loop(node: Node) -> Step:
    """A sequential loop, iterated on the host in the launch's one
    environment.  A carried array's view is its parameter's annotation,
    re-derived each iteration -- unless the plan says it is ``kept``."""
    exp, body, results = node.exp, _stage(node.blocks[0]), _results(node.results)
    params = [
        (prm.name, b and _view_maker(b, prm.type.dtype), b and b.mem, kept)
        for prm, b, kept in node.params
    ]
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


def _if(node: Node) -> Step:
    exp, names = node.exp, node.stmt.names
    then, other = map(_stage, node.blocks)
    results = _results(node.results)
    cond_of = _operand(exp.cond)[0]
    branches = [
        (then, sorted(A.block_free_vars(exp.then_block))),
        (other, sorted(A.block_free_vars(exp.else_block))),
    ]

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


#: Node kind -> the factory of its step.
_STEPS = {
    "lit": _scalar, "sym": _scalar, "op": _op, "alias": _alias, "read": _index,
    "alloc": _alloc, "view": _view_step, "fill": _fill, "copy": _copy_step,
    "concat": _concat, "update": _update, "map": _nested_map, "loop": _loop,
    "if": _if,
}
_NP_TYPE = {d: np.dtype(np_name) for d, (np_name, _) in DTYPE_INFO.items()}
_IR_DTYPE = {t.char: d for d, t in _NP_TYPE.items()}
