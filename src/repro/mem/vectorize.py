"""Vectorized kernel engine: batched NumPy execution of ``map`` bodies.

The interpreted executor (:mod:`repro.mem.exec`) runs a ``map`` by
evaluating the lambda body once per thread index -- one Python dict copy
and one tree-walk per element.  This module executes the *same* body once
with the thread dimension batched: the thread variable becomes an
``np.arange(width)`` lane vector, scalar operations become broadcast
ufuncs, and every array access evaluates its LMAD index function for all
lanes at once (strided ``np.arange`` outer sums -- never a per-element
``apply_concrete``).

The engine is SIMT-lockstep: statements execute in program order with all
lanes advancing together, lane-varying conditionals run both branches
under complementary masks, and sequential loops with uniform trip counts
iterate on the host with a vectorized body.  Race-free programs (the
:mod:`repro.analysis` checkers gate every benchmark) observe no difference
from the interpreter's sequential thread order.

Two invariants tie the engine to the interpreter:

* **bit-identical results** -- scalar operators are the rows of
  :mod:`repro.ir.scalar`, applied to lane vectors converted as its
  promotion rule says (DESIGN.md section 7, "Scalar semantics");
* **bit-identical accounting** -- every simulated quantity
  (``bytes_read``/``bytes_written``/``flops`` per kernel, elisions,
  allocations) is counted exactly as the interpreted path would: an
  operation over ``L`` active lanes counts ``L`` times.

Dispatch is decided *statically* per map statement by a taint analysis
(:meth:`VecEngine._plan_map`): the thread variable seeds the taint set,
and any construct whose batched execution could diverge from per-thread
interpretation (nested ``map``, lane-varying trip counts or shapes,
reductions, array-valued lane-varying branches) rejects the whole map,
which then falls back to the interpreted path.  There is deliberately no
dynamic try/except fallback: a plan either runs vectorized to completion
or was never attempted, so statistics cannot be double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.decisions import Decision, Declined
from repro.lmad import IndexFn
from repro.symbolic import SymExpr

from repro.ir import ast as A
from repro.ir.ast import operand_vars
from repro.ir import scalar
from repro.ir.interp import InterpError, eval_sym
from repro.ir.types import ArrayType, DTYPE_INFO
from repro.mem.exec import MemExecutor, MemRef, RuntimeArray
from repro.mem.memir import MemBinding, binding_of

#: Synthetic variable standing for the thread index in destination index
#: functions (``dest.ixfn.fix_dim(0, LANE_VAR)``).
LANE_VAR = "__lane__"


@dataclass
class VArr:
    """An array value inside a vectorized body.

    Unlike :class:`RuntimeArray` the index function stays *symbolic*; the
    values of its free variables are captured in ``vals`` at creation time
    (uniform ints, or full-width ``(W,)`` int64 lane vectors indexed by
    global lane id).  Capturing eagerly pins loop-scope variables to their
    creation-time values, exactly like the interpreter's per-thread
    ``_instantiate``.
    """

    mem: str
    ixfn: IndexFn
    dtype: str
    vals: Dict[str, object]

    @property
    def itemsize(self) -> int:
        return DTYPE_INFO[self.dtype][1]


class VecEngine:
    """Per-executor vectorization planner and runner."""

    def __init__(self, ex: MemExecutor, plans: Optional[Dict[int, object]] = None):
        self.ex = ex
        #: id(map stmt) -> ``True`` (the body is expressible) or the
        #: :class:`~repro.decisions.Decision` that says why not.
        #: (Static, so cached; a Program passes a shared dict so the
        #: taint analysis runs once per compiled function, not once per
        #: serving call.)
        self._plans: Dict[int, object] = plans if plans is not None else {}

    # ------------------------------------------------------------------
    # Entry point (called from MemExecutor._exec_map, real mode only)
    # ------------------------------------------------------------------
    def try_run_map(
        self,
        stmt: A.Let,
        exp: A.Map,
        env: Dict[str, object],
        width: int,
        dests: List[Optional[RuntimeArray]],
    ) -> bool:
        plan = self._plans.get(id(stmt))
        if plan is None:
            plan = self._plans[id(stmt)] = self._plan_map(stmt, exp)
        if plan is not True:
            return False
        _VecRun(self.ex, width).run_map(stmt, exp, env, dests)
        return True

    # ------------------------------------------------------------------
    # Planning: taint analysis seeded with the thread variable
    # ------------------------------------------------------------------
    def _plan_map(self, stmt: A.Let, exp: A.Map):
        try:
            tainted = {exp.lam.params[0]}
            self._plan_block(exp.lam.body, tainted, set(), set(), False)
        except Declined as why:
            return Decision("vectorize", why.rule, stmt.names[0], why.detail)
        return True

    def _plan_block(self, block, tainted, lane_arrays, local_mems, masked):
        for stmt in block.stmts:
            try:
                self._plan_stmt(stmt, tainted, lane_arrays, local_mems, masked)
            except Declined as why:
                # Name the innermost statement the analysis stopped at.
                raise Declined(
                    why.rule, why.detail or f"at {stmt.names[0]}"
                ) from None

    def _check_bindings(self, stmt: A.Let, tainted) -> None:
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
                for l in b.ixfn.lmads:
                    for d in l.dims:
                        if d.shape.free_vars() & tainted:
                            raise Declined("lane-varying-shape")

    def _lane_binding(self, pe, tainted, local_mems) -> bool:
        b = binding_of(pe)
        return bool(b.ixfn.free_vars() & tainted) or b.mem in local_mems

    def _plan_stmt(self, stmt, tainted, lane_arrays, local_mems, masked):
        exp = stmt.exp
        name = stmt.names[0]

        if isinstance(exp, A.Alloc):
            if masked:
                raise Declined("masked-array-stmt")
            if exp.size.free_vars() & tainted:
                raise Declined("lane-varying-shape")
            local_mems.add(name)
            return

        if isinstance(exp, A.Lit):
            return

        if isinstance(exp, A.ScalarE):
            if exp.expr.free_vars() & tainted:
                tainted.add(name)
            return

        if isinstance(exp, (A.BinOp, A.UnOp)):
            if scalar.OPS[exp.op].lanes is None:
                raise Declined(
                    "not-bit-exact", f"{exp.op} has no bit-exact lane form"
                )
            if A.exp_uses(exp) & tainted:
                tainted.add(name)
            return

        if isinstance(exp, A.VarRef):
            pe = stmt.pattern[0]
            if pe.is_array():
                if masked:
                    raise Declined("masked-array-stmt")
                self._check_bindings(stmt, tainted)
                if (
                    self._lane_binding(pe, tainted, local_mems)
                    or exp.name in lane_arrays
                ):
                    lane_arrays.add(pe.name)
            elif exp.name in tainted:
                tainted.add(pe.name)
            return

        if isinstance(exp, (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse)):
            if masked:
                raise Declined("masked-array-stmt")
            self._check_bindings(stmt, tainted)
            if (
                self._lane_binding(stmt.pattern[0], tainted, local_mems)
                or exp.src in lane_arrays
            ):
                lane_arrays.add(name)
            return

        if isinstance(exp, (A.Iota, A.Replicate, A.Scratch)):
            if masked:
                raise Declined("masked-array-stmt")
            self._check_bindings(stmt, tainted)
            if isinstance(exp, A.Iota) and (exp.n.free_vars() & tainted):
                raise Declined("lane-varying-shape")
            if isinstance(exp, A.Replicate):
                for s in exp.shape:
                    if s.free_vars() & tainted:
                        raise Declined("lane-varying-shape")
            # Scratch contents get written per-lane later; replicate of a
            # tainted value differs per lane; all are conservatively
            # lane-varying unless provably uniform, which we never need.
            lane_arrays.add(name)
            return

        if isinstance(exp, A.Copy):
            if masked:
                raise Declined("masked-array-stmt")
            self._check_bindings(stmt, tainted)
            if (
                self._lane_binding(stmt.pattern[0], tainted, local_mems)
                or exp.src in lane_arrays
            ):
                lane_arrays.add(name)
            return

        if isinstance(exp, A.Index):
            idx_vars = frozenset()
            for i in exp.indices:
                idx_vars |= i.free_vars()
            if (idx_vars & tainted) or exp.src in lane_arrays:
                tainted.add(name)
            return

        if isinstance(exp, A.Update):
            if masked:
                raise Declined("masked-array-stmt")
            self._check_bindings(stmt, tainted)
            spec = exp.spec
            if isinstance(spec, A.TripletSpec):
                for _, count, _ in spec.triplets:
                    if count.free_vars() & tainted:
                        raise Declined("lane-varying-shape")
            elif isinstance(spec, A.LmadSpec):
                for d in spec.lmad.dims:
                    if d.shape.free_vars() & tainted:
                        raise Declined("lane-varying-shape")
            lane_arrays.add(name)
            return

        if isinstance(exp, (A.Reduce, A.ArgMin)):
            raise Declined("reduction-in-body")

        if isinstance(exp, A.Concat):
            if masked:
                raise Declined("masked-array-stmt")
            self._check_bindings(stmt, tainted)
            lane_arrays.add(name)
            return

        if isinstance(exp, A.Map):
            # A nested map extends the lane space: width_outer x width_inner
            # composite lanes, provided the inner width is lane-uniform.
            if masked:
                raise Declined("masked-array-stmt")
            if exp.width.free_vars() & tainted:
                raise Declined("lane-varying-map-width")
            self._check_bindings(stmt, tainted)
            tainted.add(exp.lam.params[0])
            self._plan_block(exp.lam.body, tainted, lane_arrays, local_mems, False)
            for pe in stmt.pattern:
                if pe.is_array():
                    lane_arrays.add(pe.name)
                else:
                    tainted.add(pe.name)
            return

        if isinstance(exp, A.Loop):
            if masked:
                raise Declined("masked-loop")
            if exp.count.free_vars() & tainted:
                raise Declined("lane-varying-trip-count")
            for prm, _init in exp.carried:
                if isinstance(prm.type, ArrayType):
                    b = binding_of(prm)
                    if b is not None:
                        for l in b.ixfn.lmads:
                            for d in l.dims:
                                if d.shape.free_vars() & tainted:
                                    raise Declined("lane-varying-shape")
                    lane_arrays.add(prm.name)
                else:
                    # Even a uniform initializer can become lane-varying
                    # through the body; taint conservatively.
                    tainted.add(prm.name)
            self._plan_block(exp.body, tainted, lane_arrays, local_mems, False)
            self._check_bindings(stmt, tainted)
            for pe in stmt.pattern:
                if pe.is_array():
                    lane_arrays.add(pe.name)
                else:
                    tainted.add(pe.name)
            return

        if isinstance(exp, A.If):
            if masked and any(pe.is_array() for pe in stmt.pattern):
                raise Declined("masked-array-stmt")
            if operand_vars(exp.cond) & tainted:
                # Lane-varying condition: masked execution of both
                # branches.  Array-producing statements are forbidden
                # inside (they would need per-lane shapes), and all
                # results become lane vectors.
                if any(pe.is_array() for pe in stmt.pattern):
                    raise Declined("lane-varying-array-branch")
                self._plan_block(exp.then_block, tainted, lane_arrays, local_mems, True)
                self._plan_block(exp.else_block, tainted, lane_arrays, local_mems, True)
                for pe in stmt.pattern:
                    tainted.add(pe.name)
            else:
                self._plan_block(
                    exp.then_block, tainted, lane_arrays, local_mems, masked
                )
                self._plan_block(
                    exp.else_block, tainted, lane_arrays, local_mems, masked
                )
                self._check_bindings(stmt, tainted)
                for pe, tr, er in zip(
                    stmt.pattern, exp.then_block.result, exp.else_block.result
                ):
                    if pe.is_array():
                        lane_arrays.add(pe.name)
                    elif tr in tainted or er in tainted:
                        tainted.add(pe.name)
            return

        raise Declined("unsupported-expression")


class _VecRun:
    """One vectorized execution of one map statement.

    Run-scoped so that re-entrant dispatches (an interpreted outer map
    whose inner maps vectorize per-thread) never share lane state.
    """

    def __init__(self, ex: MemExecutor, width: int, weak: Optional[set] = None):
        self.ex = ex
        self.width = width
        #: Names now bound to a *weak* lane vector: a thread index, or
        #: what Python-scalar arithmetic made of one.  A uniform value
        #: says which it is by its type; an ndarray cannot.  (Binding
        #: names are unique, so nested runs share the set.)
        self.weak: set = set() if weak is None else weak
        #: Lane-expanded blocks for in-body allocs: one buffer of
        #: ``width * size`` elements; block name -> (per-lane size,
        #: divisor).  Lane ``c``'s block starts at ``(c // divisor) *
        #: size`` -- divisor 1 for blocks allocated at this lane depth;
        #: composite sub-runs of a nested map see outer blocks with the
        #: divisor multiplied by the inner width, since ``wi`` composite
        #: lanes share each outer lane's block.
        self.lane_blocks: Dict[str, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def run_map(self, stmt, exp: A.Map, env, dests) -> None:
        ex = self.ex
        W = self.width
        lanes = np.arange(W, dtype=np.int64)
        venv: Dict[str, object] = dict(env)
        venv[exp.lam.params[0]] = lanes
        self.weak.add(exp.lam.params[0])
        vals = self.exec_block(exp.lam.body, venv, lanes)
        lane_expr = SymExpr.var(LANE_VAR)
        for dest, val in zip(dests, vals):
            if dest is None:
                continue
            region = VArr(
                dest.mem,
                dest.ixfn.fix_dim(0, lane_expr),
                dest.dtype,
                {LANE_VAR: lanes},
            )
            if isinstance(val, (VArr, RuntimeArray)):
                self.copy_region(self._as_varr(val), region, lanes)
            else:
                ex._count_write(dest.itemsize * W, ex._space_of(dest.mem))
                offs = self.point_offsets(region, [0] * region.ixfn.rank, lanes)
                buf = ex.mem[dest.mem]
                if isinstance(offs, np.ndarray):
                    buf[offs] = val
                else:
                    # All lanes write one cell: the interpreter's last
                    # thread wins.
                    buf[offs] = val[-1] if isinstance(val, np.ndarray) else val

    # ------------------------------------------------------------------
    # Block / statement execution
    # ------------------------------------------------------------------
    def exec_block(self, block: A.Block, venv, lanes) -> List[object]:
        for stmt in block.stmts:
            self.exec_stmt(stmt, venv, lanes)
        out = []
        for r in block.result:
            if r in venv:
                out.append(venv[r])
            elif r in self.ex.mem:
                out.append(MemRef(r))
            else:
                raise InterpError(f"unbound result {r!r}")
        return out

    def exec_stmt(self, stmt: A.Let, venv, lanes) -> None:
        ex = self.ex
        exp = stmt.exp
        L = len(lanes)

        if isinstance(exp, A.Alloc):
            size = int(self._eval_scalar(exp.size, venv, lanes))
            W = self.width
            ex._alloc_counter += 1
            unique = f"{stmt.names[0]}@{ex._alloc_counter}"
            ex.mem[unique] = np.zeros(W * size, dtype=DTYPE_INFO[exp.dtype][0])
            self.lane_blocks[unique] = (size, 1)
            venv[stmt.names[0]] = MemRef(unique)
            ex.stats.alloc_count += W
            ex.stats.alloc_bytes += W * size * DTYPE_INFO[exp.dtype][1]
            # One W-lane buffer stands for W per-thread blocks: same live
            # bytes as the interpreted tier's per-thread allocations.
            ex._note_alloc(
                stmt.names[0],
                unique,
                W * size * DTYPE_INFO[exp.dtype][1],
                exp.space,
            )
            return

        if isinstance(exp, (A.Lit, A.ScalarE, A.BinOp, A.UnOp)):
            name = stmt.pattern[0].name
            venv[name], weak = self._scalar_exp(exp, venv, lanes)
            self._mark(name, weak)
            return

        if isinstance(exp, A.VarRef):
            pe = stmt.pattern[0]
            if pe.is_array():
                venv[pe.name] = self._binding_value(pe, venv, lanes)
            else:
                venv[pe.name] = venv[exp.name]
                self._mark(pe.name, exp.name in self.weak)
            return

        if isinstance(exp, (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse)):
            venv[stmt.names[0]] = self._binding_value(stmt.pattern[0], venv, lanes)
            return

        if isinstance(exp, (A.Iota, A.Replicate, A.Scratch)):
            dest = self._binding_value(stmt.pattern[0], venv, lanes)
            if not isinstance(exp, A.Scratch):
                ex._count_write(
                    self._varr_nbytes(dest, lanes) * L,
                    ex._space_of(dest.mem),
                )
                offs = self.region_offsets(dest, lanes)
                buf = ex.mem[dest.mem]
                if offs.size:
                    if isinstance(exp, A.Iota):
                        n = int(self._eval_scalar(exp.n, venv, lanes))
                        buf[offs] = np.arange(n, dtype=DTYPE_INFO[exp.dtype][0])
                    else:
                        val = self._operand(exp.value, venv, lanes)
                        if isinstance(val, np.ndarray):
                            buf[offs] = val[:, None]
                        else:
                            buf[offs] = val
            venv[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Copy):
            src = self._as_varr(venv[exp.src])
            dest = self._binding_value(stmt.pattern[0], venv, lanes)
            self.copy_region(src, dest, lanes)
            venv[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Index):
            src = self._as_varr(venv[exp.src])
            idx = [self._eval_scalar(i, venv, lanes) for i in exp.indices]
            ex._count_read(src.itemsize * L, ex._space_of(src.mem))
            off = self.point_offsets(src, idx, lanes)
            buf = ex.mem[src.mem]
            venv[stmt.names[0]] = buf[off]
            return

        if isinstance(exp, A.Concat):
            dest = self._binding_value(stmt.pattern[0], venv, lanes)
            offset = 0
            dshape = [
                int(self._eval_vals(d.shape, dest.vals, lanes))
                for d in dest.ixfn.lmads[-1].dims
            ]
            for s in exp.srcs:
                src = self._as_varr(venv[s])
                rows = int(
                    self._eval_vals(src.ixfn.lmads[-1].dims[0].shape, src.vals, lanes)
                )
                region_ixfn = dest.ixfn.slice_triplets(
                    [(offset, rows, 1)] + [(0, d, 1) for d in dshape[1:]]
                )
                region = VArr(dest.mem, region_ixfn, dest.dtype, dest.vals)
                self.copy_region(src, region, lanes)
                offset += rows
            venv[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Update):
            self._exec_update(stmt, exp, venv, lanes)
            return

        if isinstance(exp, A.Map):
            self._exec_nested_map(stmt, exp, venv, lanes)
            return

        if isinstance(exp, A.Loop):
            self._exec_loop(stmt, exp, venv, lanes)
            return

        if isinstance(exp, A.If):
            self._exec_if(stmt, exp, venv, lanes)
            return

        raise InterpError(
            f"vectorized engine cannot execute {type(exp).__name__} "
            "(planner should have rejected this map)"
        )

    # ------------------------------------------------------------------
    def _exec_update(self, stmt, exp: A.Update, venv, lanes) -> None:
        ex = self.ex
        L = len(lanes)
        result = self._binding_value(stmt.pattern[0], venv, lanes)
        spec = exp.spec
        if isinstance(spec, A.PointSpec):
            ex._count_write(result.itemsize * L, ex._space_of(result.mem))
            idx = [self._eval_scalar(i, venv, lanes) for i in spec.indices]
            off = self.point_offsets(result, idx, lanes)
            val = self._operand(exp.value, venv, lanes)
            buf = ex.mem[result.mem]
            if isinstance(off, np.ndarray):
                buf[off] = val
            else:
                buf[off] = val[-1] if isinstance(val, np.ndarray) else val
            venv[stmt.names[0]] = result
            return
        if isinstance(spec, A.TripletSpec):
            region_ixfn = result.ixfn.slice_triplets(spec.triplets)
        else:
            assert isinstance(spec, A.LmadSpec)
            region_ixfn = result.ixfn.lmad_slice(spec.lmad)
        region_vals = dict(result.vals)
        for v in region_ixfn.free_vars():
            if v not in region_vals:
                region_vals[v] = self._capture(venv[v])
        region = VArr(result.mem, region_ixfn, result.dtype, region_vals)
        value = venv[exp.value] if isinstance(exp.value, str) else None
        if not isinstance(value, (VArr, RuntimeArray)):
            raise InterpError("slice update value must be an array variable")
        self.copy_region(self._as_varr(value), region, lanes)
        venv[stmt.names[0]] = result

    # ------------------------------------------------------------------
    def _exec_nested_map(self, stmt, exp: A.Map, venv, lanes) -> None:
        """Execute a nested map by expanding to a composite lane space.

        With outer width ``W`` and (lane-uniform) inner width ``wi``, the
        body runs in a fresh ``_VecRun`` of ``W * wi`` composite lanes,
        outer-major: composite lane ``c`` is outer lane ``c // wi``,
        inner thread ``c % wi``.  Outer lane vectors are ``np.repeat``-ed;
        outer lane-block bases are baked into a synthetic offset variable
        so the sub-run needs no knowledge of the outer lane geometry.
        Mirrors the interpreter exactly: the nested map charges its own
        kernel entry and adds no launch (a multi-dimensional grid, not a
        separate kernel).
        """
        ex = self.ex
        W = len(lanes)
        wi = int(self._eval_scalar(exp.width, venv, lanes))
        dests = [
            self._binding_value(pe, venv, lanes) if pe.is_array() else None
            for pe in stmt.pattern
        ]
        ks = ex.stats.kernel("map", f"map:{'/'.join(stmt.names)}")
        big = W * wi
        sub = _VecRun(ex, big, self.weak)
        sub.lane_blocks = {
            m: (sz, div * max(wi, 1)) for m, (sz, div) in self.lane_blocks.items()
        }

        def expand(val):
            if isinstance(val, np.ndarray) and val.ndim == 1 and val.shape[0] == W:
                return np.repeat(val, wi)
            if isinstance(val, VArr):
                vals = {
                    k: np.repeat(v, wi) if isinstance(v, np.ndarray) else v
                    for k, v in val.vals.items()
                }
                return VArr(val.mem, val.ixfn, val.dtype, vals)
            return val

        used = A.exp_uses(exp)
        senv = {k: (expand(v) if k in used else v) for k, v in venv.items()}
        clanes = np.arange(big, dtype=np.int64)
        inner_ids = np.tile(np.arange(wi, dtype=np.int64), W)
        senv[exp.lam.params[0]] = inner_ids
        self.weak.add(exp.lam.params[0])
        ex._kernel_stack.append(ks)
        try:
            if wi > 0:
                vals = sub.exec_block(exp.lam.body, senv, clanes)
                lane_expr = SymExpr.var(LANE_VAR)
                for dest, val in zip(dests, vals):
                    if dest is None:
                        continue
                    dexp = expand(dest)
                    rvals = dict(dexp.vals)
                    rvals[LANE_VAR] = inner_ids
                    region = VArr(
                        dexp.mem,
                        dexp.ixfn.fix_dim(0, lane_expr),
                        dexp.dtype,
                        rvals,
                    )
                    if isinstance(val, (VArr, RuntimeArray)):
                        sub.copy_region(sub._as_varr(val), region, clanes)
                    else:
                        ex._count_write(
                            dexp.itemsize * big, ex._space_of(dexp.mem)
                        )
                        offs = sub.point_offsets(
                            region, [0] * region.ixfn.rank, clanes
                        )
                        buf = ex.mem[dexp.mem]
                        if isinstance(offs, np.ndarray):
                            buf[offs] = val
                        else:
                            buf[offs] = (
                                val[-1] if isinstance(val, np.ndarray) else val
                            )
        finally:
            ex._kernel_stack.pop()
        for pe, dest in zip(stmt.pattern, dests):
            venv[pe.name] = dest

    # ------------------------------------------------------------------
    def _exec_loop(self, stmt, exp: A.Loop, venv, lanes) -> None:
        ex = self.ex
        count = int(self._eval_scalar(exp.count, venv, lanes))
        state = [venv[init] for _, init in exp.carried]
        names = [init for _, init in exp.carried]
        for it in range(count):
            child = dict(venv)
            child[exp.index] = it
            for (prm, _), val, src in zip(exp.carried, state, names):
                if isinstance(prm.type, ArrayType):
                    v = self._as_varr(val)
                    b = binding_of(prm)
                    if b is not None and b.mem not in ex.mem:
                        child[b.mem] = MemRef(v.mem)
                    if b is not None:
                        child[prm.name] = self._binding_to_varr(
                            b, prm.type.dtype, child, lanes
                        )
                    else:
                        child[prm.name] = v
                else:
                    child[prm.name] = val
                    self._mark(prm.name, src in self.weak)
            state[:] = self.exec_block(exp.body, child, lanes)
            names = exp.body.result
        self._bind_compound_results(stmt, state, names, venv, lanes)

    # ------------------------------------------------------------------
    def _exec_if(self, stmt, exp: A.If, venv, lanes) -> None:
        cond = self._operand(exp.cond, venv, lanes)
        if not isinstance(cond, np.ndarray):
            block = exp.then_block if cond else exp.else_block
            vals = self.exec_block(block, dict(venv), lanes)
            self._bind_compound_results(stmt, vals, block.result, venv, lanes)
            return
        mask = cond
        # (values, result names) of each branch some lane takes.
        sides = [
            (
                self.exec_block(blk, self._mask_env(venv, m, len(lanes)), lanes[m]),
                blk.result,
            )
            for m, blk in ((mask, exp.then_block), (~mask, exp.else_block))
            if m.any()
        ]
        for k, pe in enumerate(stmt.pattern):
            vals = [side[k] for side, _ in sides]
            venv[pe.name] = (
                vals[0] if len(vals) == 1 else self._merge_masked(mask, *vals)
            )
            self._mark(pe.name, all(
                self._kind(names[k], side[k])[1] for side, names in sides
            ))

    @staticmethod
    def _mask_env(venv, mask, L):
        return {
            k: v[mask]
            if isinstance(v, np.ndarray) and v.ndim == 1 and v.shape[0] == L
            else v
            for k, v in venv.items()
        }

    @staticmethod
    def _merge_masked(mask, tv, ev):
        out = np.empty(mask.shape[0], dtype=np.result_type(tv, ev))
        out[mask] = tv
        out[~mask] = ev
        return out

    # ------------------------------------------------------------------
    def _bind_compound_results(self, stmt, vals, names, venv, lanes) -> None:
        """Bind a loop's or a uniform ``if``'s results: ``vals``, which
        the body bound to ``names``."""
        ex = self.ex
        for pe, val, src in zip(stmt.pattern, vals, names):
            if not pe.is_array():
                venv[pe.name] = val
                self._mark(pe.name, src in self.weak)
        for pe, val in zip(stmt.pattern, vals):
            if pe.is_array():
                if pe.mem is not None:
                    b = binding_of(pe)
                    if b.mem not in ex.mem and b.mem not in venv:
                        venv[b.mem] = MemRef(self._as_varr(val).mem)
                    venv[pe.name] = self._binding_value(pe, venv, lanes)
                else:
                    venv[pe.name] = val

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    @staticmethod
    def _capture(val):
        if isinstance(val, np.generic):
            return val.item()
        return val

    def _as_varr(self, val) -> VArr:
        if isinstance(val, VArr):
            return val
        if isinstance(val, RuntimeArray):
            return VArr(val.mem, val.ixfn, val.dtype, {})
        raise InterpError(f"expected an array value, got {type(val).__name__}")

    def _binding_value(self, pe, venv, lanes) -> VArr:
        b = binding_of(pe)
        if b is None:
            raise InterpError(f"array {pe.name} lacks a memory binding")
        assert isinstance(pe.type, ArrayType)
        return self._binding_to_varr(b, pe.type.dtype, venv, lanes)

    def _binding_to_varr(self, b: MemBinding, dtype, venv, lanes) -> VArr:
        mem = self.ex._resolve_mem(b.mem, venv)
        vals: Dict[str, object] = {}
        for v in b.ixfn.free_vars():
            if v not in venv:
                raise InterpError(f"unbound variable {v!r} in index function")
            vals[v] = self._capture(venv[v])
        return VArr(mem, b.ixfn, dtype, vals)

    # ------------------------------------------------------------------
    # Offset evaluation: batched index-function application
    # ------------------------------------------------------------------
    def _eval_vals(self, expr: SymExpr, vals, lanes):
        """Evaluate an ixfn component under creation-time captures.

        Captured lane vectors are full-width and indexed by global lane
        id, so slicing by ``lanes`` yields the active lanes' values.
        Returns a Python int (uniform) or an ``(L,)`` int64 vector.
        """
        out = 0
        for m, c in expr.terms.items():
            val = c
            for var, p in m:
                v = vals[var]
                if isinstance(v, np.ndarray):
                    v = v[lanes]
                val = val * v**p
            out = out + val
        return out

    def point_offsets(self, varr: VArr, idx, lanes):
        """Flat offsets of ``varr[idx]`` for all active lanes.

        ``idx`` entries are uniform ints or ``(L,)`` vectors; the result
        is a uniform int or an ``(L,)`` int64 vector.  Composed index
        functions unrank through the outer LMADs exactly like
        ``IndexFn.apply_concrete``, but for all lanes at once.
        """
        ixfn = varr.ixfn
        inner = ixfn.lmads[-1]
        off = self._eval_vals(inner.offset, varr.vals, lanes)
        for i, d in zip(idx, inner.dims):
            off = off + i * self._eval_vals(d.stride, varr.vals, lanes)
        for l in reversed(ixfn.lmads[:-1]):
            shape = tuple(
                int(self._eval_vals(d.shape, varr.vals, lanes)) for d in l.dims
            )
            coords = np.unravel_index(off, shape)
            off = self._eval_vals(l.offset, varr.vals, lanes)
            for coord, d in zip(coords, l.dims):
                off = off + coord * self._eval_vals(d.stride, varr.vals, lanes)
        ent = self.lane_blocks.get(varr.mem)
        if ent is not None:
            size, div = ent
            off = off + (lanes // div if div != 1 else lanes) * size
        return off

    def region_offsets(self, varr: VArr, lanes) -> np.ndarray:
        """All flat offsets of the region, shape ``(L, region_size)``.

        Row ``k`` holds lane ``lanes[k]``'s offsets in C order of the
        region's visible shape -- matching both ``gather_offsets`` and the
        interpreter's ``data.reshape`` convention.
        """
        L = len(lanes)
        ixfn = varr.ixfn
        inner = ixfn.lmads[-1]
        shape = tuple(
            int(self._eval_vals(d.shape, varr.vals, lanes)) for d in inner.dims
        )
        q = len(shape)
        off0 = self._eval_vals(inner.offset, varr.vals, lanes)
        offs = np.zeros((L,) + shape, dtype=np.int64)
        offs += np.asarray(off0, dtype=np.int64).reshape((-1,) + (1,) * q)
        for axis, d in enumerate(inner.dims):
            n = shape[axis]
            s = self._eval_vals(d.stride, varr.vals, lanes)
            cshape = [1] * (q + 1)
            cshape[axis + 1] = n
            if isinstance(s, np.ndarray):
                cshape[0] = L
                offs += (np.arange(n, dtype=np.int64)[None, :] * s[:, None]).reshape(
                    cshape
                )
            else:
                offs += (np.arange(n, dtype=np.int64) * s).reshape(cshape)
        offs = offs.reshape(L, -1)
        for l in reversed(ixfn.lmads[:-1]):
            oshape = tuple(
                int(self._eval_vals(d.shape, varr.vals, lanes)) for d in l.dims
            )
            coords = np.unravel_index(offs, oshape)
            acc = np.zeros_like(offs)
            acc += np.asarray(
                self._eval_vals(l.offset, varr.vals, lanes), dtype=np.int64
            ).reshape(-1, 1)
            for coord, d in zip(coords, l.dims):
                s = self._eval_vals(d.stride, varr.vals, lanes)
                if isinstance(s, np.ndarray):
                    s = s[:, None]
                acc += coord * s
            offs = acc
        ent = self.lane_blocks.get(varr.mem)
        if ent is not None:
            size, div = ent
            base = (lanes // div if div != 1 else lanes) * size
            offs = offs + base[:, None]
        return offs

    def _varr_size(self, varr: VArr, lanes) -> int:
        n = 1
        for d in varr.ixfn.lmads[-1].dims:
            n *= int(self._eval_vals(d.shape, varr.vals, lanes))
        return n

    def _varr_nbytes(self, varr: VArr, lanes) -> int:
        return self._varr_size(varr, lanes) * varr.itemsize

    # ------------------------------------------------------------------
    # The one copy rule, per lane
    # ------------------------------------------------------------------
    def copy_region(self, src: VArr, dst: VArr, lanes) -> None:
        """Per-lane mirror of ``MemExecutor._copy_region``.

        A lane's copy is elided iff its instantiated source and
        destination index functions coincide -- decided numerically here,
        which is equivalent to the interpreter's structural comparison of
        instantiated (constant) index functions.
        """
        ex = self.ex
        L = len(lanes)
        elide = None
        if src.mem == dst.mem and len(src.ixfn.lmads) == len(dst.ixfn.lmads):
            elide = np.ones(L, dtype=bool)
            for ls, ld in zip(src.ixfn.lmads, dst.ixfn.lmads):
                if ls.rank != ld.rank:
                    elide = None
                    break
                pairs = [(ls.offset, ld.offset)]
                for ds, dd in zip(ls.dims, ld.dims):
                    pairs.append((ds.shape, dd.shape))
                    pairs.append((ds.stride, dd.stride))
                for es, ed in pairs:
                    vs = self._eval_vals(es, src.vals, lanes)
                    vd = self._eval_vals(ed, dst.vals, lanes)
                    elide = elide & np.asarray(vs == vd)
                    if not elide.any():
                        break
                else:
                    continue
                break
        if elide is None:
            elide = np.zeros(L, dtype=bool)
        n_el = int(np.count_nonzero(elide))
        src_nb = self._varr_nbytes(src, lanes)
        dst_nb = self._varr_nbytes(dst, lanes)
        if n_el:
            ex.stats.elided_copies += n_el
            ex.stats.elided_bytes += (src_nb + dst_nb) * n_el
        n_rem = L - n_el
        if n_rem == 0:
            return
        ks = ex._current_kernel()
        assert ks is not None
        ks.note_read(src_nb * n_rem, ex._space_of(src.mem))
        ks.note_written(dst_nb * n_rem, ex._space_of(dst.mem))
        rlanes = lanes[~elide]
        doffs = self.region_offsets(dst, rlanes)
        if doffs.size:
            soffs = self.region_offsets(src, rlanes)
            sbuf = ex.mem[src.mem]
            dbuf = ex.mem[dst.mem]
            dbuf[doffs] = sbuf[soffs].reshape(doffs.shape)

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------
    def _eval_scalar(self, expr, venv, lanes):
        """Evaluate an index/scalar SymExpr in the current environment."""
        if not isinstance(expr, SymExpr):
            return expr
        for v in expr.free_vars():
            if isinstance(venv.get(v), np.ndarray):
                break
        else:
            # All-uniform: the interpreter's exact integer path.
            return eval_sym(expr, venv)
        out = 0
        for m, c in expr.terms.items():
            val = c
            for var, p in m:
                v = venv[var]
                if isinstance(v, np.generic):
                    v = v.item()
                val = val * v**p
            out = out + val
        return out

    def _operand(self, op: A.Operand, venv, lanes):
        if isinstance(op, str):
            return venv[op]
        if isinstance(op, SymExpr):
            return self._eval_scalar(op, venv, lanes)
        return op

    def _mark(self, name: str, weak: bool) -> None:
        (self.weak.add if weak else self.weak.discard)(name)

    def _kind(self, op: A.Operand, val) -> scalar.Kind:
        if not isinstance(val, np.ndarray):
            return scalar.kind_of(val)
        # A lane vector: an index expression's is weak, a name's as marked.
        return _IR_DTYPE[val.dtype.char], not isinstance(op, str) or op in self.weak

    def _scalar_exp(self, exp: A.Exp, venv, lanes):
        """``(value, is it a weak lane vector)`` of a scalar expression."""
        if isinstance(exp, A.Lit):
            return _NP_TYPE[exp.dtype].type(exp.value), False
        if isinstance(exp, A.ScalarE):
            return self._eval_scalar(exp.expr, venv, lanes), True
        row = scalar.OPS[exp.op]
        self.ex._count_flop(len(lanes) * row.flops)
        x = self._operand(exp.x, venv, lanes)
        if isinstance(exp, A.UnOp):
            if not isinstance(x, np.ndarray):
                return row.scalar(x), False  # uniform: its type says its kind
            dtype, kind = scalar.op_typing(exp.op, self._kind(exp.x, x))
            if dtype is not None and x.dtype.char != _NP_TYPE[dtype].char:
                x = x.astype(_NP_TYPE[dtype])
            return row.lanes(x), kind is not None and kind[1]
        y = self._operand(exp.y, venv, lanes)
        x_lanes, y_lanes = isinstance(x, np.ndarray), isinstance(y, np.ndarray)
        if not (x_lanes or y_lanes):
            return row.scalar(x, y), False
        dtype, kind = scalar.op_typing(
            exp.op, self._kind(exp.x, x), self._kind(exp.y, y)
        )
        if dtype is not None:
            to = _NP_TYPE[dtype]
            if not x_lanes:
                x = to.type(x)
            elif x.dtype.char != to.char:
                x = x.astype(to)
            if not y_lanes:
                y = to.type(y)
            elif y.dtype.char != to.char:
                y = y.astype(to)
        return row.lanes(x, y), kind is not None and kind[1]


_NP_TYPE = {d: np.dtype(np_name) for d, (np_name, _) in DTYPE_INFO.items()}
_IR_DTYPE = {t.char: d for d, t in _NP_TYPE.items()}
