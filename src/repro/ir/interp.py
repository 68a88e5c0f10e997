"""Reference interpreter: the purely functional semantics of the IR.

This interpreter defines what programs *mean*, independently of memory:
every array constructor returns a fresh NumPy array, updates copy, and no
aliasing is observable.  The memory-IR executor
(:mod:`repro.mem.exec`) must agree with it bit-for-bit -- the test suite
checks optimized programs against this interpreter, which is how we know
short-circuiting is semantics-preserving.

The dynamic safety checks of paper section III-B are performed here on
every LMAD slice and update: its points must lie in bounds, and an
update's points must be pairwise distinct (no zero stride, no
overlapping dimensions), so it has no output dependences.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.lmad.lmad import Lmad
from repro.symbolic import SymExpr

from repro.ir import ast as A
from repro.ir.scalar import OPS, REDUCTIONS
from repro.ir.types import ArrayType, DTYPE_INFO


class InterpError(Exception):
    """Run-time failure of an IR program (bad index, failed dynamic check)."""


def eval_sym(expr: SymExpr, env: Mapping[str, object]) -> int:
    """Evaluate a symbolic integer expression in a value environment, from
    its compiled form (:meth:`SymExpr.compile`)."""
    try:
        return expr.compile()(env)
    except KeyError as e:
        raise InterpError(f"unbound scalar {e.args[0]!r} in index expression") from None
    except TypeError as e:
        raise InterpError(str(e)) from None


def eval_operand(op: A.Operand, env: Mapping[str, object]):
    """A scalar operand's value: a variable's, an index expression's or
    the constant's own."""
    if isinstance(op, str):
        return env[op]
    if isinstance(op, SymExpr):
        return eval_sym(op, env)
    return op


def lmad_offsets_np(lmad: Lmad, env: Mapping[str, object]) -> np.ndarray:
    """Flat offsets of an LMAD as an ndarray of the LMAD's shape."""
    offset = eval_sym(lmad.offset, env)
    shape = tuple(eval_sym(d.shape, env) for d in lmad.dims)
    strides = [eval_sym(d.stride, env) for d in lmad.dims]
    offs = np.full(shape, offset, dtype=np.int64)
    for axis, (n, s) in enumerate(zip(shape, strides)):
        idx_shape = [1] * len(shape)
        idx_shape[axis] = n
        offs = offs + (np.arange(n, dtype=np.int64) * s).reshape(idx_shape)
    return offs


def bind_shape_vars(params, inputs: Mapping[str, object], env: Dict[str, object]) -> None:
    """Unify symbolic shape variables with the concrete input shapes: a
    dimension that is a bare variable ``env`` does not bind yet gets the
    array's extent."""
    for p in params:
        if isinstance(p.type, ArrayType):
            for dim_expr, extent in zip(p.type.shape, np.shape(inputs.get(p.name))):
                fv = sorted(dim_expr.free_vars())
                if (
                    len(fv) == 1
                    and fv[0] not in env
                    and dim_expr == SymExpr.var(fv[0])
                ):
                    env[fv[0]] = int(extent)


class Interpreter:
    """Evaluate a function on concrete inputs."""

    def __init__(self, fun: A.Fun):
        self.fun = fun

    # ------------------------------------------------------------------
    def run(self, **inputs) -> List[object]:
        env: Dict[str, object] = {}
        declared = {p.name for p in self.fun.params}
        for p in self.fun.params:
            if p.name not in inputs:
                raise InterpError(f"missing input {p.name!r}")
            env[p.name] = inputs[p.name]
        # Extra keyword arguments bind free size variables (e.g. passing
        # n=4 for a shape written in terms of n without an explicit param).
        for k, v in inputs.items():
            if k not in declared:
                env[k] = v
        bind_shape_vars(self.fun.params, inputs, env)
        return self.run_block(self.fun.body, env)

    def run_block(self, block: A.Block, env: Dict[str, object]) -> List[object]:
        for stmt in block.stmts:
            values = self.eval_exp(stmt.exp, env)
            if len(values) != len(stmt.pattern):
                raise InterpError(
                    f"arity mismatch binding {stmt.names}: got {len(values)}"
                )
            for pe, v in zip(stmt.pattern, values):
                env[pe.name] = v
        return [env[r] for r in block.result]

    # ------------------------------------------------------------------
    def eval_exp(self, exp: A.Exp, env: Dict[str, object]) -> List[object]:
        if isinstance(exp, A.VarRef):
            return [env[exp.name]]
        if isinstance(exp, A.Lit):
            return [_np_scalar(exp.value, exp.dtype)]
        if isinstance(exp, A.ScalarE):
            return [eval_sym(exp.expr, env)]
        if isinstance(exp, A.BinOp):
            return [OPS[exp.op].scalar(eval_operand(exp.x, env), eval_operand(exp.y, env))]
        if isinstance(exp, A.UnOp):
            return [OPS[exp.op].scalar(eval_operand(exp.x, env))]
        if isinstance(exp, A.Iota):
            n = eval_sym(exp.n, env)
            return [np.arange(n, dtype=DTYPE_INFO[exp.dtype][0])]
        if isinstance(exp, A.Scratch):
            shape = tuple(eval_sym(s, env) for s in exp.shape)
            # Deterministic "uninitialized" contents for reproducible tests.
            return [np.zeros(shape, dtype=DTYPE_INFO[exp.dtype][0])]
        if isinstance(exp, A.Replicate):
            shape = tuple(eval_sym(s, env) for s in exp.shape)
            value = eval_operand(exp.value, env)
            dtype = getattr(value, "dtype", DTYPE_INFO[exp.dtype][0])
            return [np.full(shape, value, dtype=dtype)]
        if isinstance(exp, A.Copy):
            return [np.array(env[exp.src], copy=True, order="C")]
        if isinstance(exp, A.Concat):
            return [np.concatenate([env[s] for s in exp.srcs], axis=0)]
        if isinstance(exp, A.Index):
            arr = env[exp.src]
            idx = tuple(eval_sym(i, env) for i in exp.indices)
            try:
                return [arr[idx]]
            except IndexError as e:
                raise InterpError(f"index {idx} out of bounds for {exp.src}") from e
        if isinstance(exp, A.SliceT):
            return [self._slice_triplet(env[exp.src], exp.triplets, env)]
        if isinstance(exp, A.LmadSlice):
            arr = env[exp.src]
            offs = lmad_offsets_np(exp.lmad, env)
            self._bounds_check(offs, arr.size, exp.src)
            return [arr.reshape(-1)[offs]]
        if isinstance(exp, A.Rearrange):
            return [np.transpose(env[exp.src], exp.perm)]
        if isinstance(exp, A.Reshape):
            shape = tuple(eval_sym(s, env) for s in exp.shape)
            return [env[exp.src].reshape(shape)]
        if isinstance(exp, A.Reverse):
            return [np.flip(env[exp.src], exp.dim)]
        if isinstance(exp, A.Update):
            return [self._update(exp, env)]
        if isinstance(exp, A.Map):
            return self._map(exp, env)
        if isinstance(exp, A.Loop):
            return self._loop(exp, env)
        if isinstance(exp, A.If):
            cond = eval_operand(exp.cond, env)
            block = exp.then_block if cond else exp.else_block
            return self.run_block(block, dict(env))
        if isinstance(exp, A.Reduce):
            return [REDUCTIONS[exp.op](env[exp.src])]
        if isinstance(exp, A.ArgMin):
            arr = env[exp.src]
            i = int(np.argmin(arr))
            return [arr[i], i]
        if isinstance(exp, A.Alloc):
            raise InterpError(
                "Alloc has no functional semantics; run memory-annotated "
                "programs with repro.mem.exec instead"
            )
        raise InterpError(f"unknown expression {type(exp).__name__}")

    def _slice_triplet(self, arr: np.ndarray, triplets, env) -> np.ndarray:
        index_arrays = []
        for axis, (start, count, step) in enumerate(triplets):
            s = eval_sym(start, env)
            c = eval_sym(count, env)
            st = eval_sym(step, env)
            idx = s + np.arange(c) * st
            if c > 0 and (idx.min() < 0 or idx.max() >= arr.shape[axis]):
                raise InterpError(
                    f"triplet slice out of bounds on axis {axis}: "
                    f"{idx.min()}..{idx.max()} vs extent {arr.shape[axis]}"
                )
            index_arrays.append(idx)
        return arr[np.ix_(*index_arrays)]

    def _bounds_check(self, offs: np.ndarray, size: int, name: str) -> None:
        if offs.size and (offs.min() < 0 or offs.max() >= size):
            raise InterpError(
                f"LMAD slice out of bounds for {name}: "
                f"{offs.min()}..{offs.max()} vs size {size}"
            )

    def _update(self, exp: A.Update, env: Dict[str, object]) -> np.ndarray:
        src = env[exp.src]
        out = np.array(src, copy=True, order="C")
        if isinstance(exp.spec, A.PointSpec):
            idx = tuple(eval_sym(i, env) for i in exp.spec.indices)
            out[idx] = eval_operand(exp.value, env)
            return out
        value = eval_operand(exp.value, env)
        if isinstance(exp.spec, A.TripletSpec):
            index_arrays = []
            for axis, (start, count, step) in enumerate(exp.spec.triplets):
                s = eval_sym(start, env)
                c = eval_sym(count, env)
                st = eval_sym(step, env)
                index_arrays.append(s + np.arange(c) * st)
            out[np.ix_(*index_arrays)] = value
            return out
        assert isinstance(exp.spec, A.LmadSpec)
        offs = lmad_offsets_np(exp.spec.lmad, env)
        if offs.size == 0:
            return out
        self._bounds_check(offs, out.size, exp.src)
        # The points must be pairwise distinct (paper section III-B).
        flat = offs.reshape(-1)
        if np.unique(flat).size != flat.size:
            raise InterpError(f"LMAD update on {exp.src} has overlapping points")
        out.reshape(-1)[offs] = value
        return out

    def _map(self, exp: A.Map, env: Dict[str, object]) -> List[object]:
        width = eval_sym(exp.width, env)
        per_thread: List[List[object]] = []
        for i in range(width):
            child = dict(env)
            child[exp.lam.params[0]] = i
            per_thread.append(self.run_block(exp.lam.body, child))
        n_res = len(exp.lam.body.result)
        outputs = []
        for k in range(n_res):
            rows = [per_thread[i][k] for i in range(width)]
            if rows:
                outputs.append(np.stack([np.asarray(r) for r in rows]))
            else:
                outputs.append(np.zeros((0,), dtype=np.float32))
        return outputs

    def _loop(self, exp: A.Loop, env: Dict[str, object]) -> List[object]:
        state = [env[init] for _, init in exp.carried]
        count = eval_sym(exp.count, env)
        for i in range(count):
            child = dict(env)
            child[exp.index] = i
            for (p, _), v in zip(exp.carried, state):
                child[p.name] = v
            state = self.run_block(exp.body, child)
        return state


def run_fun(fun: A.Fun, **inputs) -> List[object]:
    """One-shot convenience: interpret ``fun`` on the given inputs."""
    return Interpreter(fun).run(**inputs)


def _np_scalar(value, dtype: str):
    return np.dtype(DTYPE_INFO[dtype][0]).type(value)
