"""Type inference and checking for the core IR.

Two entry points:

* :func:`infer_pattern_types` -- the single source of truth for what types
  an expression produces; used both by the :class:`~repro.ir.builder.FunBuilder`
  (to construct patterns) and by the checker.
* :func:`typecheck_fun` -- validates a whole function: scoping, rank and
  dtype agreement, and the uniqueness discipline for in-place updates
  ("the old value of A is not used on any subsequent execution path",
  paper section II-C).

Shape checking is *symbolic*: two dimensions agree when their expressions
are syntactically equal polynomials, and the checker accepts (does not
reject) dimensions it cannot decide -- the standard compromise for a
shape-polymorphic IR.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.symbolic import SymExpr, sym

from repro.ir import ast as A
from repro.ir.scalar import BINARY, OPS, REDUCTIONS, UNARY
from repro.ir.types import ArrayType, ScalarType, Type


class TypeError_(Exception):
    """A type error in an IR program (named to avoid the builtin)."""


#: Type given to memory-block bindings (they are opaque to the language).
MEM = ScalarType("i64")


def _op_class(op: str, known, what: str) -> str:
    if op not in known:
        raise TypeError_(f"unknown {what} op {op!r} (known: {' '.join(sorted(known))})")
    return OPS[op].cls


def _operand_type(op: A.Operand, env: Mapping[str, Type]) -> Type:
    if isinstance(op, str):
        if op not in env:
            raise TypeError_(f"unbound variable {op!r}")
        return env[op]
    if isinstance(op, bool):
        return ScalarType("bool")
    if isinstance(op, int):
        return ScalarType("i64")
    if isinstance(op, float):
        return ScalarType("f32")
    if isinstance(op, SymExpr):
        for v in op.free_vars():
            if v not in env:
                raise TypeError_(f"unbound variable {v!r} in index expression")
            t = env[v]
            if not isinstance(t, ScalarType) or t.dtype != "i64":
                raise TypeError_(
                    f"index expression uses non-i64 variable {v!r} : {t}"
                )
        return ScalarType("i64")
    raise TypeError_(f"bad operand {op!r}")


def infer_pattern_types(
    exp: A.Exp, env: Mapping[str, Type]
) -> List[Type]:
    """Types of the values an expression produces (one per pattern element)."""
    if isinstance(exp, A.VarRef):
        return [_operand_type(exp.name, env)]
    if isinstance(exp, A.Lit):
        return [ScalarType(exp.dtype)]
    if isinstance(exp, A.ScalarE):
        _operand_type(exp.expr, env)
        return [ScalarType("i64")]
    if isinstance(exp, A.BinOp):
        tx = _operand_type(exp.x, env)
        ty = _operand_type(exp.y, env)
        if not isinstance(tx, ScalarType) or not isinstance(ty, ScalarType):
            raise TypeError_(f"BinOp {exp.op} on non-scalars: {tx}, {ty}")
        if _op_class(exp.op, BINARY, "binary") in ("comparison", "logical"):
            return [ScalarType("bool")]
        # Literals adapt to the other operand's dtype.
        if isinstance(exp.x, str):
            return [tx]
        if isinstance(exp.y, str):
            return [ty]
        return [tx]
    if isinstance(exp, A.UnOp):
        tx = _operand_type(exp.x, env)
        if not isinstance(tx, ScalarType):
            raise TypeError_(f"UnOp {exp.op} on non-scalar {tx}")
        if _op_class(exp.op, UNARY, "unary") == "conversion":
            return [ScalarType(exp.op)]
        return [tx]
    if isinstance(exp, A.Iota):
        return [ArrayType(exp.dtype, (exp.n,))]
    if isinstance(exp, A.Scratch):
        return [ArrayType(exp.dtype, exp.shape, unique=True)]
    if isinstance(exp, A.Replicate):
        vt = _operand_type(exp.value, env)
        dtype = vt.dtype if isinstance(vt, ScalarType) else exp.dtype
        return [ArrayType(dtype, exp.shape, unique=True)]
    if isinstance(exp, A.Copy):
        t = _array_type(exp.src, env)
        return [ArrayType(t.dtype, t.shape, unique=True)]
    if isinstance(exp, A.Concat):
        ts = [_array_type(s, env) for s in exp.srcs]
        if not ts:
            raise TypeError_("concat of zero arrays")
        first = ts[0]
        for t in ts[1:]:
            if t.dtype != first.dtype or t.rank != first.rank:
                raise TypeError_(f"concat mismatch: {first} vs {t}")
        outer: SymExpr = sym(0)
        for t in ts:
            outer = outer + t.shape[0]
        return [ArrayType(first.dtype, (outer,) + first.shape[1:], unique=True)]
    if isinstance(exp, A.Index):
        t = _array_type(exp.src, env)
        if len(exp.indices) != t.rank:
            raise TypeError_(
                f"indexing rank-{t.rank} array {exp.src} with "
                f"{len(exp.indices)} indices"
            )
        for i in exp.indices:
            _operand_type(i, env)
        return [ScalarType(t.dtype)]
    if isinstance(exp, A.SliceT):
        t = _array_type(exp.src, env)
        if len(exp.triplets) != t.rank:
            raise TypeError_(
                f"slicing rank-{t.rank} array {exp.src} with "
                f"{len(exp.triplets)} triplets"
            )
        shape = tuple(count for _, count, _ in exp.triplets)
        return [ArrayType(t.dtype, shape)]
    if isinstance(exp, A.LmadSlice):
        t = _array_type(exp.src, env)
        if t.rank != 1:
            raise TypeError_(
                f"LMAD slice requires a rank-1 array; {exp.src} : {t}"
            )
        return [ArrayType(t.dtype, exp.lmad.shape)]
    if isinstance(exp, A.Rearrange):
        t = _array_type(exp.src, env)
        if sorted(exp.perm) != list(range(t.rank)):
            raise TypeError_(f"bad permutation {exp.perm} for {t}")
        return [ArrayType(t.dtype, tuple(t.shape[p] for p in exp.perm))]
    if isinstance(exp, A.Reshape):
        t = _array_type(exp.src, env)
        return [ArrayType(t.dtype, exp.shape)]
    if isinstance(exp, A.Reverse):
        t = _array_type(exp.src, env)
        if not 0 <= exp.dim < t.rank:
            raise TypeError_(f"reverse dim {exp.dim} out of range for {t}")
        return [t]
    if isinstance(exp, A.Update):
        t = _array_type(exp.src, env)
        _check_spec(exp.spec, t)
        return [ArrayType(t.dtype, t.shape, unique=True)]
    if isinstance(exp, A.Map):
        body_env = dict(env)
        _bind(body_env, exp.lam.params[0], ScalarType("i64"))
        result_types = _block_types(exp.lam.body, body_env)
        out: List[Type] = []
        for t in result_types:
            if isinstance(t, ScalarType):
                out.append(ArrayType(t.dtype, (exp.width,), unique=True))
            else:
                out.append(
                    ArrayType(t.dtype, (exp.width,) + t.shape, unique=True)
                )
        return out
    if isinstance(exp, A.Loop):
        body_env = dict(env)
        for p, init in exp.carried:
            init_t = _operand_type(init, env)
            _require_same_shape(p.type, init_t, f"loop init of {p.name}")
            _bind(body_env, p.name, p.type)
        _bind(body_env, exp.index, ScalarType("i64"))
        result_types = _block_types(exp.body, body_env)
        if len(result_types) != len(exp.carried):
            raise TypeError_(
                f"loop body returns {len(result_types)} values for "
                f"{len(exp.carried)} parameters"
            )
        for (p, _), rt in zip(exp.carried, result_types):
            _require_same_shape(p.type, rt, f"loop result of {p.name}")
        return [p.type for p, _ in exp.carried]
    if isinstance(exp, A.If):
        ct = _operand_type(exp.cond, env)
        if not isinstance(ct, ScalarType) or ct.dtype != "bool":
            raise TypeError_(f"if condition has type {ct}")
        then_ts = _block_types(exp.then_block, dict(env))
        else_ts = _block_types(exp.else_block, dict(env))
        if len(then_ts) != len(else_ts):
            raise TypeError_("if branches return different arities")
        for a, b in zip(then_ts, else_ts):
            _require_same_shape(a, b, "if result")
        return then_ts
    if isinstance(exp, A.Reduce):
        t = _array_type(exp.src, env)
        if exp.op not in REDUCTIONS:
            raise TypeError_(
                f"unknown reduction op {exp.op!r} (known: {' '.join(REDUCTIONS)})"
            )
        return [ScalarType(t.dtype)]
    if isinstance(exp, A.ArgMin):
        t = _array_type(exp.src, env)
        if t.rank != 1:
            raise TypeError_("argmin requires a rank-1 array")
        return [ScalarType(t.dtype), ScalarType("i64")]
    if isinstance(exp, A.Alloc):
        return [MEM]
    raise TypeError_(f"unknown expression {type(exp).__name__}")


def _array_type(name: str, env: Mapping[str, Type]) -> ArrayType:
    t = _operand_type(name, env)
    if not isinstance(t, ArrayType):
        raise TypeError_(f"{name!r} is not an array (has type {t})")
    return t


def _require_same_shape(a: Type, b: Type, what: str) -> None:
    if isinstance(a, ScalarType) != isinstance(b, ScalarType):
        raise TypeError_(f"{what}: scalar/array mismatch ({a} vs {b})")
    if isinstance(a, ScalarType):
        if a.dtype != b.dtype:
            raise TypeError_(f"{what}: dtype mismatch ({a} vs {b})")
        return
    assert isinstance(b, ArrayType)
    if a.dtype != b.dtype or a.rank != b.rank:
        raise TypeError_(f"{what}: mismatch ({a} vs {b})")
    # Symbolic dimensions: reject only when both are decidably different.
    for da, db in zip(a.shape, b.shape):
        ia, ib = da.as_int(), db.as_int()
        if ia is not None and ib is not None and ia != ib:
            raise TypeError_(f"{what}: shape mismatch ({a} vs {b})")


def _check_spec(spec: A.IndexSpec, t: ArrayType) -> None:
    if isinstance(spec, A.PointSpec):
        if len(spec.indices) != t.rank:
            raise TypeError_(f"point update rank mismatch for {t}")
    elif isinstance(spec, A.TripletSpec):
        if len(spec.triplets) != t.rank:
            raise TypeError_(f"triplet update rank mismatch for {t}")
    elif isinstance(spec, A.LmadSpec):
        if t.rank != 1:
            raise TypeError_("LMAD update requires a rank-1 array")


def _bind(env: Dict[str, Type], name: str, t: Type) -> None:
    """Names are bound once: no ``let`` or binder shadows one in scope
    (flow-insensitive facts and the vectorized tier's one environment
    per launch rely on it)."""
    if name in env:
        raise TypeError_(f"{name!r} is already bound in this scope")
    env[name] = t


def _block_types(block: A.Block, env: Dict[str, Type]) -> List[Type]:
    for stmt in block.stmts:
        types = infer_pattern_types(stmt.exp, env)
        if len(types) != len(stmt.pattern):
            raise TypeError_(
                f"pattern of {len(stmt.pattern)} elements bound to "
                f"expression producing {len(types)} values"
            )
        for pe, t in zip(stmt.pattern, types):
            _require_same_shape(pe.type, t, f"binding of {pe.name}")
            _bind(env, pe.name, pe.type)
    out = []
    for r in block.result:
        if r not in env:
            raise TypeError_(f"block result {r!r} is unbound")
        out.append(env[r])
    return out


def typecheck_fun(fun: A.Fun) -> List[Type]:
    """Check a function; returns its result types.

    Checks scoping, arity/rank/dtype agreement, and a conservative
    uniqueness discipline: a variable consumed by :class:`~repro.ir.ast.Update`
    (or any alias of it) must not be used by a later statement of the same
    or an enclosing block.
    """
    env: Dict[str, Type] = {}
    for p in fun.params:
        if isinstance(p.type, ArrayType):
            # Shape variables are implicitly in scope as i64 scalars.
            for s in p.type.shape:
                for v in s.free_vars():
                    env.setdefault(v, ScalarType("i64"))
        env[p.name] = p.type
    result = _block_types(fun.body, env)
    _check_uniqueness(fun)
    return result


def _check_uniqueness(fun: A.Fun) -> None:
    from repro.ir.alias import analyze_aliases

    aliases = analyze_aliases(fun)

    def walk(block: A.Block, consumed: set, defined: set) -> None:
        for stmt in block.stmts:
            used = A.exp_uses(stmt.exp)
            bad = used & consumed
            if bad:
                raise TypeError_(
                    f"use of consumed array(s) {sorted(bad)} in binding of "
                    f"{stmt.names}"
                )
            for blk, binder in A.sub_scopes(stmt.exp):
                walk(blk, consumed, defined | A.bound_names(binder))
            if isinstance(stmt.exp, A.Update):
                # Consumption is flow-sensitive: only names that already
                # exist alias the *old* value; the update's fresh result
                # (and anything derived from it later) stays live.
                consumed |= (
                    aliases.closure(stmt.exp.src) & defined
                ) - set(stmt.names)
            # Loop-carried initializers are consumed by the loop.
            if isinstance(stmt.exp, A.Loop):
                for _, init in stmt.exp.carried:
                    consumed |= (aliases.closure(init) & defined) - set(
                        stmt.names
                    )
            defined |= set(stmt.names)
        for r in block.result:
            if r in consumed:
                # Returning a consumed name is fine only for the Update's
                # own result, which is a fresh name -- so this is an error.
                raise TypeError_(f"block returns consumed array {r!r}")

    walk(fun.body, set(), {p.name for p in fun.params})
