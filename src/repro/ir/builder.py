"""Fluent construction API for IR programs.

Writing administrative-normal-form AST by hand is painful; the builder lets
benchmark programs read like the paper's pseudo-code:

    b = FunBuilder("nw")
    b.define("n", q * bsz + 1)
    A = b.param("A", f32(n * n))
    lp = b.loop(count=q, carried=[("Acur", A)], index="i")
    rv = lp.lmad_slice(lp["Acur"], rvert_lmad)
    ...
    lp.returns(updated)
    (A2,) = lp.end()
    b.returns(A2)
    fun = b.build()

Every emitter infers the result types via
:func:`repro.ir.typecheck.infer_pattern_types` (the same inference the
checker uses), generates fresh names unless given one, and returns the
bound name(s).  Compound statements (``loop``/``map_``/``if_``) hand back a
sub-builder; call ``end()`` (or use ``with``) to emit them into the parent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.lmad.lmad import Lmad
from repro.symbolic import SymExpr, sym
from repro.symbolic.expr import ExprLike

from repro.ir import ast as A
from repro.ir.types import ArrayType, ScalarType, Type
from repro.ir.typecheck import infer_pattern_types, typecheck_fun


class BlockBuilder:
    """Accumulates statements for one block; scoped type environment."""

    def __init__(self, root: "FunBuilder", parent: Optional["BlockBuilder"]):
        self._root = root
        self._parent = parent
        self._types: Dict[str, Type] = {}
        self._stmts: List[A.Let] = []
        self._result: Optional[Tuple[str, ...]] = None

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def lookup(self, name: str) -> Type:
        scope: Optional[BlockBuilder] = self
        while scope is not None:
            if name in scope._types:
                return scope._types[name]
            scope = scope._parent
        raise KeyError(f"unbound variable {name!r}")

    def _type_env(self) -> Dict[str, Type]:
        chain: List[BlockBuilder] = []
        scope: Optional[BlockBuilder] = self
        while scope is not None:
            chain.append(scope)
            scope = scope._parent
        env: Dict[str, Type] = {}
        for scope in reversed(chain):
            env.update(scope._types)
        return env

    def _bind(self, name: str, t: Type) -> None:
        self._types[name] = t

    # ------------------------------------------------------------------
    # Core emitter
    # ------------------------------------------------------------------
    def emit(
        self, exp: A.Exp, names: Optional[Sequence[Optional[str]]] = None
    ) -> Tuple[str, ...]:
        """Emit ``let <names> = exp``; infer types; return the bound names."""
        types = infer_pattern_types(exp, self._type_env())
        if names is None:
            names = [None] * len(types)
        if len(names) != len(types):
            raise ValueError(
                f"expression produces {len(types)} values, got {len(names)} names"
            )
        pattern = []
        out = []
        for name, t in zip(names, types):
            if name is not None:
                self._root._used_names.add(name)
            final = name if name is not None else self._root.fresh()
            pattern.append(A.PatElem(final, t))
            self._bind(final, t)
            out.append(final)
        self._stmts.append(A.Let(pattern, exp))
        return tuple(out)

    def returns(self, *names: str) -> None:
        for n in names:
            self.lookup(n)  # raises on unbound
        self._result = tuple(names)

    def _block(self) -> A.Block:
        if self._result is None:
            raise ValueError("block has no result; call returns(...)")
        return A.Block(self._stmts, self._result)

    # ------------------------------------------------------------------
    # Scalar emitters
    # ------------------------------------------------------------------
    def lit(self, value, dtype: str = "f32", name: Optional[str] = None) -> str:
        return self.emit(A.Lit(value, dtype), [name])[0]

    def scalar(self, expr: ExprLike, name: Optional[str] = None) -> SymExpr:
        """Bind an integer scalar computation; returns it as a variable."""
        (n,) = self.emit(A.ScalarE(sym(expr)), [name])
        return SymExpr.var(n)

    def binop(self, op: str, x: A.Operand, y: A.Operand, name=None) -> str:
        return self.emit(A.BinOp(op, x, y), [name])[0]

    def unop(self, op: str, x: A.Operand, name=None) -> str:
        return self.emit(A.UnOp(op, x), [name])[0]

    # ------------------------------------------------------------------
    # Array constructors
    # ------------------------------------------------------------------
    def iota(self, n: ExprLike, dtype: str = "i64", name=None) -> str:
        return self.emit(A.Iota(sym(n), dtype), [name])[0]

    def scratch(self, dtype: str, shape: Sequence[ExprLike], name=None) -> str:
        return self.emit(A.Scratch(dtype, tuple(sym(s) for s in shape)), [name])[0]

    def replicate(
        self, shape: Sequence[ExprLike], value: A.Operand, dtype="f32", name=None
    ) -> str:
        return self.emit(
            A.Replicate(tuple(sym(s) for s in shape), value, dtype), [name]
        )[0]

    def copy(self, src: str, name=None) -> str:
        return self.emit(A.Copy(src), [name])[0]

    def concat(self, *srcs: str, name=None) -> str:
        return self.emit(A.Concat(tuple(srcs)), [name])[0]

    # ------------------------------------------------------------------
    # Reads and change-of-layout ops
    # ------------------------------------------------------------------
    def index(self, src: str, indices: Sequence[ExprLike], name=None) -> str:
        return self.emit(A.Index(src, tuple(sym(i) for i in indices)), [name])[0]

    def slice(self, src: str, triplets, name=None) -> str:
        return self.emit(A.SliceT(src, tuple(triplets)), [name])[0]

    def lmad_slice(self, src: str, lmad: Lmad, name=None) -> str:
        return self.emit(A.LmadSlice(src, lmad), [name])[0]

    def rearrange(self, src: str, perm: Sequence[int], name=None) -> str:
        return self.emit(A.Rearrange(src, tuple(perm)), [name])[0]

    def transpose(self, src: str, name=None) -> str:
        rank = self.lookup(src).rank  # type: ignore[union-attr]
        return self.rearrange(src, tuple(reversed(range(rank))), name)

    def reshape(self, src: str, shape: Sequence[ExprLike], name=None) -> str:
        return self.emit(A.Reshape(src, tuple(sym(s) for s in shape)), [name])[0]

    def reverse(self, src: str, dim: int, name=None) -> str:
        return self.emit(A.Reverse(src, dim), [name])[0]

    def flatten(self, src: str, name=None) -> str:
        t = self.lookup(src)
        assert isinstance(t, ArrayType)
        return self.reshape(src, [t.size()], name)

    # ------------------------------------------------------------------
    # Updates and reductions
    # ------------------------------------------------------------------
    def update_point(
        self, src: str, indices: Sequence[ExprLike], value: A.Operand, name=None
    ) -> str:
        spec = A.PointSpec(tuple(sym(i) for i in indices))
        return self.emit(A.Update(src, spec, value), [name])[0]

    def update_slice(self, src: str, triplets, value: str, name=None) -> str:
        spec = A.TripletSpec(tuple(triplets))
        return self.emit(A.Update(src, spec, value), [name])[0]

    def update_lmad(self, src: str, lmad: Lmad, value: str, name=None) -> str:
        spec = A.LmadSpec(lmad)
        return self.emit(A.Update(src, spec, value), [name])[0]

    def reduce(self, op: str, src: str, name=None) -> str:
        return self.emit(A.Reduce(op, src), [name])[0]

    def argmin(self, src: str, names=(None, None)) -> Tuple[str, str]:
        v, i = self.emit(A.ArgMin(src), list(names))
        return v, i

    # ------------------------------------------------------------------
    # Compound statements
    # ------------------------------------------------------------------
    def loop(
        self,
        count: ExprLike,
        carried: Sequence[Tuple[str, str]],
        index: str = "i",
        names: Optional[Sequence[str]] = None,
    ) -> "LoopBuilder":
        return LoopBuilder(self, sym(count), list(carried), index, names)

    def map_(
        self,
        width: ExprLike,
        index: str = "i",
        names: Optional[Sequence[str]] = None,
    ) -> "MapBuilder":
        return MapBuilder(self, sym(width), index, names)

    def if_(
        self, cond: A.Operand, names: Optional[Sequence[str]] = None
    ) -> "IfBuilder":
        return IfBuilder(self, cond, names)


class LoopBuilder(BlockBuilder):
    """Body builder for a sequential loop; ``self[param]`` names are bound."""

    def __init__(self, parent, count, carried, index, names):
        super().__init__(parent._root, parent)
        self._emit_into = parent
        self._count = count
        self._index = parent._root.unique(index)
        self._names = names
        self._carried: List[Tuple[A.PatElem, str]] = []
        self._param_alias: Dict[str, str] = {}
        self._bind(self._index, ScalarType("i64"))
        for pname, init in carried:
            actual = parent._root.unique(pname)
            self._param_alias[pname] = actual
            t = parent.lookup(init)
            self._carried.append((A.PatElem(actual, t), init))
            self._bind(actual, t)
        self.results: Tuple[str, ...] = ()

    def __getitem__(self, pname: str) -> str:
        if pname in self._param_alias:
            return self._param_alias[pname]
        for p, _ in self._carried:
            if p.name == pname:
                return pname
        raise KeyError(pname)

    @property
    def idx(self) -> SymExpr:
        """The loop index as a symbolic variable."""
        return SymExpr.var(self._index)

    def end(self) -> Tuple[str, ...]:
        exp = A.Loop(tuple(self._carried), self._index, self._count, self._block())
        self.results = self._emit_into.emit(exp, self._names)
        return self.results


class MapBuilder(BlockBuilder):
    """Body builder for a mapnest; the thread index is ``self.index``."""

    def __init__(self, parent, width, index, names):
        super().__init__(parent._root, parent)
        self._emit_into = parent
        self._width = width
        self._index = parent._root.unique(index)
        self._names = names
        self._bind(self._index, ScalarType("i64"))
        self.results: Tuple[str, ...] = ()

    @property
    def idx(self) -> SymExpr:
        """The thread index as a symbolic variable."""
        return SymExpr.var(self._index)

    def end(self) -> Tuple[str, ...]:
        lam = A.Lambda((self._index,), self._block())
        exp = A.Map(self._width, lam)
        self.results = self._emit_into.emit(exp, self._names)
        return self.results


class IfBuilder:
    """Builders for the two branches of an ``if``; emits on ``end()``."""

    def __init__(self, parent: BlockBuilder, cond: A.Operand, names):
        self._parent = parent
        self._cond = cond
        self._names = names
        self.then_builder = BlockBuilder(parent._root, parent)
        self.else_builder = BlockBuilder(parent._root, parent)
        self.results: Tuple[str, ...] = ()

    def end(self) -> Tuple[str, ...]:
        exp = A.If(
            self._cond,
            self.then_builder._block(),
            self.else_builder._block(),
        )
        self.results = self._parent.emit(exp, self._names)
        return self.results


class FunBuilder(BlockBuilder):
    """Top-level builder for a function."""

    def __init__(self, name: str):
        self._name = name
        self._counter = 0
        self._params: List[A.Param] = []
        self._assumptions: List[Tuple[str, str, SymExpr]] = []
        self._used_names: set = set()
        super().__init__(self, None)

    def fresh(self, prefix: str = "t") -> str:
        self._counter += 1
        name = f"{prefix}_{self._counter}"
        self._used_names.add(name)
        return name

    def unique(self, name: str) -> str:
        """Return ``name`` if unused, else a suffixed variant.

        Program-wide uniqueness keeps the (flow-insensitive) alias relation
        precise: reusing e.g. a loop-parameter name across two loops would
        merge their alias classes.
        """
        if name not in self._used_names:
            self._used_names.add(name)
            return name
        self._counter += 1
        fresh = f"{name}_{self._counter}"
        self._used_names.add(fresh)
        return fresh

    # ------------------------------------------------------------------
    # Interface declarations
    # ------------------------------------------------------------------
    def param(self, name: str, t: Type) -> str:
        self._used_names.add(name)
        # Shape variables are implicitly in scope as i64 scalars.
        if isinstance(t, ArrayType):
            for s in t.shape:
                for v in s.free_vars():
                    if v not in self._types:
                        self._bind(v, ScalarType("i64"))
        self._params.append(A.Param(name, t))
        self._bind(name, t)
        return name

    def size_param(self, name: str) -> SymExpr:
        """An i64 parameter used in shapes; returned as a symbolic var."""
        self.param(name, ScalarType("i64"))
        return SymExpr.var(name)

    def define(self, var: str, expr: ExprLike) -> None:
        """Dataset invariant: ``var == expr`` (e.g. NW's n = q*b + 1)."""
        self._assumptions.append(("define", var, sym(expr)))

    def assume_lower(self, var: str, lo: ExprLike) -> None:
        self._assumptions.append(("lower", var, sym(lo)))

    def assume_upper(self, var: str, hi: ExprLike) -> None:
        self._assumptions.append(("upper", var, sym(hi)))

    # ------------------------------------------------------------------
    def build(self, check: bool = True) -> A.Fun:
        fun = A.Fun(
            self._name, list(self._params), self._block(), tuple(self._assumptions)
        )
        if check:
            typecheck_fun(fun)
        return fun
