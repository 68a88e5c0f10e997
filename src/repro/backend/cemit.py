"""The native tier's printer: a kernel plan as one flat C function.

One outermost ``map`` statement -- its :class:`~repro.mem.kernel.Plan`
-- becomes one C function: the thread space is an explicit ``for`` loop,
LMAD index functions become inline affine address arithmetic, and a
fused kernel lowers to a genuinely single-loop body.  It mirrors the
interpreted executor in value semantics (every operator is its row of
:mod:`repro.ir.scalar`) and in accounting: every simulated counter the
interpreter would bump accumulates in a local ``c<k>`` per used slot,
flushed once at exit into the flat ``C`` array of per-site slots the
engine folds back into :class:`~repro.mem.stats.ExecStats`.

The entry point (ABI v5) runs the thread range ``[T0, W)``, so a launch
can be cut into contiguous parts (:func:`repro.backend.engine.fire`);
``W`` bounds the thread loop and is read nowhere else.  ``ia``, ``fa``,
``bufs`` and ``C`` are ``restrict``: four distinct allocations on every
call path (nothing is claimed about ``bufs[i]`` against ``bufs[j]``,
which alias in short-circuited kernels).

Printing is *launch-specialized but shape-generic*: it happens at the
first launch (which reveals each free array's index-function structure
and each free scalar's kind) and the function serves every later launch,
receiving widths, scalars and LMAD components as arguments -- except
components that are integers in the array's declared binding, printed
as literals and checked per launch by the engine.  A construct this
launch gives no C form raises :class:`~repro.decisions.Declined` under a
rule of :data:`repro.mem.kernel.RULES`, and the statement falls back to
the vectorized tier for good.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.symbolic import SymExpr

from repro.ir import ast as A
from repro.ir import scalar
from repro.ir.interp import InterpError
from repro.ir.types import DTYPE_INFO
from repro.mem.kernel import Block, Plan, declined, elision_guard, label
from repro.mem.memir import array_bindings, binding_of

#: Counter slots per site: [entered, bytes_read, bytes_written, flops,
#: elided_copies, elided_bytes, local_read, local_written].  Slots 6-7
#: attribute the part of slots 1/2 that touched a kernel-local block
#: (an ``("alloc", ...)`` buffer); they are duplicates of, not additions
#: to, the totals.
SLOTS = 8

#: Bump when the emitted ABI or counter layout changes (part of the
#: on-disk cache key).
ABI_VERSION = 5

_CTYPE = {"i64": "long long", "f32": "float", "f64": "double", "bool": "char"}


@dataclass
class SVal:
    """A scalar value: a C expression plus its interpreter-side type.

    ``weak`` distinguishes Python ints/floats (NEP-50 weak scalars, which
    adopt the other operand's precision) from typed NumPy scalars.
    ``mutable`` marks loop-carried C locals, whose value at view-creation
    time must be *captured* rather than referenced (the interpreter
    instantiates index functions at binding time).
    """

    c: str
    dtype: str
    weak: bool = False
    mutable: bool = False
    scope: int = 0


@dataclass
class CLmad:
    """One LMAD with C-expression components (element units)."""

    offset: str
    dims: List[Tuple[str, str]]  # (shape, stride)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class MemObj:
    """A memory block at emission time: buffer slot + element base.

    ``base`` emulates the interpreter's per-execution *unique* blocks for
    in-kernel allocations: each (thread, enclosing-iteration) tuple gets
    a disjoint slot of one flat per-launch buffer, so two views alias
    exactly when their (buffer, base) pairs coincide -- the same identity
    the interpreter's unique block names express.
    """

    buf: int
    base: str = "0"
    scope: int = 0

    def same(self, other: "MemObj") -> bool:
        return self.buf == other.buf and self.base == other.base


@dataclass
class CArr:
    """An array view: memory object + C-expression index function."""

    mem: MemObj
    dtype: str
    lmads: List[CLmad]
    scope: int = 0

    @property
    def itemsize(self) -> int:
        return DTYPE_INFO[self.dtype][1]

    @property
    def inner(self) -> CLmad:
        return self.lmads[-1]


@dataclass
class KernelSpec:
    """Everything the engine needs to launch one compiled kernel."""

    source: str
    #: Ordered int-argument directives; see _Emitter._int_arg for kinds.
    int_dirs: List[tuple]
    #: Ordered float-argument directives.
    flt_dirs: List[tuple]
    #: Ordered buffer directives ("arr" | "mem" | "alloc").
    buf_dirs: List[tuple]
    #: Per in-kernel-alloc site: (static name, size expr, enclosing
    #: count exprs, dtype).
    alloc_sites: List[tuple]
    #: Per counter-site: (kind, label); site 0 is the launch.
    sites: Tuple[Tuple[str, str], ...]
    #: Positions of the buffer arguments the body stores into.
    writes: frozenset = frozenset()
    fn: object = None  # ctypes function, attached by the builder
    digest: str = ""
    #: Counted bytes (slots 1 and 2, every site) per thread of the
    #: first launch; ``None`` until that launch has run.
    per_thread: Optional[float] = None
    #: The most parts any launch ran in (1: never split).
    parts: int = 1


# ----------------------------------------------------------------------
def _c_int(v: int) -> str:
    return f"({v}LL)"


def _c_lit(value, dtype: str) -> str:
    if dtype == "i64":
        return _c_int(int(value))
    if dtype == "bool":
        return "1" if value else "0"
    d = float(np.float32(value) if dtype == "f32" else value)
    if not np.isfinite(d):
        raise declined("unsupported", "non-finite literal")
    return f"((float){d!r})" if dtype == "f32" else f"({d!r})"


# Index arithmetic: integer literals are folded here (so C never does
# literal-by-literal ``int`` arithmetic: every operation left has a
# ``long long`` operand) and parentheses go only where precedence needs.
_ATOM = re.compile(r"\w+(\[\d+\])?|-\d+")
_INT = re.compile(r"-?\d+")


def _p(e: str) -> str:
    """``e`` as an operand of ``*`` or ``%``."""
    return e if _ATOM.fullmatch(e) else f"({e})"


def _mul(*factors: str) -> str:
    const = math.prod(int(f) for f in factors if _INT.fullmatch(f))
    rest = [f for f in factors if not _INT.fullmatch(f)]
    if const == 0 or not rest:
        return str(const)
    if const == -1:
        return "-" + "*".join(map(_p, rest))
    if const != 1:
        rest.insert(0, str(const))
    return rest[0] if len(rest) == 1 else "*".join(map(_p, rest))


def _add(*terms: str) -> str:
    const = sum(int(t) for t in terms if _INT.fullmatch(t))
    rest = [t for t in terms if not _INT.fullmatch(t)]
    if const or not rest:
        rest.append(str(const))
    return " + ".join(rest).replace("+ -", "- ")


def components(ixfn) -> Iterator[SymExpr]:
    """An index function's components in ``"arrcomp"`` order: per LMAD
    the offset, then ``shape, stride`` per dimension."""
    for l in ixfn.lmads:
        yield l.offset
        for d in l.dims:
            yield d.shape
            yield d.stride


class _Emitter:
    """One kernel emission (first launch of one outermost map)."""

    def __init__(self, ex, env):
        self.ex = ex
        self.env = env  # host environment at the launch site
        self.lines: List[str] = []
        self.indent = 1
        self.tmp = 0
        self.int_dirs: List[tuple] = []
        self.flt_dirs: List[tuple] = []
        self.buf_dirs: List[tuple] = []
        self.writes: set = set()
        self.alloc_sites: List[tuple] = []
        #: ``(kind, label)`` of every counter site -> its row index.
        self.sites: Dict[Tuple[str, str], int] = {}
        #: Every array's declared binding (see ``_arg_array``).
        self.bindings = array_bindings(ex.fun)
        #: Counter slots the body bumps, each through a local ``c<k>``.
        self.counters: set = set()
        #: What the body calls of ``scalar.PRELUDE``.
        self.calls: set = set()
        self._int_slots: Dict[tuple, object] = {}
        #: Expanded width of ``ia`` so far (an "arrcomp" directive
        #: expands to 1 + 2*rank integers per LMAD).
        self._int_width = 0
        self._flt_slots: Dict[tuple, int] = {}
        self._buf_slots: Dict[tuple, int] = {}
        #: Stack of open lexical scopes (ids); values created in a scope
        #: are usable only while it is open.
        self._scopes: List[int] = [0]
        self._scope_seq = 0
        #: Per-open-block pending constant counter increments,
        #: (site, slot) -> int, flushed when the block closes.
        self._pending: List[Dict[Tuple[int, int], int]] = [{}]
        #: Enclosing (count C expression, index var, count) triples for
        #: in-kernel allocations (thread loop, sequential loops, nested
        #: maps).
        self._alloc_path: List[Tuple[str, str, SymExpr]] = []

    # -- C text helpers -------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str = "v") -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def open_block(self, header: str) -> None:
        self.emit(header + " {")
        self.indent += 1
        self._scope_seq += 1
        self._scopes.append(self._scope_seq)
        self._pending.append({})

    def close_block(self) -> None:
        self._flush_pending()
        self._scopes.pop()
        self.indent -= 1
        self.emit("}")

    def _flush_pending(self) -> None:
        pend = self._pending.pop()
        for (site, slot), n in sorted(pend.items()):
            if n:
                self.charge(site, slot, str(n))

    def pend(self, site: int, slot: int, n: int = 1) -> None:
        key = (site, slot)
        self._pending[-1][key] = self._pending[-1].get(key, 0) + n

    def charge(self, site: int, slot: int, expr: str) -> None:
        k = site * SLOTS + slot
        self.counters.add(k)
        self.emit(f"c{k} += {expr};")

    def charge_rw(self, site: int, mem: MemObj, write: bool, n) -> None:
        """A read or write of ``n`` bytes -- pended when a constant --
        also charged to a local slot when the buffer is kernel-local."""
        slots = [2 if write else 1]
        if write:
            self.writes.add(mem.buf)
        if self.buf_dirs[mem.buf][0] == "alloc":
            slots.append(7 if write else 6)
        for slot in slots:
            if isinstance(n, int):
                self.pend(site, slot, n)
            else:
                self.charge(site, slot, n)

    def check_scope(self, *ids: int) -> None:
        for s in ids:
            if s not in self._scopes:
                raise declined("unsupported", "value escapes its C scope")

    @property
    def cur_scope(self) -> int:
        return self._scopes[-1]

    # -- argument slots -------------------------------------------------
    def _host_scalar(self, name: str) -> SVal:
        """A free host scalar as an argument-backed SVal."""
        if name not in self.env:
            raise declined("unsupported", f"unbound variable {name!r}")
        try:
            dtype, weak = kind = scalar.kind_of(self.env[name])
        except TypeError:
            raise declined(
                "unsupported", f"unsupported free value for {name!r}"
            ) from None
        if dtype in ("i64", "bool"):
            key = ("env", name)
            slot = self._int_slots.get(key)
            if slot is None:
                slot = self._int_width
                self._int_width += 1
                self.int_dirs.append(("env", name, kind))
                self._int_slots[key] = slot
            c = f"ia[{slot}]" if dtype == "i64" else f"((char)ia[{slot}])"
        else:
            key = ("fenv", name)
            slot = self._flt_slots.get(key)
            if slot is None:
                slot = len(self.flt_dirs)
                self.flt_dirs.append(("env", name, kind))
                self._flt_slots[key] = slot
            c = f"((float)fa[{slot}])" if dtype == "f32" else f"fa[{slot}]"
        return SVal(c, dtype, weak=weak, scope=0)

    def _arg_array(self, source: tuple, ra, static) -> CArr:
        """A launch-concrete array (free array or dest) as arguments.

        A component that is a constant of the memory IR -- of ``static``,
        the array's declared binding, not merely of this launch -- is
        printed as a literal; the directive records it and the engine
        declines any launch whose value differs."""
        ranks = tuple(len(l.dims) for l in ra.ixfn.lmads)
        key = ("arr", source)
        ent = self._int_slots.get(key)
        if ent is None:
            bslot = len(self.buf_dirs)
            self.buf_dirs.append(("arr", source))
            base = self._int_width
            self._int_width += sum(1 + 2 * r for r in ranks)
            lits = (None,) * (self._int_width - base)
            if static is not None and ranks == tuple(
                len(l.dims) for l in static.ixfn.lmads
            ):
                lits = tuple(c.as_int() for c in components(static.ixfn))
            self.int_dirs.append(("arrcomp", source, ranks, ra.dtype, lits))
            ent = (bslot, base, ranks, ra.dtype, lits)
            self._int_slots[key] = ent
        bslot, base, eranks, edtype, lits = ent
        if eranks != ranks or edtype != ra.dtype:
            raise declined("unsupported", "inconsistent array structure at emission")
        # One "arrcomp" directive expands to 1 + 2*rank ints per LMAD, in
        # ``components`` order; literal positions keep their (unread) slot.
        comps = iter(
            f"ia[{base + k}]" if lit is None else str(lit)
            for k, lit in enumerate(lits)
        )
        lmads = [
            CLmad(next(comps), [(next(comps), next(comps)) for _ in range(r)])
            for r in ranks
        ]
        return CArr(MemObj(bslot, "0", 0), ra.dtype, lmads, scope=0)

    def _host_mem(self, name: str) -> Optional[str]:
        """The host-level block ``name`` resolves to at this launch."""
        try:
            return self.ex._resolve_mem(name, self.env)
        except InterpError:
            return None

    def _mem_buf(self, name: str) -> int:
        key = ("mem", name)
        slot = self._buf_slots.get(key)
        if slot is None:
            slot = len(self.buf_dirs)
            self.buf_dirs.append(("mem", name))
            self._buf_slots[key] = slot
        return slot

    def site_of(self, stmt: A.Let) -> int:
        """Counter row of a ``map`` statement, keyed as the executor keys
        its :class:`~repro.mem.stats.KernelStat`."""
        return self.sites.setdefault(("map", label(stmt)), len(self.sites))

    # -- symbolic expressions ------------------------------------------
    def sym_c(self, expr: SymExpr, scope: Dict[str, object],
              capture: Optional[Dict[str, str]] = None) -> str:
        """A SymExpr as a long long C expression.

        Variables resolve through the kernel ``scope`` (integer SVals)
        and then the host environment (argument slots).  With
        ``capture``, mutable locals are snapshotted into fresh immutable
        locals first -- index functions are instantiated at binding
        time, not at use time.
        """
        if not isinstance(expr, SymExpr):
            return str(int(expr))

        def var_ref(v: str) -> str:
            sv = scope.get(v)
            if sv is None:
                sv = self._host_scalar(v)
            if not isinstance(sv, SVal) or sv.dtype not in ("i64", "bool"):
                raise declined(
                    "unsupported", f"non-integer variable {v!r} in index expression"
                )
            self.check_scope(sv.scope)
            c = sv.c if sv.dtype == "i64" else f"((long long)({sv.c}))"
            if sv.mutable and capture is not None:
                cap = capture.get(v)
                if cap is None:
                    cap = self.fresh("cap")
                    self.emit(f"long long {cap} = {c};")
                    capture[v] = cap
                return cap
            return c

        parts = []
        for mono, coeff in sorted(
            expr.terms.items(), key=lambda kv: str(kv[0])
        ):
            parts.append(_mul(
                str(coeff), *(var_ref(v) for v, p in mono for _ in range(p))
            ))
        return _add(*parts)

    # -- views ----------------------------------------------------------
    def view_from_binding(self, pe, scope, memenv) -> CArr:
        b = binding_of(pe)
        return self.view_of(b.mem, b.ixfn, pe.type.dtype, scope, memenv)

    def resolve_memobj(self, mem: str, scope, memenv) -> MemObj:
        obj = memenv.get(mem)
        if obj is None:
            sv = scope.get(mem)
            if isinstance(sv, MemObj):
                obj = sv
        if obj is None:
            # A host-level block: resolvable through the launch env at
            # every launch (the resolved name may differ per launch).
            if self._host_mem(mem) is None:
                raise declined("unsupported", f"unresolvable memory {mem!r}")
            obj = MemObj(self._mem_buf(mem), "0", 0)
        self.check_scope(obj.scope)
        return obj

    def view_of(self, mem: str, ixfn, dtype: str, scope, memenv) -> CArr:
        obj = self.resolve_memobj(mem, scope, memenv)
        capture: Dict[str, str] = {}
        lmads = []
        for l in ixfn.lmads:
            off = self.sym_c(l.offset, scope, capture)
            dims = [
                (self.sym_c(d.shape, scope, capture),
                 self.sym_c(d.stride, scope, capture))
                for d in l.dims
            ]
            lmads.append(CLmad(off, dims))
        return CArr(obj, dtype, lmads, scope=self.cur_scope)

    # -- addressing -----------------------------------------------------
    def size_c(self, arr: CArr) -> str:
        """Element count of the visible (inner) region, as a C local."""
        expr = _mul(*(s for s, _ in arr.inner.dims))
        n = self.fresh("sz")
        self.emit(f"long long {n} = {expr};")
        return n

    def _through_outers(self, arr: CArr, flat: str) -> str:
        """Unrank a flat inner offset through the outer LMADs (C order),
        mirroring ``IndexFn.apply_concrete``."""
        off = flat
        for l in reversed(arr.lmads[:-1]):
            off = self._unrank(l, off)
        return off

    def _unrank(self, l: CLmad, flat: str) -> str:
        """Offset ``l`` gives flat element ``flat`` (C order of its shape)."""
        if l.rank == 1:  # one coordinate: the flat index itself
            return self._bind_offset(l, [flat])
        r = self.fresh("r")
        self.emit(f"long long {r} = {flat};")
        coords = []
        for shp, _ in reversed(l.dims):
            c = self.fresh("x")
            self.emit(f"long long {c} = {r} % {_p(shp)}; {r} /= {_p(shp)};")
            coords.append(c)
        coords.reverse()
        return self._bind_offset(l, coords)

    def _bind_offset(self, l: CLmad, idx: List[str]) -> str:
        o = self.fresh("o")
        terms = [_mul(i, st) for i, (_, st) in zip(idx, l.dims)]
        self.emit(f"long long {o} = {_add(l.offset, *terms)};")
        return o

    def point_offset(self, arr: CArr, idx: List[str]) -> str:
        if len(idx) != arr.inner.rank:
            raise declined("unsupported", "index rank mismatch")
        return self._through_outers(arr, self._bind_offset(arr.inner, idx))

    def elem_offset(self, arr: CArr, e: str) -> str:
        """Offset of flat element ``e`` in C order of the visible shape."""
        return self._through_outers(arr, self._unrank(arr.inner, e))

    def addr(self, arr: CArr, off: str) -> str:
        return (
            f"*({_CTYPE[arr.dtype]}*)(bufs[{arr.mem.buf}] + "
            f"{_mul(str(arr.itemsize), _add(arr.mem.base, off))})"
        )

    # -- scalar semantics ----------------------------------------------
    def cast(self, v: SVal, dtype: str) -> str:
        if v.dtype == dtype:
            return v.c
        return f"(({_CTYPE[dtype]})({v.c}))"

    def _bind_local(self, expr: str, dtype: str, weak: bool) -> SVal:
        n = self.fresh()
        self.emit(f"{_CTYPE[dtype]} {n} = {expr};")
        return SVal(n, dtype, weak=weak, scope=self.cur_scope)

    def apply(self, op: str, *args: SVal) -> SVal:
        """One row of the operator table, as C."""
        row = scalar.OPS[op]
        kinds = [(a.dtype, a.weak) for a in args]
        dtype, kind = scalar.op_typing(op, *kinds)
        if kind is None:
            raise declined("unsupported", f"{op} of a boolean")
        binary = len(args) == 2
        template = row.c_form(dtype if binary else kind[0], len(set(kinds)) > 1)
        if template is None:
            raise declined("not-bit-exact", row.no_c)
        self.calls.update(c for c in scalar.PRELUDE if c in template)
        cs = [self.cast(a, dtype) if binary and dtype else a.c for a in args]
        return self._bind_local(template.format(**dict(zip("xy", cs))), *kind)

    def operand(self, op, scope) -> SVal:
        if isinstance(op, str):
            sv = scope.get(op)
            if sv is None:
                return self._host_scalar(op)
            self.check_scope(sv.scope)
            return sv
        if isinstance(op, SymExpr):
            k = op.as_int()  # a bare literal would do ``int`` arithmetic
            c = _p(self.sym_c(op, scope)) if k is None else _c_int(k)
            return SVal(c, "i64", weak=True)
        if isinstance(op, bool):
            return SVal("1" if op else "0", "bool", weak=True)
        if isinstance(op, int):
            return SVal(_c_int(op), "i64", weak=True)
        if isinstance(op, float):
            return SVal(_c_lit(op, "f64"), "f64", weak=True)
        raise declined("unsupported", f"unsupported operand {op!r}")

    # -- statements -----------------------------------------------------
    def value_of(self, name: str, scope, memenv):
        v = scope.get(name)
        if v is not None:
            return v
        v = memenv.get(name)
        if v is not None:
            return v
        hv = self.env.get(name)
        from repro.mem.exec import RuntimeArray

        if isinstance(hv, RuntimeArray):
            return self._arg_array(
                ("env", name), hv, self.bindings.get(name)
            )
        if hv is None:
            raise declined("unsupported", f"unbound variable {name!r}")
        return self._host_scalar(name)

    def array_value(self, name: str, scope, memenv) -> CArr:
        arr = self.value_of(name, scope, memenv)
        self.check_scope(arr.scope, arr.mem.scope)
        return arr

    def relaid(self, arr: CArr, offset: str, dims) -> CArr:
        """``arr`` with another inner LMAD."""
        return CArr(
            arr.mem, arr.dtype, list(arr.lmads[:-1]) + [CLmad(offset, dims)],
            scope=self.cur_scope,
        )

    def fix0(self, arr: CArr, idx: str) -> CArr:
        inner = arr.inner
        if inner.rank < 1:
            raise declined("unsupported", "fixing a dimension of a rank-0 view")
        return self.relaid(
            arr, _add(inner.offset, _mul(idx, inner.dims[0][1])), inner.dims[1:]
        )

    def emit_block(self, block: Block, scope, memenv, site: int):
        if block.flops:
            self.pend(site, 3, block.flops)
        for node in block.nodes:
            getattr(self, "_" + node.kind)(node, scope, memenv, site)
        return [self.value_of(r, scope, memenv) for r in block.result]

    def _lit(self, node, scope, memenv, site) -> None:
        exp = node.exp
        scope[node.stmt.names[0]] = SVal(
            _c_lit(exp.value, exp.dtype), exp.dtype, weak=False
        )

    def _sym(self, node, scope, memenv, site) -> None:
        n = self.fresh()
        self.emit(f"long long {n} = {self.sym_c(node.exp.expr, scope)};")
        scope[node.stmt.names[0]] = SVal(n, "i64", weak=True, scope=self.cur_scope)

    def _op(self, node, scope, memenv, site) -> None:
        exp = node.exp
        args = (exp.x, exp.y) if isinstance(exp, A.BinOp) else (exp.x,)
        scope[node.stmt.names[0]] = self.apply(
            exp.op, *(self.operand(a, scope) for a in args)
        )

    def _alias(self, node, scope, memenv, site) -> None:
        scope[node.stmt.names[0]] = self.value_of(node.exp.name, scope, memenv)

    def _view(self, node, scope, memenv, site) -> None:
        # A change of layout or uninitialized scratch: the (possibly
        # rebased) annotation is authoritative; no data moves (the fresh
        # zeroed alloc buffer already matches the interpreter's
        # deterministic "uninitialized" contents).
        pe = node.stmt.pattern[0]
        scope[pe.name] = self.view_from_binding(pe, scope, memenv)

    def _fill(self, node, scope, memenv, site) -> None:
        exp, pe = node.exp, node.stmt.pattern[0]
        dest = self.view_from_binding(pe, scope, memenv)
        sz = self.size_c(dest)
        self.charge_rw(site, dest.mem, True, f"{sz}*{dest.itemsize}")
        val = None if isinstance(exp, A.Iota) else self.operand(exp.value, scope)
        ev = self.fresh("e")
        self.open_block(f"for (long long {ev} = 0; {ev} < {sz}; {ev}++)")
        off = self.elem_offset(dest, ev)
        src = ev if val is None else val.c
        self.emit(f"{self.addr(dest, off)} = ({_CTYPE[dest.dtype]})({src});")
        self.close_block()
        scope[pe.name] = dest

    def _copy(self, node, scope, memenv, site) -> None:
        src = self.array_value(node.exp.src, scope, memenv)
        pe = node.stmt.pattern[0]
        dest = self.view_from_binding(pe, scope, memenv)
        self.emit_copy(src, dest, site)
        scope[pe.name] = dest

    def _concat(self, node, scope, memenv, site) -> None:
        pe = node.stmt.pattern[0]
        dest = self.view_from_binding(pe, scope, memenv)
        inner = dest.inner
        if inner.rank < 1:
            raise declined("unsupported", "concat into a rank-0 view")
        co = self.fresh("co")
        self.emit(f"long long {co} = 0;")
        for s in node.exp.srcs:
            src = self.array_value(s, scope, memenv)
            if src.inner.rank < 1:
                raise declined("unsupported", "concat of a rank-0 view")
            rows = self.fresh("rw")
            self.emit(f"long long {rows} = {src.inner.dims[0][0]};")
            region = self.relaid(
                dest, _add(inner.offset, _mul(co, inner.dims[0][1])),
                [(rows, inner.dims[0][1])] + list(inner.dims[1:]),
            )
            self.emit_copy(src, region, site)
            self.emit(f"{co} += {rows};")
        scope[pe.name] = dest

    def _read(self, node, scope, memenv, site) -> None:
        exp = node.exp
        src = self.array_value(exp.src, scope, memenv)
        idx = [self.sym_c(i, scope) for i in exp.indices]
        self.charge_rw(site, src.mem, False, src.itemsize)
        off = self.point_offset(src, idx)
        n = self.fresh()
        self.emit(f"{_CTYPE[src.dtype]} {n} = {self.addr(src, off)};")
        scope[node.stmt.names[0]] = SVal(
            n, src.dtype, weak=False, scope=self.cur_scope
        )

    # -- copies ---------------------------------------------------------
    def emit_copy(self, src: CArr, dst: CArr, site: int) -> None:
        """A copy behind its elision guard, tested at run time (concrete
        index functions compare componentwise)."""
        self.check_scope(src.scope, src.mem.scope, dst.scope, dst.mem.scope)
        ssz, dsz = self.size_c(src), self.size_c(dst)
        snb = f"{ssz}*{src.itemsize}"
        dnb = f"{dsz}*{dst.itemsize}"
        pairs = elision_guard(
            [(l.offset, l.dims) for l in src.lmads],
            [(l.offset, l.dims) for l in dst.lmads],
        )
        if pairs is not None:
            pairs[:0] = [
                (f"bufs[{src.mem.buf}]", f"bufs[{dst.mem.buf}]"),
                (src.mem.base, dst.mem.base),
            ]
            # Textually equal sides are equal values: nothing to test.
            conds = [f"{a} == {b}" for a, b in pairs if a != b]
            el = self.fresh("el")
            self.emit(f"char {el} = {' && '.join(conds) or '1'};")
            self.open_block(f"if ({el})")
            self.charge(site, 4, "1")
            self.charge(site, 5, f"{snb} + {dnb}")
            self.close_block()
            self.open_block("else")
        self.charge_rw(site, src.mem, False, snb)
        self.charge_rw(site, dst.mem, True, dnb)
        ev = self.fresh("e")
        self.open_block(f"for (long long {ev} = 0; {ev} < {dsz}; {ev}++)")
        soff = self.elem_offset(src, ev)
        doff = self.elem_offset(dst, ev)
        self.emit(f"{self.addr(dst, doff)} = {self.addr(src, soff)};")
        self.close_block()
        if pairs is not None:
            self.close_block()

    # -- allocation -----------------------------------------------------
    def _alloc(self, node, scope, memenv, site) -> None:
        """One disjoint slot of a per-launch buffer per dynamic execution
        (thread index, then enclosing iteration indices), emulating the
        interpreter's fresh block per execution; ``native_rule`` has
        made sure every count is launch-evaluable."""
        exp, name = node.exp, node.stmt.names[0]
        site_idx = len(self.alloc_sites)
        bslot = len(self.buf_dirs)
        self.buf_dirs.append(("alloc", site_idx))
        self.alloc_sites.append((
            name, exp.size, tuple(e[2] for e in self._alloc_path), exp.dtype,
        ))
        slot = "0"
        for cnt_c, idx, _ in self._alloc_path:
            slot = _add(_mul(slot, cnt_c), idx)
        base = self.fresh("ab")
        self.emit(
            f"long long {base} = {_mul(slot, self.sym_c(exp.size, scope))};"
        )
        memenv[name] = MemObj(bslot, base, self.cur_scope)

    # -- compound statements --------------------------------------------
    def _update(self, node, scope, memenv, site) -> None:
        exp, pe = node.exp, node.stmt.pattern[0]
        result = self.view_from_binding(pe, scope, memenv)
        spec = exp.spec
        if isinstance(spec, A.PointSpec):
            idx = [self.sym_c(i, scope) for i in spec.indices]
            self.charge_rw(site, result.mem, True, result.itemsize)
            off = self.point_offset(result, idx)
            val = self.operand(exp.value, scope)
            self.emit(
                f"{self.addr(result, off)} = "
                f"({_CTYPE[result.dtype]})({val.c});"
            )
        else:  # a triplet slice (native_rule declines LMAD specs)
            inner = result.inner
            if len(spec.triplets) != inner.rank:
                raise declined("unsupported", "triplet rank mismatch")
            off_terms = [inner.offset]
            dims = []
            for (a, b, c), (_, st) in zip(spec.triplets, inner.dims):
                off_terms.append(_mul(self.sym_c(a, scope), st))
                dims.append(
                    (self.sym_c(b, scope), _mul(self.sym_c(c, scope), st))
                )
            region = self.relaid(result, _add(*off_terms), dims)
            value = self.array_value(exp.value, scope, memenv)
            self.emit_copy(value, region, site)
        scope[pe.name] = result

    def _map(self, node, scope, memenv, site) -> None:
        stmt, exp = node.stmt, node.exp
        nsite = self.site_of(stmt)
        # The statement's execution (not its threads) creates the kernel
        # stat, width 0 included -- counted in the *enclosing* block.
        self.pend(nsite, 0, 1)
        dests = [
            self.view_from_binding(pe, scope, memenv) if pe.is_array()
            else None
            for pe in stmt.pattern
        ]
        wvar = self.fresh("w")
        self.emit(f"long long {wvar} = {self.sym_c(exp.width, scope)};")
        ivar = self.fresh("i")
        self._alloc_path.append((wvar, ivar, exp.width))
        self.open_block(f"for (long long {ivar} = 0; {ivar} < {wvar}; {ivar}++)")
        child = dict(scope)
        child[exp.lam.params[0]] = SVal(
            ivar, "i64", weak=True, scope=self.cur_scope
        )
        vals = self.emit_block(node.blocks[0], child, memenv, nsite)
        self._write_map_results(dests, vals, ivar, nsite)
        self.close_block()
        self._alloc_path.pop()
        for pe, dest in zip(stmt.pattern, dests):
            if dest is not None:
                scope[pe.name] = dest

    def _write_map_results(self, dests, vals, ivar, site) -> None:
        for dest, val in zip(dests, vals):
            if dest is None:
                continue
            region = self.fix0(dest, ivar)
            if isinstance(val, CArr):
                self.emit_copy(val, region, site)
                continue
            self.charge_rw(site, dest.mem, True, dest.itemsize)
            off = self.point_offset(region, ["0"] * region.inner.rank)
            self.emit(
                f"{self.addr(region, off)} = "
                f"({_CTYPE[dest.dtype]})({val.c});"
            )

    def _loop(self, node, scope, memenv, site) -> None:
        exp = node.exp
        cnt = self.fresh("n")
        self.emit(f"long long {cnt} = {self.sym_c(exp.count, scope)};")
        carried = []
        for (prm, b, _), (_, initname) in zip(node.params, exp.carried):
            val = self.value_of(initname, scope, memenv)
            if prm.is_array():
                self.check_scope(val.scope, val.mem.scope)
                # Mirrors the interpreter: the param binding's memory
                # rebinds to the carried value's block unless it already
                # names a host-level block.
                carried.append((prm, val, b, b is None or b.mem not in self.ex.mem))
                continue
            cvar = self.fresh("s")
            self.emit(f"{_CTYPE[val.dtype]} {cvar} = {val.c};")
            sv = SVal(cvar, val.dtype, val.weak, mutable=True, scope=self.cur_scope)
            carried.append((prm, sv, None, False))
        idxv = self.fresh("q")
        self._alloc_path.append((cnt, idxv, exp.count))
        self.open_block(f"for (long long {idxv} = 0; {idxv} < {cnt}; {idxv}++)")
        child = dict(scope)
        child[exp.index] = SVal(idxv, "i64", weak=True, scope=self.cur_scope)
        for prm, v, b, rebind in carried:
            if b is None:
                child[prm.name] = v
                continue
            if rebind:
                child[b.mem] = v.mem
            child[prm.name] = self.view_of(b.mem, b.ixfn, prm.type.dtype, child, memenv)
        vals = self.emit_block(node.blocks[0], child, memenv, site)
        upds = []
        for (prm, v, b, rebind), nv in zip(carried, vals):
            if isinstance(v, SVal):
                if nv.dtype != v.dtype or nv.weak != v.weak:
                    raise declined("unsupported", "loop-carried scalar changes type")
                t = self.fresh("t")
                self.emit(f"{_CTYPE[v.dtype]} {t} = {nv.c};")
                upds.append((v.c, t))
            elif rebind and not nv.mem.same(v.mem):
                # Fixpoint requirement: the carried block must not rotate
                # across iterations (in-place update chains satisfy this;
                # in-kernel double-buffering falls back to vectorized).
                raise declined("unsupported", "loop-carried array changes blocks")
        for cvar, t in upds:
            self.emit(f"{cvar} = {t};")
        self.close_block()
        self._alloc_path.pop()
        # Final state: scalars live in their C locals; arrays re-derive
        # from the pattern bindings (or carry just their block identity).
        finals = [
            v if isinstance(v, SVal) else nv
            for (_, v, _, _), nv in zip(carried, vals)
        ]
        finals.extend(vals[len(carried):])
        self._bind_results(node.results, finals, scope, memenv)

    def _bind_results(self, results, vals, scope, memenv) -> None:
        """Scalars (existential blocks among them) first, then arrays,
        through what those bound."""
        for (_, pe, _), val in zip(results, vals):
            if not pe.is_array():
                scope[pe.name] = val
        for (_, pe, exist), val in zip(results, vals):
            if pe.is_array() and pe.mem is None:
                scope[pe.name] = val
            elif pe.is_array():
                if exist is not None and not self._host_mem(exist):
                    # An existential block binds to wherever the value is.
                    self.check_scope(val.mem.scope)
                    memenv[exist] = val.mem
                scope[pe.name] = self.view_from_binding(pe, scope, memenv)

    def _if(self, node, scope, memenv, site) -> None:
        exp = node.exp
        cond = self.operand(exp.cond, scope)
        mark = len(self.lines)
        decl_indent = "    " * self.indent
        self.open_block(f"if ({cond.c})")
        tvals = self.emit_block(node.blocks[0], dict(scope), memenv, site)
        temps = [self.fresh("r") for _ in tvals]
        for t, v in zip(temps, tvals):
            self.emit(f"{t} = {v.c};")
        self.close_block()
        self.open_block("else")
        evals = self.emit_block(node.blocks[1], dict(scope), memenv, site)
        for v, tv in zip(evals, tvals):
            if v.dtype != tv.dtype or v.weak != tv.weak:
                raise declined("unsupported", "if branches disagree on result type")
        for t, v in zip(temps, evals):
            self.emit(f"{t} = {v.c};")
        self.close_block()
        self.lines[mark:mark] = [
            f"{decl_indent}{_CTYPE[v.dtype]} {t};"
            for t, v in zip(temps, tvals)
        ]
        results = [
            SVal(t, v.dtype, v.weak, mutable=True, scope=self.cur_scope)
            for t, v in zip(temps, tvals)
        ]
        self._bind_results(node.results, results, scope, memenv)


# ----------------------------------------------------------------------
def emit_kernel(ex, plan: Plan, env, dests) -> KernelSpec:
    """Print one outermost map's plan as a complete C translation unit.

    ``env``/``dests`` come from the statement's *first* launch; structure
    derived from them (index-function ranks, scalar kinds) is validated
    against every later launch by the engine.  Raises
    :class:`~repro.decisions.Declined` where the launch gives a construct
    no C form (:func:`~repro.mem.kernel.native_rule` has declined what no
    launch could).
    """
    stmt, exp = plan.stmt, plan.stmt.exp
    em = _Emitter(ex, env)
    em.site_of(stmt)  # site 0
    dest_arrs = [
        em._arg_array(("dest", k), d, binding_of(stmt.pattern[k]))
        if d is not None else None
        for k, d in enumerate(dests)
    ]
    em._alloc_path.append(("W", "t", exp.width))
    em.open_block("for (long long t = T0; t < W; t++)")
    scope = {
        exp.lam.params[0]: SVal("t", "i64", weak=True, scope=em.cur_scope)
    }
    memenv: Dict[str, MemObj] = {}
    vals = em.emit_block(plan.root, scope, memenv, 0)
    em._write_map_results(dest_arrs, vals, "t", 0)
    em.close_block()
    body = "\n".join(em.lines)
    # A part of the thread range sees the whole launch's allocation
    # slots only if nothing but the loop bound reads W (``_alloc`` folds
    # the thread level's ``0*W`` away: slots are indexed by t).
    assert len(re.findall(r"\bW\b", body)) == 1, body
    prelude = dict.fromkeys(
        text for call, text in scalar.PRELUDE.items() if call in em.calls
    )
    used = sorted(em.counters)
    source = (
        f"/* repro kernel, ABI v{ABI_VERSION} */\n"
        f"{''.join(prelude)}"
        "void repro_kernel(long long T0, long long W, "
        "const long long* restrict ia, "
        "const double* restrict fa, char** restrict bufs, "
        "long long* restrict C) {\n"
        + "".join(f"    long long c{k} = 0;\n" for k in used)
        + f"{body}\n"
        + "".join(f"    C[{k}] += c{k};\n" for k in used)
        + "}\n"
    )
    return KernelSpec(
        source=source,
        int_dirs=em.int_dirs,
        flt_dirs=em.flt_dirs,
        buf_dirs=em.buf_dirs,
        alloc_sites=em.alloc_sites,
        sites=tuple(em.sites),
        writes=frozenset(em.writes),
    )
