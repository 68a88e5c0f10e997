"""AST of the core array IR (administrative normal form).

A program (:class:`Fun`) is a parameter list plus a :class:`Block`.  A block
is a sequence of :class:`Let` statements and a tuple of result variable
names.  Each ``Let`` binds a *pattern* (list of :class:`PatElem`) to exactly
one expression; expression operands are variable names, literals, or
symbolic integer expressions (:class:`repro.symbolic.SymExpr`) over scalar
``i64`` variables -- the latter mirrors how a real compiler keeps index
arithmetic transparent to the analyses.

Memory is *not* part of the language semantics: every binder -- a pattern
element or a loop parameter, both :class:`PatElem` -- carries an optional
``mem`` annotation (filled in by :mod:`repro.mem.introduce`) that can be
deleted without changing the meaning of the program (paper section I, "the
memory information can be seen as an add-on to the IR").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import (
    Any, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from repro.decisions import Declined
from repro.lmad.lmad import Lmad
from repro.symbolic import SymExpr, sym

from repro.ir.types import ArrayType, Type

#: Operand of a scalar expression: a variable name, a literal, or a
#: symbolic integer expression over i64 variables.
Operand = Union[str, int, float, bool, SymExpr]


# ======================================================================
# Patterns and parameters
# ======================================================================
@dataclass
class PatElem:
    """One bound variable of a pattern or one loop parameter, with its
    type and memory add-on.

    ``mem`` is ``None`` until the memory introduction pass runs; afterwards
    it is a :class:`repro.mem.memir.MemBinding` for array-typed elements.
    """

    name: str
    type: Type
    mem: Optional[Any] = None

    def is_array(self) -> bool:
        return isinstance(self.type, ArrayType)

    def __str__(self) -> str:
        s = f"{self.name} : {self.type}"
        if self.mem is not None:
            s += f" @ {self.mem}"
        return s


@dataclass(frozen=True)
class Param:
    """A function parameter.  An array-typed one lives row-major in its
    implicit block (:func:`repro.mem.memir.binding_of` spells it)."""

    name: str
    type: Type


# ======================================================================
# Index specifications for reads/updates
# ======================================================================
@dataclass(frozen=True)
class PointSpec:
    """A full scalar index ``[i, j, ...]``."""

    indices: Tuple[SymExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sym(i) for i in self.indices))


@dataclass(frozen=True)
class TripletSpec:
    """Per-dimension triplet slices ``[start : count : step, ...]``."""

    triplets: Tuple[Tuple[SymExpr, SymExpr, SymExpr], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "triplets",
            tuple((sym(a), sym(b), sym(c)) for a, b, c in self.triplets),
        )


@dataclass(frozen=True)
class LmadSpec:
    """A generalized LMAD slice (paper section III-B); rank-1 arrays only."""

    lmad: Lmad


IndexSpec = Union[PointSpec, TripletSpec, LmadSpec]


# ======================================================================
# Expressions
# ======================================================================
class Exp:
    """Base class for all right-hand-side expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class VarRef(Exp):
    """Aliasing re-binding: ``let y = x``."""

    name: str


@dataclass(frozen=True)
class Lit(Exp):
    """A literal scalar."""

    value: Union[int, float, bool]
    dtype: str = "f32"


@dataclass(frozen=True)
class ScalarE(Exp):
    """An integer scalar computation as a symbolic expression.

    Bindings of this form feed the short-circuiting pass's symbol table for
    index-function translation (paper section V-A-b).
    """

    expr: SymExpr

    def __post_init__(self):
        object.__setattr__(self, "expr", sym(self.expr))


@dataclass(frozen=True)
class BinOp(Exp):
    """Scalar binary operation; ``op`` in :data:`repro.ir.scalar.BINARY`."""

    op: str
    x: Operand
    y: Operand


@dataclass(frozen=True)
class UnOp(Exp):
    """Scalar unary operation; ``op`` in :data:`repro.ir.scalar.UNARY`."""

    op: str
    x: Operand


@dataclass(frozen=True)
class Iota(Exp):
    """``iota n = [0, 1, ..., n-1]`` (fresh array)."""

    n: SymExpr
    dtype: str = "i64"

    def __post_init__(self):
        object.__setattr__(self, "n", sym(self.n))


@dataclass(frozen=True)
class Scratch(Exp):
    """``scratch d1 .. dq t``: fresh array with uninitialized contents."""

    dtype: str
    shape: Tuple[SymExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(sym(s) for s in self.shape))


@dataclass(frozen=True)
class Replicate(Exp):
    """Fresh array of ``shape`` filled with a scalar operand."""

    shape: Tuple[SymExpr, ...]
    value: Operand
    dtype: str = "f32"

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(sym(s) for s in self.shape))


@dataclass(frozen=True)
class Copy(Exp):
    """Manifest a (possibly layout-transformed) array as a fresh row-major one."""

    src: str


@dataclass(frozen=True)
class Concat(Exp):
    """Concatenate arrays along the outermost dimension (fresh array)."""

    srcs: Tuple[str, ...]


@dataclass(frozen=True)
class Index(Exp):
    """Scalar read ``a[i, j, ...]``."""

    src: str
    indices: Tuple[SymExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sym(i) for i in self.indices))


@dataclass(frozen=True)
class SliceT(Exp):
    """Triplet-slice read (O(1) change-of-layout)."""

    src: str
    triplets: Tuple[Tuple[SymExpr, SymExpr, SymExpr], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "triplets",
            tuple((sym(a), sym(b), sym(c)) for a, b, c in self.triplets),
        )


@dataclass(frozen=True)
class LmadSlice(Exp):
    """Generalized LMAD-slice read of a rank-1 array (O(1), paper III-B)."""

    src: str
    lmad: Lmad


@dataclass(frozen=True)
class Rearrange(Exp):
    """Permute dimensions (O(1)); ``perm[i]`` is the source of new dim i."""

    src: str
    perm: Tuple[int, ...]


@dataclass(frozen=True)
class Reshape(Exp):
    """Change the shape, preserving row-major element order (O(1))."""

    src: str
    shape: Tuple[SymExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(sym(s) for s in self.shape))


@dataclass(frozen=True)
class Reverse(Exp):
    """Reverse one dimension (O(1))."""

    src: str
    dim: int


@dataclass(frozen=True)
class Update(Exp):
    """``src with [spec] = value``: functional in-place update.

    Consumes ``src`` (uniqueness); the result is a new name for the updated
    array.  ``value`` is a scalar operand for :class:`PointSpec` and an
    array variable otherwise.  These statements are the principal *circuit
    points* of the short-circuiting optimization (paper section V).
    """

    src: str
    spec: IndexSpec
    value: Operand


@dataclass
class Block:
    """A sequence of statements and the names of the produced results."""

    stmts: List["Let"]
    result: Tuple[str, ...]

    def __post_init__(self):
        self.result = tuple(self.result)


@dataclass(frozen=True)
class Lambda:
    """Bound parameters plus a body block (used by :class:`Map`)."""

    params: Tuple[str, ...]
    body: Block


@dataclass(frozen=True)
class Map(Exp):
    """A mapnest of width ``width`` (paper fig. 6b).

    The body is evaluated once per thread index ``0 <= i < width`` (the
    lambda's single parameter).  Each of the body's results (scalars or
    arrays) is implicitly written to row ``i`` of a corresponding fresh
    result array -- the implicit circuit point ``xss[i] = r`` that the
    short-circuiting analysis exploits.
    """

    width: SymExpr
    lam: Lambda

    def __post_init__(self):
        object.__setattr__(self, "width", sym(self.width))


@dataclass(frozen=True)
class Loop(Exp):
    """``loop (p1=x1, ..) for i < count do body`` (paper section II-C).

    ``carried`` pairs each loop parameter with its initializer variable;
    the body block's results become the next iteration's parameters, and
    the final parameters are the loop's value.  A parameter is a binder
    like any pattern element: its ``mem`` says where the carried array
    lives inside the body.
    """

    carried: Tuple[Tuple[PatElem, str], ...]
    index: str
    count: SymExpr
    body: Block

    def __post_init__(self):
        object.__setattr__(self, "count", sym(self.count))


@dataclass(frozen=True)
class If(Exp):
    """``if c then .. else ..`` returning (possibly array) values."""

    cond: Operand
    then_block: Block
    else_block: Block


@dataclass(frozen=True)
class Reduce(Exp):
    """Parallel reduction with a builtin operator: add, min, max, ...

    The GPU implementation is a tree reduction (one kernel); Rodinia NN's
    *sequential* reference reduction is modelled in the cost model, which
    is how table VII's large ref-relative speedups arise.
    """

    op: str
    src: str


@dataclass(frozen=True)
class ArgMin(Exp):
    """Index+value of the minimum element of a rank-1 array (for NN)."""

    src: str


@dataclass(frozen=True)
class Alloc(Exp):
    """Allocate a memory block of ``size`` elements of ``dtype``.

    Only introduced by the memory pipeline; never written by frontends.
    A block allocated inside an outermost map is kernel-local; the
    executors derive that where they run the alloc, so the IR does not
    say where a block lives.
    """

    size: SymExpr
    dtype: str

    def __post_init__(self):
        object.__setattr__(self, "size", sym(self.size))


@dataclass(frozen=True)
class FusedRecord:
    """One producer ``map`` fused into this (consumer) statement.

    Written by :mod:`repro.opt.fuse` when it inlines a producer's body
    into its sole consumer and deletes the intermediate array.  Like
    ``mem`` annotations this is a deletable add-on: the executor uses it
    for ``fused_kernels`` / ``bytes_elided_fusion`` accounting, the
    printer for a trailing ``-- fused:`` comment, and the verifier's FU
    rules for translation validation -- none of it changes semantics.
    """

    #: Name the producer map bound (the elided intermediate array).
    producer: str
    #: The intermediate's (now deleted) memory block.
    mem: str
    #: Producer width == element count of the elided intermediate.
    width: SymExpr
    #: Bytes per element of the elided intermediate.
    elem_bytes: int
    #: Number of consumer read sites the producer body was inlined at.
    reads: int
    #: Memory blocks the original producer+consumer pair wrote (the
    #: fused kernel must write exactly these minus ``mem`` -- rule FU02).
    write_mems: Tuple[str, ...] = ()
    #: Rank of the elided intermediate (1 for a plain map producer,
    #: N for a fused rank-N mapnest).  ``width`` stays the total element
    #: count regardless of rank, so the accounting formula is rank-blind.
    rank: int = 1
    #: True on every record except one per (producer, mem) group: a
    #: multi-consumer producer is *duplicated* into each consumer, and
    #: only the primary record claims the elided write (rule FU03).
    duplicated: bool = False
    #: Statement count of the inlined producer body -- the recomputation
    #: cost the duplication cost model accepted.
    recompute_stmts: int = 0
    #: 1 for a direct fusion; 1 + the producer's own deepest record for
    #: a chain (A fused into B, then B fused into C carries depth 2).
    chain_depth: int = 1
    #: Canonical (alpha-renamed) hash of the producer body as actually
    #: spliced at each read site, computed by the pass at inline time.
    #: Rule FU03 requires every hash in a (producer, mem) group to agree:
    #: duplicated bodies must be bit-equivalent at every site.
    site_hashes: Tuple[str, ...] = ()


@dataclass
class Let:
    """One statement: bind ``pattern`` to the value of ``exp``.

    ``last_uses`` is filled by the last-use analysis: the set of array
    variables (together with all their aliases) that are dead after this
    statement -- the ``b^lu`` annotations of paper section V.
    """

    pattern: List[PatElem]
    exp: Exp
    last_uses: frozenset = field(default_factory=frozenset)
    #: Memory blocks whose lifetime ends at this statement, filled by
    #: :mod:`repro.reuse.liveranges`.  The executor's high-water mark
    #: follows them, and a pooled run hands the block's buffer back here
    #: -- like ``mem`` annotations, deletable without changing program
    #: semantics.
    mem_frees: Tuple[str, ...] = ()
    #: Producer maps vertically fused into this statement by
    #: :mod:`repro.opt.fuse` (empty for all other statements).
    fused: Tuple[FusedRecord, ...] = ()

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.pattern)


#: Assumption kind -> how it prints, and what it asks of (var, value).
_PREMISES = {
    "define": ("=", operator.eq),
    "lower": (">=", operator.ge),
    "upper": ("<=", operator.le),
}


@dataclass
class Fun:
    """A top-level function: the unit of compilation.

    ``assumptions`` seed the symbolic context for the whole body: entries
    are ``("define", var, expr)``, ``("lower", var, expr)``,
    ``("upper", var, expr)`` -- e.g. NW's dataset invariant
    ``n == q*b + 1, q >= 2, b >= 2``.
    """

    name: str
    params: List[Param]
    body: Block
    assumptions: Tuple[Tuple[str, str, SymExpr], ...] = ()

    def build_context(self):
        """Construct the :class:`repro.symbolic.Context` for this function."""
        from repro.symbolic import Context

        ctx = Context()
        for kind, var, expr in self.assumptions:
            if kind == "define":
                ctx.define(var, expr)
            elif kind == "lower":
                ctx.assume_lower(var, expr)
            elif kind == "upper":
                ctx.assume_upper(var, expr)
            else:
                raise ValueError(f"unknown assumption kind {kind!r}")
        # Array shapes are positive by construction.
        for p in self.params:
            if isinstance(p.type, ArrayType):
                for s in p.type.shape:
                    fv = sorted(s.free_vars())
                    if len(fv) == 1 and s == SymExpr.var(fv[0]):
                        ctx.assume_lower(fv[0], 1)
        return ctx

    def check_premises(self, env: Mapping[str, object]) -> None:
        """Refuse inputs the ``assumptions`` do not hold for -- every
        non-overlap and fusion proof of the compilation started from
        them -- by the variables ``env`` binds (entries about others are
        not decidable here)."""
        for kind, var, expr in self.assumptions:
            names = sorted({var} | expr.free_vars())
            if all(n in env for n in names):
                vals = {n: int(env[n]) for n in names}
                rel, test = _PREMISES[kind]
                if not test(vals[var], expr.evaluate(vals)):
                    at = ", ".join(f"{n} = {v}" for n, v in vals.items())
                    raise Declined("premise-violated", f"{var} {rel} {expr} at {at}")


# ----------------------------------------------------------------------
# Scopes: what a nested block binds, and what the passes know inside it
# ----------------------------------------------------------------------
class Binder(NamedTuple):
    """What entering a ``map`` or ``loop`` body binds: the index ``var``,
    which ranges over ``0 <= var <= extent - 1``, and -- for a loop -- the
    carried parameters (pattern elements: each says where it lives)."""

    kind: str  # "map" | "loop"
    var: str
    extent: SymExpr
    params: Tuple[PatElem, ...] = ()


def sub_blocks(exp: Exp) -> List[Block]:
    """The nested blocks of a compound expression (for generic walks,
    which is why it tests the exact class: most statements are leaves)."""
    kind = type(exp)
    if kind is Map:
        return [exp.lam.body]
    if kind is Loop:
        return [exp.body]
    if kind is If:
        return [exp.then_block, exp.else_block]
    return []


def sub_scopes(exp: Exp) -> List[Tuple[Block, Optional[Binder]]]:
    """:func:`sub_blocks`, each block with the :class:`Binder` that
    enters it (``None``: an ``if`` branch binds nothing).  Pure
    structure -- every walker, the verifier included, asks here what
    encloses a block; what a pass may *assume* inside it is
    :func:`scope_context`."""
    blocks = sub_blocks(exp)
    if not blocks:
        return blocks
    binder = None
    if type(exp) is Map:
        binder = Binder("map", exp.lam.params[0], exp.width)
    elif type(exp) is Loop:
        params = tuple([p for p, _ in exp.carried])
        binder = Binder("loop", exp.index, exp.count, params)
    return [(block, binder) for block in blocks]


def bound_names(binder: Optional[Binder]) -> frozenset:
    """The names a sub-block sees beyond its parent's."""
    if binder is None:
        return frozenset()
    return frozenset({binder.var, *(p.name for p in binder.params)})


def block_facts(block: Block) -> Iterator[Tuple[str, SymExpr]]:
    """The equalities a block's own scalar ``let``s establish: every
    ``ScalarE`` and every ``i64`` literal.  Names are bound once, so each
    holds throughout the block.  A definition that mentions its own name
    (``let m = m + 1``, in IR that skipped the typechecker, which rejects
    rebinding) relates two different variables and is no rewrite rule."""
    for stmt in block.stmts:
        exp = stmt.exp
        kind = type(exp)
        if kind is ScalarE:
            name = stmt.pattern[0].name
            if name not in exp.expr.free_vars():
                yield name, exp.expr
        elif kind is Lit and exp.dtype == "i64":
            yield stmt.pattern[0].name, sym(int(exp.value))


def add_block_facts(ctx, block: Block) -> None:
    """Define ``block``'s :func:`block_facts` on ``ctx`` itself."""
    for name, value in block_facts(block):
        ctx.define(name, value)


def scope_context(ctx, block: Block, binder: Optional[Binder] = None):
    """What the passes know inside ``block``, entered from a point where
    they know ``ctx``: one child context holding the binder's range
    ``0 <= var <= extent - 1`` and the block's :func:`block_facts`.
    (The function body is not entered from anywhere: its facts go on the
    compilation's root context itself, see ``CompileContext.
    root_context``.)  The verifier derives the same independently, in
    :mod:`repro.analysis.facts`."""
    ctx = ctx.extended()
    if binder is not None:
        ctx.assume_range(binder.var, 0, binder.extent - 1)
    add_block_facts(ctx, block)
    return ctx


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------
def operand_vars(op: Operand) -> frozenset:
    """Variable names referenced by a scalar operand."""
    if isinstance(op, str):
        return frozenset({op})
    if isinstance(op, SymExpr):
        return op.free_vars()
    return frozenset()


def spec_vars(spec: IndexSpec) -> frozenset:
    out: frozenset = frozenset()
    if isinstance(spec, PointSpec):
        for i in spec.indices:
            out |= i.free_vars()
    elif isinstance(spec, TripletSpec):
        for a, b, c in spec.triplets:
            out |= a.free_vars() | b.free_vars() | c.free_vars()
    elif isinstance(spec, LmadSpec):
        out |= spec.lmad.free_vars()
    return out


def head_uses(exp: Exp) -> frozenset:
    """The names a compound expression references outside its blocks."""
    if isinstance(exp, Map):
        return exp.width.free_vars()
    if isinstance(exp, Loop):
        return exp.count.free_vars() | frozenset(i for _, i in exp.carried)
    assert isinstance(exp, If)
    return operand_vars(exp.cond)


def exp_uses(exp: Exp) -> frozenset:
    """All variable names an expression references directly.

    For compound expressions this includes the free variables of the nested
    blocks (computed transitively).
    """
    if isinstance(exp, VarRef):
        return frozenset({exp.name})
    if isinstance(exp, (Lit, Iota, Scratch, Alloc)):
        base: frozenset = frozenset()
        if isinstance(exp, Iota):
            base |= exp.n.free_vars()
        if isinstance(exp, Scratch):
            for s in exp.shape:
                base |= s.free_vars()
        if isinstance(exp, Alloc):
            base |= exp.size.free_vars()
        return base
    if isinstance(exp, ScalarE):
        return exp.expr.free_vars()
    if isinstance(exp, Replicate):
        out = operand_vars(exp.value)
        for s in exp.shape:
            out |= s.free_vars()
        return out
    if isinstance(exp, BinOp):
        return operand_vars(exp.x) | operand_vars(exp.y)
    if isinstance(exp, UnOp):
        return operand_vars(exp.x)
    if isinstance(exp, Copy):
        return frozenset({exp.src})
    if isinstance(exp, Concat):
        return frozenset(exp.srcs)
    if isinstance(exp, Index):
        out = frozenset({exp.src})
        for i in exp.indices:
            out |= i.free_vars()
        return out
    if isinstance(exp, SliceT):
        out = frozenset({exp.src})
        for a, b, c in exp.triplets:
            out |= a.free_vars() | b.free_vars() | c.free_vars()
        return out
    if isinstance(exp, LmadSlice):
        return frozenset({exp.src}) | exp.lmad.free_vars()
    if isinstance(exp, (Rearrange, Reverse)):
        return frozenset({exp.src})
    if isinstance(exp, Reshape):
        out = frozenset({exp.src})
        for s in exp.shape:
            out |= s.free_vars()
        return out
    if isinstance(exp, Update):
        return frozenset({exp.src}) | spec_vars(exp.spec) | operand_vars(exp.value)
    if isinstance(exp, (Reduce, ArgMin)):
        return frozenset({exp.src})
    if isinstance(exp, (Map, Loop, If)):
        out = head_uses(exp)
        for block, binder in sub_scopes(exp):
            out |= block_free_vars(block) - bound_names(binder)
        return out
    raise TypeError(f"unknown expression {type(exp).__name__}")


def block_free_vars(block: Block) -> frozenset:
    """Free variables of a block (uses minus local bindings)."""
    bound: set = set()
    free: set = set()
    for stmt in block.stmts:
        free |= exp_uses(stmt.exp) - bound
        bound |= set(stmt.names)
    free |= set(block.result) - bound
    return frozenset(free)
