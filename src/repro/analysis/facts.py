"""Shared program facts for the verifier's checkers.

Everything here is derived from the annotated function alone -- none of it
consults the passes' own analyses, which is the point: the verifier must
disagree with a broken pass, not inherit its bug.

* :func:`enter_scope` / :func:`learn_scalar` -- the verifier's own reading
  of which range a ``map``/``loop`` opens and which scalar ``let``s are
  equalities.  :func:`repro.ir.ast.scope_context` is the passes' reading
  of the same two questions; the two are written apart so that a pass-side
  mistake about a range is contradicted here, not inherited
  (``tests/mem/test_scopes.py`` holds them to each other).
* :class:`ScopeWalker` -- a scoped traversal carrying that context (on top
  of the function's assumptions), the array-binding environment, and the
  set of memory blocks bound so far.
* :func:`dataflow_edges` / :class:`Downstream` -- the directed value-flow
  relation over names: ``y in downstream(x)`` means a read through ``y``
  may legitimately observe data written through ``x`` (so the race checker
  must not flag that pair).
* :func:`existential_targets` / :func:`expand_block` -- which blocks an
  existential (an ``if`` or loop result's block, a loop parameter's)
  may stand for at run time: the race and free checkers' one model of
  the indirection, re-derived here rather than taken from
  :mod:`repro.reuse`.
* :func:`alias_closure` -- the symmetric buffer-sharing relation used to
  validate last-use annotations (views, update src/result, if/loop result
  plumbing -- deliberately *not* the rebased same-block relation, which is
  exactly what short-circuiting is allowed to create).
* :func:`stmt_location` -- human-readable statement locations via the
  pretty-printer.
* :func:`sample_env` -- a concrete model of the function's assumptions for
  the bounds checker's fallback evaluation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir import ast as A
from repro.ir.pretty import _pretty_exp
from repro.ir.types import ArrayType
from repro.mem.memir import (
    MemBinding,
    binders,
    binding_of,
    entry_bindings,
    iter_stmts,
    param_mem_name,
)
from repro.symbolic import Context, SymExpr


# ----------------------------------------------------------------------
# Locations
# ----------------------------------------------------------------------
def stmt_location(path: str, stmt: A.Let) -> str:
    """``body[3].loop.body[1]: let (A2, ...) = Ac with [...] = X``."""
    pat = ", ".join(pe.name for pe in stmt.pattern)
    exp = stmt.exp
    if isinstance(exp, A.Map):
        head = f"map ({exp.lam.params[0]} < {exp.width}) {{...}}"
    elif isinstance(exp, A.Loop):
        head = f"loop for {exp.index} < {exp.count} {{...}}"
    elif isinstance(exp, A.If):
        head = f"if {exp.cond} then {{...}} else {{...}}"
    else:
        head = _pretty_exp(exp)
    return f"{path}: let ({pat}) = {head}"


def enter_scope(ctx: Context, binder: Optional[A.Binder]) -> Context:
    """The context inside a ``map`` or ``loop`` body: a child of ``ctx``
    in which the index runs over ``[0, extent)``.  An ``if`` branch
    (``binder`` None) opens no range and gets ``ctx`` itself."""
    if binder is None:
        return ctx
    return ctx.extended().assume_range(binder.var, 0, binder.extent - 1)


def learn_scalar(ctx: Context, stmt: A.Let) -> None:
    """Once ``stmt`` has run, an integer scalar it binds to a known value
    (a ``ScalarE`` or an ``i64`` literal) is an equality.  Not when the
    value mentions the name itself: that is an outer variable rebound."""
    exp = stmt.exp
    if isinstance(exp, A.ScalarE):
        if stmt.names[0] not in exp.expr.free_vars():
            ctx.define(stmt.names[0], exp.expr)
    elif isinstance(exp, A.Lit) and exp.dtype == "i64":
        ctx.define(stmt.names[0], int(exp.value))


# ----------------------------------------------------------------------
# Memory-block tables
# ----------------------------------------------------------------------
def alloc_sizes(fun: A.Fun) -> Dict[str, SymExpr]:
    """Memory block name -> allocated size (in elements), for every alloc."""
    out: Dict[str, SymExpr] = {}
    for stmt in iter_stmts(fun.body):
        if isinstance(stmt.exp, A.Alloc):
            out[stmt.names[0]] = stmt.exp.size
    return out


def param_block_sizes(fun: A.Fun) -> Dict[str, SymExpr]:
    """Implicit parameter block name -> size (in elements)."""
    return {
        param_mem_name(p.name): p.type.size()
        for p in fun.params
        if isinstance(p.type, ArrayType)
    }


def concrete_blocks(fun: A.Fun) -> Set[str]:
    """Blocks with real storage of known extent (allocs + param blocks).

    Everything else (``emem``/``lmem``/``rmem`` existentials) is an
    indirection the executor resolves at run time.
    """
    return set(alloc_sizes(fun)) | set(param_block_sizes(fun))


def referenced_mems(fun: A.Fun) -> Set[str]:
    """Every memory-block name any binding mentions."""
    out: Set[str] = set()
    for stmt in iter_stmts(fun.body):
        out.update(pe.mem.mem for pe in binders(stmt) if pe.mem is not None)
    return out


def existential_targets(fun: A.Fun) -> Dict[str, Tuple[str, ...]]:
    """Existential block -> the blocks it may stand for at run time.

    An ``if`` result's block stands for its branches' result blocks; a
    loop parameter's, for the initial value's and the body result's; a
    loop result's, for the body result's and -- after zero trips -- the
    initial value's.  Concrete blocks (:func:`concrete_blocks`) stand
    for themselves and get no entry."""
    concrete = concrete_blocks(fun)
    raw: Dict[str, Set[str]] = {}

    def register(mem: str, under: Set[str]) -> None:
        under.discard(mem)
        if under and mem not in concrete:
            raw.setdefault(mem, set()).update(under)

    def mem_of(bindings: Dict[str, MemBinding], name: str) -> Set[str]:
        b = bindings.get(name)
        return set() if b is None else {b.mem}

    def walk(blk: A.Block, parent: Dict[str, MemBinding]):
        bindings = dict(parent)
        for stmt in blk.stmts:
            exp = stmt.exp
            if isinstance(exp, A.Loop):
                lb = dict(bindings)
                lb.update((p.name, p.mem) for p, _ in exp.carried if p.mem)
                child = walk(exp.body, lb)
                result = exp.body.result
                for k, (prm, init) in enumerate(exp.carried):
                    if prm.mem is not None:
                        register(
                            prm.mem.mem,
                            mem_of(bindings, init) | mem_of(child, result[k]),
                        )
                for k, pe in enumerate(stmt.pattern):
                    if pe.is_array() and pe.mem is not None:
                        under = set()
                        if k < len(result):
                            under |= mem_of(child, result[k])
                        if k < len(exp.carried):
                            under |= mem_of(bindings, exp.carried[k][1])
                        register(binding_of(pe).mem, under)
            elif isinstance(exp, A.Map):
                walk(exp.lam.body, bindings)
            elif isinstance(exp, A.If):
                subs = (exp.then_block, exp.else_block)
                branches = [walk(sub, bindings) for sub in subs]
                for k, pe in enumerate(stmt.pattern):
                    if pe.is_array() and pe.mem is not None:
                        under = set()
                        for bb, sub in zip(branches, subs):
                            if k < len(sub.result):
                                under |= mem_of(bb, sub.result[k])
                        register(binding_of(pe).mem, under)
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    bindings[pe.name] = binding_of(pe)
        return bindings

    walk(fun.body, entry_bindings(fun))
    return {m: tuple(sorted(t)) for m, t in raw.items()}


def expand_block(
    targets: Dict[str, Tuple[str, ...]], mem: str, _seen: Tuple[str, ...] = ()
) -> Tuple[str, ...]:
    """The ground blocks ``mem`` may stand for under ``targets`` (from
    :func:`existential_targets`); ``(mem,)`` for a ground block.  A
    cyclic resolution (a loop carrying its own result) names no new
    ground block: the acyclic paths already name them all."""
    if mem in _seen:
        return ()
    if mem not in targets:
        return (mem,)
    out: Dict[str, None] = {}
    for t in targets[mem]:
        out.update(dict.fromkeys(expand_block(targets, t, _seen + (mem,))))
    return tuple(out)


# ----------------------------------------------------------------------
# Scoped traversal
# ----------------------------------------------------------------------
class ScopeWalker:
    """Recursive traversal with symbolic context and binding environment.

    Subclasses override :meth:`on_stmt`; it runs for every statement with
    the context as of that point (function assumptions + scalar
    definitions so far + enclosing loop/map index ranges), the array
    bindings in scope, the set of memory-block names bound so far, and a
    location path.  Compound statements recurse *before* their pattern is
    bound (matching execution order).
    """

    def __init__(self, fun: A.Fun):
        self.fun = fun
        self._existential_mems = referenced_mems(fun)
        self._concrete = concrete_blocks(fun)

    def run(self) -> None:
        ctx = self.fun.build_context()
        bindings = entry_bindings(self.fun)
        avail = {b.mem for b in bindings.values()}
        self._block(self.fun.body, ctx, bindings, avail, "body")

    # -- hook ----------------------------------------------------------
    def on_stmt(
        self,
        stmt: A.Let,
        ctx: Context,
        bindings: Dict[str, MemBinding],
        avail: Set[str],
        path: str,
        block: A.Block,
        idx: int,
    ) -> None:  # pragma: no cover - overridden
        pass

    # -- driver --------------------------------------------------------
    def _block(
        self,
        block: A.Block,
        parent_ctx: Context,
        parent_bindings: Dict[str, MemBinding],
        parent_avail: Set[str],
        path: str,
    ) -> None:
        ctx = parent_ctx.extended()
        bindings = dict(parent_bindings)
        avail = set(parent_avail)
        for i, stmt in enumerate(block.stmts):
            spath = f"{path}[{i}]"
            self.on_stmt(stmt, ctx, bindings, avail, spath, block, i)
            exp = stmt.exp
            learn_scalar(ctx, stmt)
            if isinstance(exp, A.Alloc):
                avail.add(stmt.names[0])
            for k, (blk, binder) in enumerate(A.sub_scopes(exp)):
                tag = ("then", "else")[k] if binder is None else binder.kind
                inner_b, inner_av = bindings, avail
                if binder is not None and binder.params:
                    inner_b, inner_av = dict(bindings), set(avail)
                    for prm in binder.params:
                        if prm.mem is not None:
                            inner_b[prm.name] = prm.mem
                            inner_av.add(prm.mem.mem)
                self._block(
                    blk, enter_scope(ctx, binder), inner_b, inner_av,
                    f"{spath}.{tag}",
                )
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    bindings[pe.name] = binding_of(pe)
                    if isinstance(exp, A.Loop):
                        # A loop result's existential block (rmem) is
                        # bound by the loop statement itself.
                        m = binding_of(pe).mem
                        if m not in self._concrete:
                            avail.add(m)
                elif not pe.is_array() and pe.name in self._existential_mems:
                    # An existential memory result (emem): the block name
                    # becomes available once the statement binds it.
                    avail.add(pe.name)


# ----------------------------------------------------------------------
# Value-flow (downstream) relation
# ----------------------------------------------------------------------
def dataflow_edges(fun: A.Fun) -> Dict[str, Set[str]]:
    """Directed edges ``x -> y``: data written through ``x`` may be the
    value a read through ``y`` is *supposed* to observe."""
    edges: Dict[str, Set[str]] = {}

    def add(src: str, dst: str) -> None:
        edges.setdefault(src, set()).add(dst)

    for stmt in iter_stmts(fun.body):
        exp = stmt.exp
        names = stmt.names
        if isinstance(
            exp,
            (A.VarRef, A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape,
             A.Reverse, A.Copy),
        ):
            src = exp.name if isinstance(exp, A.VarRef) else exp.src
            add(src, names[0])
        elif isinstance(exp, A.Concat):
            for s in exp.srcs:
                add(s, names[0])
        elif isinstance(exp, A.Update):
            add(exp.src, names[0])
            if isinstance(exp.value, str):
                add(exp.value, names[0])
        elif isinstance(exp, A.Map):
            for pe, res in zip(stmt.pattern, exp.lam.body.result):
                add(res, pe.name)
        elif isinstance(exp, A.Loop):
            for k, (prm, init) in enumerate(exp.carried):
                res = exp.body.result[k]
                add(res, prm.name)  # carried into the next iteration
                add(init, prm.name)
                if k < len(stmt.pattern):
                    add(res, stmt.pattern[k].name)
                    add(init, stmt.pattern[k].name)  # zero-trip loops
        elif isinstance(exp, A.If):
            for k, pe in enumerate(stmt.pattern):
                if k < len(exp.then_block.result):
                    add(exp.then_block.result[k], pe.name)
                if k < len(exp.else_block.result):
                    add(exp.else_block.result[k], pe.name)
        else:
            # Scalar-level flow (Index, ScalarE, BinOp, Reduce, ...):
            # arrays are routinely rebuilt element-by-element through
            # scalar reads, so these edges are what connect an array to
            # the map/loop results computed from it.
            for used in A.exp_uses(exp):
                for n in names:
                    add(used, n)
    return edges


class Downstream:
    """Memoized reachability over :func:`dataflow_edges`."""

    def __init__(self, fun: A.Fun):
        self._edges = dataflow_edges(fun)
        self._memo: Dict[str, FrozenSet[str]] = {}

    def of(self, name: str) -> FrozenSet[str]:
        cached = self._memo.get(name)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            for nxt in self._edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out = frozenset(seen)
        self._memo[name] = out
        return out

    def dependent(self, writer: str, reader: str) -> bool:
        """May a read through ``reader`` legitimately observe a write
        through ``writer``?  Same name, or forward value-flow from the
        writer into the reader.  Deliberately NOT the reverse direction:
        that an array *fed* the writer does not make clobbering it
        benign."""
        if writer == reader:
            return True
        return reader in self.of(writer)


# ----------------------------------------------------------------------
# Buffer-alias closure (for last-use validation)
# ----------------------------------------------------------------------
def alias_closure(fun: A.Fun) -> Dict[str, FrozenSet[str]]:
    """Name -> its symmetric-transitive buffer-alias class.

    Mirrors the *semantics* the last-use analysis is defined against
    (``ir/alias.py``): views share their source's buffer, an update
    result is its source's buffer, if/loop results plumb their
    branch/body results, and a loop parameter starts as the initializer.
    Fresh constructors (copy, concat, iota, replicate, map) alias
    nothing -- even when short-circuiting later rebases them into a
    shared block, because that is exactly the buffer reuse ``last_uses``
    licenses.  The loop param <-> body-result carry edge is deliberately
    excluded, matching the per-iteration binding semantics.
    """
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for stmt in iter_stmts(fun.body):
        exp = stmt.exp
        names = stmt.names
        if isinstance(
            exp,
            (A.VarRef, A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape,
             A.Reverse),
        ):
            src = exp.name if isinstance(exp, A.VarRef) else exp.src
            union(src, names[0])
        elif isinstance(exp, A.Update):
            union(exp.src, names[0])
        elif isinstance(exp, A.Loop):
            for k, (prm, init) in enumerate(exp.carried):
                union(init, prm.name)
                if k < len(stmt.pattern):
                    union(exp.body.result[k], stmt.pattern[k].name)
        elif isinstance(exp, A.If):
            for k, pe in enumerate(stmt.pattern):
                if k < len(exp.then_block.result):
                    union(exp.then_block.result[k], pe.name)
                if k < len(exp.else_block.result):
                    union(exp.else_block.result[k], pe.name)
    classes: Dict[str, Set[str]] = {}
    for name in list(parent):
        classes.setdefault(find(name), set()).add(name)
    out: Dict[str, FrozenSet[str]] = {}
    for members in classes.values():
        cls = frozenset(members)
        for m in members:
            out[m] = cls
    return out


# ----------------------------------------------------------------------
# Concrete sample environments (bounds fallback)
# ----------------------------------------------------------------------
#: The value :func:`sample_env` gives an unconstrained variable, and the
#: dependency-resolution rounds it takes before giving up.
_SAMPLE_DEFAULT = 3
_SAMPLE_ROUNDS = 8


def sample_env(ctx: Context, needed: Set[str]) -> Optional[Dict[str, int]]:
    """A concrete assignment consistent with the context's equalities and
    numeric bounds; ``None`` when some needed variable cannot be pinned.

    Defined variables get their defining expression evaluated; bounded
    variables get their lower bound (clamped into the upper bound when
    both exist); free variables get ``_SAMPLE_DEFAULT``.
    """
    default = _SAMPLE_DEFAULT
    eqs = ctx.all_equalities()
    # Close the needed set over defining expressions and bounds.
    work = set(needed)
    closed: Set[str] = set()
    while work:
        v = work.pop()
        if v in closed:
            continue
        closed.add(v)
        deps: Set[str] = set()
        if v in eqs:
            deps |= eqs[v].free_vars()
        b = ctx.bound(v)
        if b.lower is not None:
            deps |= b.lower.free_vars()
        if b.upper is not None:
            deps |= b.upper.free_vars()
        work |= deps - closed

    env: Dict[str, int] = {}

    def try_eval(e: SymExpr) -> Optional[int]:
        return e.substitute(env).as_int() if env else e.as_int()

    for _ in range(_SAMPLE_ROUNDS):
        progress = False
        for v in sorted(closed):
            if v in env:
                continue
            val: Optional[int] = None
            if v in eqs:
                val = try_eval(eqs[v])
                if val is None:
                    continue  # wait for dependencies
            else:
                b = ctx.bound(v)
                lo = try_eval(b.lower) if b.lower is not None else None
                hi = try_eval(b.upper) if b.upper is not None else None
                if b.lower is not None and lo is None:
                    continue
                if b.upper is not None and hi is None:
                    continue
                if lo is not None and hi is not None:
                    val = min(max(lo, min(default, hi)), hi)
                elif lo is not None:
                    val = max(lo, default)
                elif hi is not None:
                    val = min(default, hi)
                else:
                    val = default
            env[v] = val
            progress = True
        if all(v in env for v in closed):
            return env
        if not progress:
            return None
    return env if all(v in env for v in closed) else None


def index_var_ranges(
    ctx: Context, vars_: Set[str], env: Dict[str, int]
) -> Optional[List[Tuple[str, int, int]]]:
    """Concrete [lo, hi] ranges for loop/map index variables, under a
    sample environment for everything else."""
    out: List[Tuple[str, int, int]] = []
    for v in sorted(vars_):
        b = ctx.bound(v)
        if b.lower is None or b.upper is None:
            return None
        lo = b.lower.substitute(env).as_int()
        hi = b.upper.substitute(env).as_int()
        if lo is None or hi is None:
            return None
        out.append((v, lo, hi))
    return out
