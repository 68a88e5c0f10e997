"""Kernel plans: each outermost ``map`` lowered once, for both fast tiers.

The first dispatch of an outermost ``map`` lowers its body into a
:class:`Plan`, a tree of :class:`Node`s, one per statement.  A node has
one of the kinds below and holds what every tier needs and no request
can change: the memory annotation each array is made from, an
operator's ``scalar.OPS`` row, a block's flop charge (every operator of
it counts its flops once per thread), a nested map's counter site,
whether an update writes in place, a loop's carried parameters, which
existential block a compound result binds, and whether a trip count or
an allocation size can be evaluated at launch.

Two printers read the plan.  The vectorized tier
(:mod:`repro.mem.vectorize`) stages NumPy closures from it with the
thread index as a lane vector; the native tier
(:mod:`repro.backend.cemit`) prints C from it at the first launch.
Whether a tier takes the map at all is a predicate over the plan --
:func:`vector_rule` (a taint analysis seeded with the thread index:
what would make lanes diverge) and :func:`native_rule` (what C cannot
spell) -- whose answer is one :class:`~repro.decisions.Declined` under a
rule of :data:`RULES`, the one vocabulary both tiers decline in.  Rules
that depend on a launch (a scalar kind with no bit-exact C form, a
view's rank) are raised by the C printer under the same names.
"""

from __future__ import annotations

from typing import List, Optional

from repro.decisions import Declined
from repro.ir import ast as A
from repro.ir import scalar
from repro.mem.memir import binding_of, iter_stmts

#: Every rule a fast tier declines a map under, and what it means.
RULES = {
    "unsupported": "a construct the tier has no lowering for (the detail names it)",
    "not-bit-exact": "an operator the tier cannot compute with NumPy's bits",
    "reduction-in-body": "a reduction inside the map body",
    "array-without-binding": "an array made without a memory annotation",
    "lane-varying-shape": "an extent or allocation size that differs between threads",
    "lane-varying-map-width": "a nested map whose width differs between threads",
    "lane-varying-trip-count": "a loop whose trip count differs between threads",
    "lane-varying-array-branch": "an array-valued if on a per-thread condition",
    "masked-loop": "a loop under a per-thread condition",
    "masked-array-stmt": "an array statement under a per-thread condition",
    # The native tier at a launch, and its toolchain.
    "structure-changed": "a launch whose structure differs from the first's",
    "interp-error": "a launch the kernel's arguments cannot be made for",
    "internal-error": "the C printer crashed (a bug: no test run may show it)",
    "no-cc": "no C compiler",
    "cc-failed": "the C compiler exited nonzero",
    "so-unloadable": "the built shared object does not load",
}


def declined(rule: str, detail: str = "") -> Declined:
    assert rule in RULES, rule
    return Declined(rule, detail)


_KINDS = {
    A.Lit: "lit", A.ScalarE: "sym", A.BinOp: "op", A.UnOp: "op",
    A.Index: "read", A.Iota: "fill", A.Replicate: "fill", A.Copy: "copy",
    A.Concat: "concat", A.Update: "update", A.Alloc: "alloc", A.Map: "map",
    A.Loop: "loop", A.If: "if", A.Reduce: "reduce", A.ArgMin: "reduce",
    **dict.fromkeys(
        (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.Scratch),
        "view",
    ),
}
#: Statements whose value is their source's array, relaid out or copied.
_VIEWS = (A.VarRef, A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.Copy)


class Block:
    """A block's nodes, its result names and its flop charge."""

    __slots__ = ("nodes", "result", "flops")

    def __init__(self, nodes, result, flops):
        self.nodes, self.result, self.flops = nodes, result, flops


class Node:
    """One statement.  ``blocks``: a map's body, a loop's body, an if's
    two branches.  ``in_place``: an update is made from its source's own
    annotation.  ``launch``: an allocation's size, a map's width or a
    loop's count can be evaluated at launch.  ``params``: per carried
    loop parameter ``(parameter, annotation, kept)`` (``kept``: the
    body's result is made from the parameter's own annotation under no
    per-iteration variable, so it is the view).  ``results``: per
    pattern element of a loop or an if ``(position, element, the
    existential block it binds or None)``."""

    __slots__ = (
        "kind", "stmt", "exp", "blocks", "in_place", "launch", "params",
        "results",
    )

    def __init__(self, kind, stmt, blocks=(), in_place=False, launch=True,
                 params=(), results=()):
        self.kind, self.stmt, self.exp, self.blocks = kind, stmt, stmt.exp, blocks
        self.in_place, self.launch = in_place, launch
        self.params, self.results = params, results



def label(stmt: A.Let) -> str:
    """The counter site every tier keys a map statement's stat by."""
    return f"map:{'/'.join(stmt.names)}"


class Plan:
    """One outermost map, lowered.  ``declined``/``body``: the vectorized
    tier's answer and staged body, set at its first dispatch.  It holds
    the statement: plan tables are keyed by ``id(stmt)``, which is
    unique only while the statement lives."""

    __slots__ = ("stmt", "root", "declined", "body")

    def __init__(self, stmt: A.Let, root: Block):
        self.stmt, self.root = stmt, root
        self.declined = self.body = None


def elision_guard(src, dst) -> Optional[list]:
    """The copy rule, shared by every tier: a copy is elided when source
    and destination are one block under one index function.  For two
    views' LMADs (``(offset, ((shape, stride), ...))`` each, memory side
    first), the component pairs that must all be equal -- or None where
    the structures differ, so they never coincide."""
    if len(src) != len(dst):
        return None
    pairs = []
    for (off_a, dims_a), (off_b, dims_b) in zip(src, dst):
        if len(dims_a) != len(dims_b):
            return None
        pairs.append((off_a, off_b))
        for dim_a, dim_b in zip(dims_a, dims_b):
            pairs.extend(zip(dim_a, dim_b))
    return pairs


def lower(stmt: A.Let, exp: A.Map) -> Plan:
    return Plan(stmt, _Lowering().block(exp.lam.body, exp.lam.params[:1]))


class _Lowering:
    """``visible``: names bound at this point of every launch;
    ``bindings``: the annotation each array of the body was made from."""

    def __init__(self):
        self.visible: set = set()
        self.bindings: dict = {}

    def block(self, block: A.Block, bound=()) -> Block:
        outer = self.visible
        self.visible = outer | set(bound)
        nodes, flops = [], 0
        for stmt in block.stmts:
            nodes.append(self.node(stmt))
            if type(stmt.exp) in (A.BinOp, A.UnOp):
                flops += scalar.OPS[stmt.exp.op].flops
            self.visible.update(stmt.names)
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    self.bindings[pe.name] = pe.mem
        self.visible = outer
        return Block(nodes, block.result, flops)

    def launch(self, expr) -> bool:
        return not expr.free_vars() & self.visible

    def node(self, stmt: A.Let) -> Node:
        exp = stmt.exp
        kind = _KINDS.get(type(exp), "other")
        if kind == "other" and type(exp) is A.VarRef:
            kind = "view" if stmt.pattern[0].is_array() else "alias"
        if kind == "update":
            return Node(kind, stmt, in_place=(
                self.bindings.get(exp.src) == binding_of(stmt.pattern[0])
            ))
        if kind == "alloc":
            return Node(kind, stmt, launch=self.launch(exp.size))
        if kind == "map":
            launch = self.launch(exp.width)
            body = self.block(exp.lam.body, exp.lam.params[:1])
            return Node(kind, stmt, (body,), launch=launch)
        if kind == "loop":
            return self.loop(stmt, exp)
        if kind == "if":
            blocks = (self.block(exp.then_block), self.block(exp.else_block))
            return Node(kind, stmt, blocks, results=self.results(stmt))
        return Node(kind, stmt)

    def loop(self, stmt: A.Let, exp: A.Loop) -> Node:
        launch = self.launch(exp.count)
        bound = [exp.index]
        for prm, _ in exp.carried:
            bound.append(prm.name)
            b = binding_of(prm)
            if prm.is_array() and b is not None:
                bound.append(b.mem)
                self.bindings[prm.name] = b
        body = self.block(exp.body, bound)
        per_iteration = {exp.index, *(p.name for p, _ in exp.carried)} | {
            n for s in iter_stmts(exp.body) for n in s.names
        }
        params = []
        for (prm, _), res in zip(exp.carried, exp.body.result):
            b = binding_of(prm) if prm.is_array() else None
            kept = b is not None and self.bindings.get(res) == b and not (
                (b.ixfn.free_vars() | {b.mem}) & per_iteration
            )
            params.append((prm, b, kept))
        return Node(
            "loop", stmt, (body,), launch=launch, params=params,
            results=self.results(stmt),
        )

    def results(self, stmt: A.Let) -> list:
        out = []
        for k, pe in enumerate(stmt.pattern):
            exist = None
            if pe.is_array() and pe.mem is not None:
                if pe.mem.mem not in self.visible:
                    exist = pe.mem.mem
                self.visible.add(pe.mem.mem)
            out.append((k, pe, exist))
        return out


# ----------------------------------------------------------------------
# The vectorized tier's predicate: lane variance
# ----------------------------------------------------------------------
def vector_rule(plan: Plan) -> Optional[Declined]:
    """Why the vectorized tier cannot run ``plan`` (None: it can).

    Any construct whose batched execution could diverge from per-thread
    interpretation -- lane-varying trip counts or shapes, reductions,
    array statements under a lane-varying branch -- declines the whole
    map; the detail names the innermost statement the analysis stopped
    at."""
    try:
        _Lanes(plan.stmt.exp.lam.params[0]).block(plan.root, False)
    except Declined as why:
        return why
    return None


class _Lanes:
    """``tainted``: scalars that may differ between lanes;
    ``lane_arrays``: arrays that may; ``local_mems``: blocks allocated in
    the body."""

    def __init__(self, param: str):
        self.tainted = {param}
        self.lane_arrays: set = set()
        self.local_mems: set = set()

    def block(self, block: Block, masked: bool) -> None:
        for node in block.nodes:
            try:
                self.node(node, masked)
            except Declined as why:
                raise Declined(
                    why.rule, why.detail or f"at {node.stmt.names[0]}"
                ) from None

    def varies(self, names) -> bool:
        return bool(set(names) & self.tainted)

    def shape(self, b) -> None:
        """A region's extents must not differ between lanes (its offsets
        and strides may: that is the point of short-circuited scratch)."""
        for l in b.ixfn.lmads:
            for d in l.dims:
                if self.varies(d.shape.free_vars()):
                    raise declined("lane-varying-shape")

    def bindings(self, stmt: A.Let) -> None:
        for pe in stmt.pattern:
            if pe.is_array():
                if pe.mem is None:
                    raise declined("array-without-binding")
                self.shape(pe.mem)

    def results(self, stmt: A.Let) -> None:
        for pe in stmt.pattern:
            (self.lane_arrays if pe.is_array() else self.tainted).add(pe.name)

    def node(self, node: Node, masked: bool) -> None:
        kind, stmt, exp = node.kind, node.stmt, node.exp
        name = stmt.names[0]
        if kind == "op" and scalar.OPS[exp.op].lanes is None:
            raise declined("not-bit-exact", f"{exp.op} has no bit-exact lane form")
        if kind in ("sym", "op", "alias", "read"):
            if self.varies(A.exp_uses(exp)) or (
                kind == "read" and exp.src in self.lane_arrays
            ):
                self.tainted.add(name)
            return
        if kind == "lit":
            return
        if kind == "reduce":
            raise declined("reduction-in-body")
        if kind == "other":
            raise declined("unsupported", f"{type(exp).__name__} in a map body")
        if kind == "if":
            return self.branch(node, masked)
        # What is left makes arrays or blocks: every lane must run it.
        if masked:
            raise declined("masked-loop" if kind == "loop" else "masked-array-stmt")
        if kind == "alloc":
            if self.varies(exp.size.free_vars()):
                raise declined("lane-varying-shape")
            self.local_mems.add(name)
        elif kind == "map":
            if self.varies(exp.width.free_vars()):
                raise declined("lane-varying-map-width")
            self.bindings(stmt)
            self.tainted.add(exp.lam.params[0])
            self.block(node.blocks[0], False)
            self.results(stmt)
        elif kind == "loop":
            if self.varies(exp.count.free_vars()):
                raise declined("lane-varying-trip-count")
            for prm, _ in exp.carried:
                if not prm.is_array():
                    # A uniform initializer can become lane-varying
                    # through the body: taint conservatively.
                    self.tainted.add(prm.name)
                    continue
                if prm.mem is not None:
                    self.shape(prm.mem)
                self.lane_arrays.add(prm.name)
            self.block(node.blocks[0], False)
            self.bindings(stmt)
            self.results(stmt)
        else:
            self.array(node)

    def array(self, node: Node) -> None:
        stmt, exp = node.stmt, node.exp
        self.bindings(stmt)
        spec = getattr(exp, "spec", None)
        extents = (
            [exp.n] if type(exp) is A.Iota
            else exp.shape if type(exp) is A.Replicate
            else [c for _, c, _ in spec.triplets] if isinstance(spec, A.TripletSpec)
            else [d.shape for d in spec.lmad.dims] if isinstance(spec, A.LmadSpec)
            else ()
        )
        if any(self.varies(e.free_vars()) for e in extents):
            raise declined("lane-varying-shape")
        # A view or copy varies where its binding or its source does;
        # anything else that makes an array is taken to vary.
        pe = stmt.pattern[0]
        b = pe.mem
        src = exp.name if type(exp) is A.VarRef else getattr(exp, "src", None)
        if (
            type(exp) not in _VIEWS
            or self.varies(b.ixfn.free_vars()) or b.mem in self.local_mems
            or src in self.lane_arrays
        ):
            self.lane_arrays.add(pe.name)

    def branch(self, node: Node, masked: bool) -> None:
        stmt, exp = node.stmt, node.exp
        arrays = any(pe.is_array() for pe in stmt.pattern)
        if masked and arrays:
            raise declined("masked-array-stmt")
        then, other = node.blocks
        if self.varies(A.operand_vars(exp.cond)):
            # Both branches run masked; their results are lane vectors.
            if arrays:
                raise declined("lane-varying-array-branch")
            self.block(then, True)
            self.block(other, True)
            self.tainted.update(stmt.names)
            return
        self.block(then, masked)
        self.block(other, masked)
        self.bindings(stmt)
        for pe, tr, er in zip(
            stmt.pattern, exp.then_block.result, exp.else_block.result
        ):
            if pe.is_array():
                self.lane_arrays.add(pe.name)
            elif tr in self.tainted or er in self.tainted:
                self.tainted.add(pe.name)


# ----------------------------------------------------------------------
# The native tier's predicate: what C has no spelling for
# ----------------------------------------------------------------------
def native_rule(plan: Plan) -> Optional[Declined]:
    """Why no C can be printed for ``plan`` whatever the launch (None:
    the printer may try; what depends on the launch it raises itself)."""
    if len(plan.stmt.exp.lam.params) != 1:
        return declined("unsupported", "multi-parameter map lambda")
    return _native_block(plan.root, [True])


def _native_block(block: Block, path: List[Optional[bool]]) -> Optional[Declined]:
    """``path``: per enclosing thread loop, loop or map whether its count
    is launch-evaluable; None for an ``if``."""
    for node in block.nodes:
        kind, exp = node.kind, node.exp
        why = None
        if kind == "reduce":
            why = declined("reduction-in-body")
        elif kind == "other":
            why = declined("unsupported", f"{type(exp).__name__} inside a kernel")
        elif kind == "update" and isinstance(exp.spec, A.LmadSpec):
            why = declined("unsupported", "LMAD-spec update inside a kernel")
        elif kind == "update" and isinstance(exp.spec, A.TripletSpec) and (
            not isinstance(exp.value, str)
        ):
            why = declined("unsupported", "slice update value must be an array variable")
        elif kind != "loop" and any(
            pe.is_array() and pe.mem is None for pe in node.stmt.pattern
        ):
            why = declined("array-without-binding")
        elif kind == "map" and len(exp.lam.params) != 1:
            why = declined("unsupported", "multi-parameter map lambda")
        elif kind == "alloc":
            if None in path:
                why = declined("unsupported", "allocation under a data-dependent branch")
            elif not all(path):
                why = declined("unsupported", "allocation under a non-launch-evaluable loop")
            elif not node.launch:
                why = declined("unsupported", "allocation size not launch-evaluable")
        elif kind == "if" and any(pe.is_array() for pe in node.stmt.pattern):
            why = declined("unsupported", "non-scalar if result inside a kernel")
        level = None if kind == "if" else node.launch
        for sub in node.blocks:
            why = why or _native_block(sub, path + [level])
        if why is not None:
            return why
    return None
