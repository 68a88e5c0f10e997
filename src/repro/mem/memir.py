"""Memory bindings: the add-on that ties arrays to memory blocks.

A :class:`MemBinding` pairs the name of a memory block (bound by an
``alloc`` statement, a function parameter's implicit block, or an
existential binding returned from ``if``/``loop``) with the
:class:`repro.lmad.IndexFn` describing where each element lives in that
block.

Deleting every binding recovers the original functional program -- no
semantic content lives here (paper section I).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Union

from repro.lmad import IndexFn
from repro.ir import ast as A
from repro.ir.types import ArrayType, ScalarType

#: Type used for memory-block pattern elements.
MEM_TYPE = ScalarType("i64")


@dataclass(frozen=True)
class MemBinding:
    """``array @ mem -> ixfn``: where an array's elements live."""

    mem: str
    ixfn: IndexFn

    def __str__(self) -> str:
        return f"{self.mem} -> {self.ixfn}"

    def with_ixfn(self, ixfn: IndexFn) -> "MemBinding":
        return MemBinding(self.mem, ixfn)


def param_mem_name(param: str) -> str:
    """Memory block name for an array function parameter."""
    return f"{param}_mem"


def clone_fun(fun: A.Fun) -> A.Fun:
    """Deep copy of a function so passes can annotate without aliasing."""
    return copy.deepcopy(fun)


def binding_of(binder: Union[A.PatElem, A.Param]) -> Optional[MemBinding]:
    """Where ``binder``'s array lives -- the one answer for every binder.

    A pattern element or loop parameter carries its binding in ``mem``
    (``None`` for scalars and before memory introduction); an array-typed
    function parameter lives row-major in its implicit ``<p>_mem`` block,
    which is spelled here and nowhere else.
    """
    if isinstance(binder, A.Param):
        if not isinstance(binder.type, ArrayType):
            return None
        return MemBinding(
            param_mem_name(binder.name), IndexFn.row_major(binder.type.shape)
        )
    return binder.mem


def entry_bindings(fun: A.Fun) -> Dict[str, MemBinding]:
    """The bindings in scope at function entry: the array parameters'."""
    return {
        p.name: b for p in fun.params if (b := binding_of(p)) is not None
    }


def binders(stmt: A.Let) -> Iterator[A.PatElem]:
    """Every binder a statement introduces: its pattern elements, then --
    for a loop -- the loop's parameters (in scope inside the body only)."""
    yield from stmt.pattern
    if isinstance(stmt.exp, A.Loop):
        for prm, _ in stmt.exp.carried:
            yield prm


def iter_stmts(block: A.Block) -> Iterator[A.Let]:
    """All statements of a block, including nested ones, preorder."""
    for stmt in block.stmts:
        yield stmt
        for blk in A.sub_blocks(stmt.exp):
            yield from iter_stmts(blk)


def array_bindings(fun: A.Fun) -> Dict[str, MemBinding]:
    """Map from array variable name to its memory binding (post-introduce).

    Function parameters are included with their implicit bindings.
    """
    out = entry_bindings(fun)
    for stmt in iter_stmts(fun.body):
        for b in binders(stmt):
            if b.mem is not None:
                out[b.name] = b.mem
    return out
