"""Shared helpers: small compiled programs and targeted IR mutations.

The negative corpus works by compiling a *correct* program and then
hand-breaking one invariant in the memory annotations -- exactly the
kind of damage a buggy pass would do -- and asserting the matching rule
fires.  Building broken programs from source would not work: the
front-end refuses them long before the memory IR exists.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32
from repro.ir import ast as A
from repro.mem.memir import iter_stmts
from repro.symbolic import Var

n = Var("n")


def simple_fun() -> A.Fun:
    """``X = map i<n. 2*x[i];  s = reduce + x`` -- a fresh map result in
    its own alloc plus a later read of the input, so clobbering ``x_mem``
    is observable."""
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (X,) = mp.end()
    s = b.reduce("+", x)
    b.returns(X, s)
    return b.build()


@pytest.fixture
def compiled_simple() -> A.Fun:
    return compile_fun(simple_fun(), pipeline="nosc").fun


def find_stmt(fun: A.Fun, pred) -> A.Let:
    for stmt in iter_stmts(fun.body):
        if pred(stmt):
            return stmt
    raise AssertionError("no statement matches the predicate")


def map_stmt(fun: A.Fun) -> A.Let:
    return find_stmt(fun, lambda s: isinstance(s.exp, A.Map))


def array_pat(stmt: A.Let) -> A.PatElem:
    for pe in stmt.pattern:
        if pe.is_array():
            return pe
    raise AssertionError("statement has no array result")
