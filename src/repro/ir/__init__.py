"""The core intermediate representation of the array language.

This package implements the "informally specified functional language,
equivalent to a subset of Futhark's core IR" of paper section II-C:

* a standard functional language in administrative normal form -- every
  statement binds a *pattern* of variables to one expression whose operands
  are variables or literals;
* parallelism expressed with :class:`~repro.ir.ast.Map` (the paper's
  ``mapnest``) and :class:`~repro.ir.ast.Reduce`;
* sequential ``loop`` and ``if`` compound statements that carry values
  (including arrays) across control flow;
* fresh-array constructors ``iota``, ``scratch``, ``copy``, ``concat`` and
  O(1) change-of-layout operations ``transpose``/``rearrange``, triplet and
  LMAD slicing, ``reshape``, ``reverse``;
* in-place updates ``A with [W] = X`` whose safety rests on the uniqueness
  discipline checked by :mod:`~repro.ir.typecheck`.

The same AST is reused by the memory pipeline: memory annotations
(:class:`~repro.mem.memir.MemBinding`) are attached to pattern elements as
an *add-on*, so that "if the memory annotations are deleted, the program
remains semantically unchanged" (paper section I).
"""

from repro.ir.types import ArrayType, ScalarType, Type, f32, i64
from repro.ir.ast import (
    Alloc,
    ArgMin,
    BinOp,
    Block,
    Concat,
    Copy,
    Fun,
    If,
    Index,
    Iota,
    Lambda,
    Let,
    Lit,
    LmadSlice,
    Loop,
    Map,
    Param,
    PatElem,
    Rearrange,
    Reduce,
    Replicate,
    Reshape,
    Reverse,
    Scratch,
    SliceT,
    UnOp,
    Update,
    VarRef,
)
from repro.ir.builder import FunBuilder
from repro.ir.interp import Interpreter, run_fun
from repro.ir.typecheck import TypeError_, typecheck_fun
from repro.ir.alias import AliasInfo, analyze_aliases
from repro.ir.lastuse import LastUseInfo, analyze_last_uses

__all__ = [
    "ArrayType",
    "ScalarType",
    "Type",
    "f32",
    "i64",
    "Alloc",
    "ArgMin",
    "BinOp",
    "Block",
    "Concat",
    "Copy",
    "Fun",
    "If",
    "Index",
    "Iota",
    "Lambda",
    "Let",
    "Lit",
    "LmadSlice",
    "Loop",
    "Map",
    "Param",
    "PatElem",
    "Rearrange",
    "Reduce",
    "Replicate",
    "Reshape",
    "Reverse",
    "Scratch",
    "SliceT",
    "UnOp",
    "Update",
    "VarRef",
    "FunBuilder",
    "Interpreter",
    "run_fun",
    "TypeError_",
    "typecheck_fun",
    "AliasInfo",
    "analyze_aliases",
    "LastUseInfo",
    "analyze_last_uses",
]
