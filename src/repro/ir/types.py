"""Types of the core IR: scalars and arrays with symbolic shapes.

Array shapes are tuples of :class:`repro.symbolic.SymExpr`, so programs are
*shape-polymorphic*: one IR program covers every dataset size, and the
compiler's index analyses reason about the symbolic shapes directly.

Uniqueness (the ``*`` annotation of Futhark) marks arrays that may be
consumed by in-place updates; the type checker enforces that a consumed
array is dead afterwards (paper section II-C, citing the PLDI'17 uniqueness
type system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.symbolic import SymExpr, sym
from repro.symbolic.expr import ExprLike

#: Element types supported by the mini-language.
DTYPES = ("i64", "f32", "f64", "bool")

#: numpy dtype string and element size in bytes for each IR dtype.
DTYPE_INFO = {
    "i64": ("int64", 8),
    "f32": ("float32", 4),
    "f64": ("float64", 8),
    "bool": ("bool", 1),
}


@dataclass(frozen=True)
class ScalarType:
    """A primitive type: ``i64``, ``f32``, ``f64`` or ``bool``."""

    dtype: str

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}")

    def __str__(self) -> str:
        return self.dtype


@dataclass(frozen=True)
class ArrayType:
    """An array type ``[d1]..[dq]dtype`` with symbolic dimensions.

    ``unique`` corresponds to Futhark's ``*`` annotation: the value may be
    consumed (updated in place).
    """

    dtype: str
    shape: Tuple[SymExpr, ...]
    unique: bool = False

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        object.__setattr__(self, "shape", tuple(sym(s) for s in self.shape))

    @property
    def rank(self) -> int:
        return len(self.shape)

    def size(self) -> SymExpr:
        total: SymExpr = sym(1)
        for s in self.shape:
            total = total * s
        return total

    def __str__(self) -> str:
        dims = "".join(f"[{s}]" for s in self.shape)
        star = "*" if self.unique else ""
        return f"{star}{dims}{self.dtype}"


Type = Union[ScalarType, ArrayType]


def f32(*shape: ExprLike) -> Type:
    """``f32(n, m)`` is ``[n][m]f32``; ``f32()`` is the scalar type."""
    return ArrayType("f32", tuple(shape)) if shape else ScalarType("f32")


def i64(*shape: ExprLike) -> Type:
    return ArrayType("i64", tuple(shape)) if shape else ScalarType("i64")

