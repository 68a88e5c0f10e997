"""Scalar semantics of the IR: the one place an operator's meaning is written.

The parser and the typechecker read the names and classes; the reference
interpreter and the interpreted executor call ``scalar``; the vectorized
engine converts lane vectors as :func:`op_typing` says and calls ``lanes``;
the C emitter formats ``c``.  A *kind* is ``(dtype, weak)``: Python's own
``int``/``float``/``bool`` are weak (literals, thread and loop indices,
``ScalarE``, ``i64(.)``, comparison results, ``argmin``'s index) and adopt
a strong operand's precision; array elements, ``Lit``, ``f32(.)``/
``f64(.)`` and ``reduce`` results are strong.  :func:`promote` is NEP 50,
once; every tier takes its promotions from here, so each produces the
reference interpreter's bits and dtype, or declines.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

Kind = Tuple[str, bool]

_TYPES = {
    ("bool", True): bool, ("i64", True): int, ("f64", True): float,
    ("bool", False): np.bool_, ("i64", False): np.int64,
    ("f32", False): np.float32, ("f64", False): np.float64,
}
_KIND_OF = {t: k for k, t in _TYPES.items()}
_RANK = {"bool": 0, "i64": 1, "f32": 2, "f64": 3}
_CATEGORY = {"bool": 0, "i64": 1, "f32": 2, "f64": 2}


def kind_of(value) -> Kind:
    """Kind of a scalar *value* (a lane vector cannot say if it is weak);
    ``TypeError`` for anything that is not a scalar of the IR."""
    k = _KIND_OF.get(type(value))
    if k is None:  # a NumPy scalar of another width: the IR's nearest dtype
        if not isinstance(value, (np.bool_, np.integer, np.floating)):
            raise TypeError(f"not a scalar of the IR: {value!r}")
        k = {"b": "bool", "f": "f64"}.get(value.dtype.kind, "i64"), False
    return k


def promote(kx: Kind, ky: Kind) -> Kind:
    """NEP 50: the kind two operands meet in."""
    (dx, wx), (dy, wy) = kx, ky
    if wx == wy:  # NumPy's result_type; among Python scalars, Python's rule
        both = {dx, dy}
        return ("f64" if both == {"i64", "f32"} else max(both, key=_RANK.get)), wx
    strong, weak = (dx, dy) if wy else (dy, dx)
    if _CATEGORY[weak] <= _CATEGORY[strong]:
        return strong, False
    return ("i64" if weak == "i64" else "f64"), False  # the default dtype


@lru_cache(maxsize=None)
def op_typing(
    op: str, kx: Kind, ky: Optional[Kind] = None
) -> Tuple[Optional[str], Optional[Kind]]:
    """``(operand_dtype, result_kind)`` of ``op`` on operands of kinds
    ``kx`` (and ``ky``): the row's class applied to :func:`promote`.

    The operands are converted to ``operand_dtype`` before ``op``
    applies (None: they are used as they are).  ``result_kind`` never
    depends on the values; None means outside the IR -- the NumPy tiers
    give NumPy's own answer, C declines."""
    cls = OPS[op].cls
    if cls in ("comparison", "logical"):
        return (None if cls == "logical" else promote(kx, ky)[0]), ("bool", True)
    if cls == "conversion":
        return None, (op, op == "i64")
    d, w = kx if ky is None else promote(kx, ky)
    if cls == "float-unary":
        return None, (None if d == "bool" else (d if d == "f32" else "f64", False))
    if d == "bool" and (cls != "min-max" or ky is None):
        if not w:  # NumPy booleans are an algebra (int8 for // and pow)
            return None, None
        d = "i64"  # Python's are ints
    return d, ("f64" if cls == "true-division" and d == "i64" else d, w)


def result_kind(op: str, kx: Kind, ky: Optional[Kind] = None) -> Optional[Kind]:
    return op_typing(op, kx, ky)[1]


@dataclass(frozen=True)
class Op:
    arity: int
    #: arithmetic | true-division | floor | min-max | comparison |
    #: logical | conversion | float-unary | sign
    cls: str
    #: NumPy's spelling on scalars -- the definition -- and on lane
    #: vectors already converted to ``op_typing``'s operand dtype; None: NumPy's
    #: array loop does not give its scalar path's bits.
    scalar: Callable
    lanes: Optional[Callable]
    #: C per operand dtype (unary: per result dtype; a ``str``
    #: serves all): binary operands arrive converted, a unary one as it
    #: is.  A dtype without an entry has no bit-exact C form; ``no_c``
    #: says why.
    c: Union[str, Dict[str, str]]
    no_c: str = ""
    #: The C form also covers operands of two different kinds.  Off for
    #: ``min``/``max``: exact since their kind stopped depending on the
    #: values, but a kernel that gains a C form changes the benchmark's
    #: emitted bytes (ROADMAP item 7 flips it).
    c_mixed: bool = True
    flops: int = 1

    def c_form(self, dtype: Optional[str], mixed: bool) -> Optional[str]:
        if mixed and not self.c_mixed:
            return None
        return self.c if isinstance(self.c, str) else self.c.get(dtype)


OPS: Dict[str, Op] = {}


_SAME = object()  # ``lanes`` default: the scalar spelling serves lane vectors


def _op(name, arity, cls, scalar, c, lanes=_SAME, **kw) -> None:
    OPS[name] = Op(arity, cls, scalar, scalar if lanes is _SAME else lanes, c, **kw)


def _kinded(op: str, fn: Callable) -> Callable:
    """``fn`` on scalars, its answer converted to ``result_kind``: an
    operand returned as it came would make the kind depend on the values."""
    to_type: Dict[tuple, Optional[type]] = {}  # operand types -> result type

    def apply(x, y):
        v, types = fn(x, y), (type(x), type(y))
        if types[0] is types[1]:
            return v
        if types not in to_type:
            to_type[types] = _TYPES.get(result_kind(op, kind_of(x), kind_of(y)))
        to = to_type[types]
        return v if to is None or type(v) is to else to(v)

    return apply


_NUMBERS = ("i64", "f32", "f64")
for _name, _fn in (("+", operator.add), ("-", operator.sub), ("*", operator.mul)):
    _op(_name, 2, "arithmetic", _fn, dict.fromkeys(_NUMBERS, f"{{x}} {_name} {{y}}"))
_op("/", 2, "true-division", operator.truediv, {
    "i64": "((double)({x})) / ((double)({y}))", "f32": "{x} / {y}", "f64": "{x} / {y}",
})
_op("//", 2, "floor", operator.floordiv, {"i64": "repro_fdiv({x}, {y})"},
    no_c="float // has no exact C form")
_op("%", 2, "floor", operator.mod, {"i64": "repro_fmod({x}, {y})"},
    no_c="float % has no exact C form")
# ``y < x ? y : x``, not ``np.minimum``: nan and -0.0 go as Python's ``min``.
_op("min", 2, "min-max", _kinded("min", lambda x, y: y if y < x else x),
    "({y} < {x}) ? {y} : {x}", lanes=lambda x, y: np.where(y < x, y, x),
    no_c="mixed-type min/max", c_mixed=False)
_op("max", 2, "min-max", _kinded("max", lambda x, y: y if y > x else x),
    "({y} > {x}) ? {y} : {x}", lanes=lambda x, y: np.where(y > x, y, x),
    no_c="mixed-type min/max", c_mixed=False)
# NumPy's array loop for ``**`` (SIMD; ``x*x``/``sqrt`` for a uniform
# exponent of 2/0.5) and its scalar path differ in the last ulp.
_op("pow", 2, "arithmetic", operator.pow, {}, lanes=None,
    no_c="pow has no bit-exact C form")
for _name, _fn in (("<", operator.lt), ("<=", operator.le), ("==", operator.eq),
                   ("!=", operator.ne), (">", operator.gt), (">=", operator.ge)):
    _op(_name, 2, "comparison", lambda x, y, fn=_fn: bool(fn(x, y)),
        f"({{x}} {_name} {{y}})", lanes=_fn)
_op("&&", 2, "logical", lambda x, y: bool(x) and bool(y), "(({x}) && ({y}))",
    lanes=np.logical_and)
_op("||", 2, "logical", lambda x, y: bool(x) or bool(y), "(({x}) || ({y}))",
    lanes=np.logical_or)
_op("neg", 1, "sign", operator.neg, dict.fromkeys(_NUMBERS, "-({x})"))
_op("abs", 1, "sign", abs, {"i64": "llabs({x})", "f32": "fabsf({x})", "f64": "fabs({x})"})
_op("sqrt", 1, "float-unary", np.sqrt, {"f32": "sqrtf({x})", "f64": "sqrt((double)({x}))"})
_op("exp", 1, "float-unary", np.exp, {}, no_c="exp is not bit-stable across libm/NumPy")
_op("log", 1, "float-unary", np.log, {}, no_c="log is not bit-stable across libm/NumPy")
_op("i64", 1, "conversion", int, "((long long)({x}))", lanes=lambda x: x.astype(np.int64))
_op("f32", 1, "conversion", np.float32, "((float)({x}))",
    lanes=lambda x: x.astype(np.float32))
_op("f64", 1, "conversion", np.float64, "((double)({x}))",
    lanes=lambda x: x.astype(np.float64))

BINARY = frozenset(op for op, row in OPS.items() if row.arity == 2)
UNARY = frozenset(OPS) - BINARY

#: ``reduce (op)``: the array method that folds a whole region.
REDUCTIONS: Dict[str, Callable] = {
    "+": lambda a: a.sum(dtype=a.dtype), "min": np.min, "max": np.max,
}

#: What a C spelling may call, by the call's text, in emission order:
#: each goes only into the translation units whose body uses it (parsing
#: <math.h> costs ``cc`` more than a small kernel does).
PRELUDE = {
    "sqrt": "#include <math.h>\n",
    "fabs": "#include <math.h>\n",
    "llabs(": "#include <stdlib.h>\n",
    "repro_fdiv(": """\
static long long repro_fdiv(long long a, long long b) {
    long long q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
    return q;
}
""",
    "repro_fmod(": """\
static long long repro_fmod(long long a, long long b) {
    long long r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
""",
}

