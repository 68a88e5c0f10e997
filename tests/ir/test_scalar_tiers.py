"""Every operator x every pair of operand kinds, on every executor tier.

The invariant of :mod:`repro.ir.scalar`: a tier either produces the
reference interpreter's bits *and dtype*, or declines with a recorded
:class:`~repro.decisions.Decision` naming the operator and the next
tier serves the launch.  No tier raises, and none decides a promotion
the table did not.

One single-``map`` program per case.  Operand kinds: something derived
from the thread index and an int and a float literal (weak: Python
scalars per thread), two ``i64``, two ``f32`` and one ``f64`` array
element (strong).  The result is widened with ``f64(.)`` so that a
value computed in the wrong precision shows in the bits, and the data
holds what separates the spellings a tier might pick: ``nan`` and
``+-0.0`` (``np.minimum`` against ``y < x ? y : x``), ``16777217``
(``float32`` against ``float64``), negative integers (floor against
truncating division).
"""

import warnings

import numpy as np
import pytest

from repro import FunBuilder, compile_fun
from repro.backend import NativeEngine, native_enabled
from repro.backend.engine import REJECTED
from repro.ir import scalar
from repro.ir.interp import run_fun
from repro.ir.types import ArrayType
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.symbolic import Var

pytestmark = pytest.mark.gate

N = 12
INPUTS = {
    "n": N,
    "ia": np.array([3, -7, 16777217, 1, 5, -1, 2, 9, -16777217, 1, 4, -3]),
    "ib": np.array([2, 3, -2, 7, -5, 1, 16777217, -9, 3, 2, -4, 6]),
    "fa": np.array(
        [1.0, np.nan, -0.0, 0.0, 16777217, 0.1, -2.5, 3.0, 1e-3, 2.0, -0.0, 7.5],
        dtype=np.float32,
    ),
    "fb": np.array(
        [0.5, 1.0, 0.0, -0.0, 1.1, np.nan, 2.0, -3.0, 4.0, 0.3, 1.0, -7.5],
        dtype=np.float32,
    ),
    "da": np.array(
        [0.1, 2.0, -0.0, np.nan, 1 / 3, 16777217.0, -1.5, 3.0, 0.0, 1e-9, 5.0, 2.5]
    ),
}
#: What raises in NumPy itself is left out: ``int ** negative int``
#: (``pow`` sees small non-negative integers) and ``int(nan)``.
SPECIAL = {
    "pow": dict(INPUTS, ia=np.abs(INPUTS["ia"]) % 7, ib=np.abs(INPUTS["ib"]) % 5),
    "i64": {
        k: np.nan_to_num(v, nan=-1.25) if k in ("fa", "fb", "da") else v
        for k, v in INPUTS.items()
    },
}

LITERALS = {"int": 3, "float": 1.1}
ELEMENTS = {"i64a": "ia", "i64b": "ib", "f32a": "fa", "f32b": "fb", "f64": "da"}
KINDS = ["thread", *LITERALS, *ELEMENTS]
DTYPES = {"ia": "i64", "ib": "i64", "fa": "f32", "fb": "f32", "da": "f64"}


def program(op, kinds):
    n = Var("n")
    b = FunBuilder(f"case_{'_'.join(kinds)}")
    b.size_param("n")
    arrays = {p: b.param(p, ArrayType(dt, (n,))) for p, dt in DTYPES.items()}
    mp = b.map_(n, index="i")
    operands = [
        mp.idx + 1 if k == "thread"  # never a zero divisor
        else LITERALS[k] if k in LITERALS
        else mp.index(arrays[ELEMENTS[k]], [mp.idx])
        for k in kinds
    ]
    r = mp.binop(op, *operands) if len(kinds) == 2 else mp.unop(op, *operands)
    mp.returns(mp.unop("f64", r))
    b.returns(*mp.end())
    return b.build()


def cases(op):
    if scalar.OPS[op].arity == 1:
        return [(k,) for k in KINDS if k not in ("i64b", "f32b")]
    return [
        (x, y) for x in KINDS for y in KINDS
        if not (x in LITERALS and y in LITERALS)
    ]


def tiers():
    yield "interpreted", dict(vectorize=False)
    yield "vectorized", dict()
    if native_enabled():
        yield "native", dict(native=NativeEngine({}))


def served_or_declined(tier, kw, ex, stats, stmt, op):
    """The tier ran the launch, or says in a record why it did not
    (an emitter crash is a record too -- ``internal-error`` -- and is
    not one of the two rules a tier may decline under)."""
    if tier == "vectorized" and not stats.vec_launches:
        why = ex._vec_plans[id(stmt)].declined
    elif tier == "native" and not stats.native_launches:
        assert kw["native"].plans[id(stmt)] is REJECTED
        (why,) = kw["native"].declined.records
    else:
        return
    assert why.rule in ("not-bit-exact", "unsupported"), why
    assert op.strip("&|") in why.detail or op in why.detail, why


@pytest.mark.parametrize("op", list(scalar.OPS))
def test_every_tier_gives_the_reference_bits_or_declines(op):
    inputs = SPECIAL.get(op, INPUTS)
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # nan, x / 0.0
        for kinds in cases(op):
            src = program(op, kinds)
            (ref,) = run_fun(src, **inputs)
            fun = compile_fun(src, pipeline="full").fun
            (stmt,) = [s for s in fun.body.stmts if s.names[0] == src.body.result[0]]
            for tier, kw in tiers():
                ex = MemExecutor(fun, **kw)
                try:
                    (val,), stats = ex.run(**inputs)
                    served_or_declined(tier, kw, ex, stats, stmt, op)
                except Exception as e:  # the invariant: no tier raises
                    bad.append((kinds, tier, repr(e)))
                    continue
                out = materialize(ex, val)
                if out.dtype != ref.dtype or out.tobytes() != ref.tobytes():
                    bad.append((kinds, tier, out, ref))
    assert not bad, f"{op}: {len(bad)} of {len(cases(op))} cases\n" + "\n".join(
        map(str, bad[:6])
    )


def test_the_grid_covers_every_operator_and_kind_pair():
    assert sum(len(cases(op)) for op in scalar.OPS) == 17 * 60 + 8 * 6


# -- the table against NumPy itself -----------------------------------------
SCALARS = {
    ("bool", True): True, ("i64", True): 3, ("f64", True): 1.5,
    ("bool", False): np.True_, ("i64", False): np.int64(3),
    ("f32", False): np.float32(1.5), ("f64", False): np.float64(1.5),
}
KIND_OF_TYPE = {type(v): k for k, v in SCALARS.items()}


def _meet(pick, np_pick):
    """NumPy's ``minimum``; between two Python scalars, Python's ``min``
    -- which returns an operand, so its kind would depend on the values:
    the IR converts it to the kind the two meet in, as NumPy does."""

    def apply(x, y):
        if not {type(x), type(y)} <= {bool, int, float}:
            return np_pick(x, y)
        return pick(x, y) if type(x) is type(y) else type(x + y)(pick(x, y))

    return apply


#: Each operator on two scalars as NumPy (for two Python scalars,
#: Python) has it -- spelled here, not read from the table.
NUMPY = {
    "+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
    "/": lambda x, y: x / y, "//": lambda x, y: x // y, "%": lambda x, y: x % y,
    "pow": lambda x, y: x ** y,
    "min": _meet(min, np.minimum), "max": _meet(max, np.maximum),
    "<": lambda x, y: bool(x < y), "<=": lambda x, y: bool(x <= y),
    "==": lambda x, y: bool(x == y), "!=": lambda x, y: bool(x != y),
    ">": lambda x, y: bool(x > y), ">=": lambda x, y: bool(x >= y),
    "&&": lambda x, y: bool(x) and bool(y), "||": lambda x, y: bool(x) or bool(y),
    "neg": lambda x: -x, "abs": abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "i64": int, "f32": np.float32, "f64": np.float64,
}


@pytest.mark.parametrize("op", list(scalar.OPS))
def test_result_kind_is_numpys(op):
    assert set(NUMPY) == set(scalar.OPS)
    arity, cls = scalar.OPS[op].arity, scalar.OPS[op].cls
    for kinds in (
        [(k,) for k in SCALARS] if arity == 1
        else [(kx, ky) for kx in SCALARS for ky in SCALARS]
    ):
        try:
            want = KIND_OF_TYPE.get(type(NUMPY[op](*(SCALARS[k] for k in kinds))))
        except TypeError:  # "numpy boolean subtract ... is not supported"
            want = None
        # The one place the IR does not follow: NumPy booleans form an
        # algebra (``+`` is or, ``//`` gives int8, ``abs`` is identity).
        if cls in ("arithmetic", "true-division", "floor", "sign") and all(
            d == "bool" for d, _ in kinds
        ) and not all(weak for _, weak in kinds):
            want = None
        assert scalar.result_kind(op, *kinds) == want, (op, kinds)
        if want is not None:
            got = scalar.OPS[op].scalar(*(SCALARS[k] for k in kinds))
            assert KIND_OF_TYPE[type(got)] == want, (op, kinds)
