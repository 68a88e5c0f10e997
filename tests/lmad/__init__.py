"""Test helpers over LMADs: a layout no compiler path builds, and the
brute-force offset enumeration the symbolic analyses are checked
against."""

from typing import List, Mapping, Sequence

from repro.lmad import Lmad, LmadDim
from repro.symbolic import sym


def col_major(shape: Sequence, offset=0) -> Lmad:
    """C(d1..dq): column-major layout, outermost dimension stride 1."""
    dims = []
    stride = sym(1)
    for extent in map(sym, shape):
        dims.append(LmadDim(extent, stride))
        stride = stride * extent
    return Lmad(sym(offset), tuple(dims))


def enumerate_offsets(l: Lmad, env: Mapping[str, int]) -> List[int]:
    """All flat offsets of ``l`` under ``env``, in iteration order."""
    inst = l.evaluate(dict(env))
    offsets = [inst.offset.as_int()]
    if offsets[0] is None:
        raise ValueError("LMAD not concrete")
    for d in inst.dims:
        n, s = d.shape.as_int(), d.stride.as_int()
        if n is None or s is None:
            raise ValueError("LMAD not concrete")
        offsets = [o + i * s for o in offsets for i in range(n)]
    return offsets
