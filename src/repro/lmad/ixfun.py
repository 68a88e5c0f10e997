"""Index functions: mapping array indices to flat memory offsets.

An :class:`IndexFn` associates an array with its memory layout (paper
section IV).  Most arrays are described by a *single* LMAD, and every
change-of-layout operation (transposition, triplet slicing, LMAD slicing,
reversal, many reshapes) is O(1): it produces a new single-LMAD index
function without touching memory.

Arbitrary reshapes are the exception (paper fig. 3): flattening a
non-compact layout cannot be expressed as one LMAD, so an index function is
in general a *composition* of LMADs.  Application then works right-to-left:

    apply the innermost LMAD to the index tuple, producing a row-major
    "rank" in the index space of the next LMAD; unrank it to a point;
    apply that LMAD; repeat.

Unranking requires concrete integers (divisions), so composed index
functions only support concrete application -- which is exactly the paper's
observation that "unranking involves costly division and remainder
operations at run-time, but fortunately this case rarely occurs".

Storage convention: ``lmads[0]`` is the memory-side (outermost) LMAD and
``lmads[-1]`` is the index-side (innermost) one; the array's visible shape
is ``lmads[-1].shape``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lmad.lmad import Lmad, Triplet
from repro.symbolic import Prover, SymExpr, sym
from repro.symbolic.expr import ExprLike


@dataclass(frozen=True)
class IndexFn:
    """A composition of LMADs acting as an array's index function."""

    lmads: Tuple[Lmad, ...]

    def __post_init__(self):
        if not self.lmads:
            raise ValueError("an index function needs at least one LMAD")
        object.__setattr__(self, "lmads", tuple(self.lmads))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def row_major(shape: Sequence[ExprLike], offset: ExprLike = 0) -> "IndexFn":
        """R(d1..dq): the default layout given to fresh arrays."""
        return IndexFn((Lmad.row_major(shape, offset),))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def inner(self) -> Lmad:
        """The index-side LMAD (defines the visible shape)."""
        return self.lmads[-1]

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def shape(self) -> Tuple[SymExpr, ...]:
        return self.inner.shape

    def is_single(self) -> bool:
        return len(self.lmads) == 1

    def as_single(self) -> Optional[Lmad]:
        return self.lmads[0] if self.is_single() else None

    def free_vars(self) -> frozenset:
        # Cached in ``__dict__`` like the memos below, and like them never
        # pickled or copied.
        fv = self.__dict__.get("_fv")
        if fv is None:
            fv = frozenset().union(*(l.free_vars() for l in self.lmads))
            object.__setattr__(self, "_fv", fv)
        return fv

    def size(self) -> SymExpr:
        return self.inner.size()

    # ------------------------------------------------------------------
    # Instance memoization
    #
    # Index functions are immutable, and the executor's hot paths apply
    # the same handful of derivations to the same instance over and over
    # (``fix_dim(0, i)`` once per thread per launch, ``substitute`` once
    # per loop iteration, ``lmad_slice`` per gather).  The dataclass is
    # frozen but not slotted, so per-instance caches can live in
    # ``__dict__`` without affecting the generated field-based
    # ``__eq__``/``__hash__``.  Entries are themselves immutable, so
    # sharing the returned instances is safe.  The memos pay off when one
    # shape is re-run; an index function that lives in a cached program
    # sees new keys with every never-seen shape, so each memo restarts at
    # ``MEMO_CAP`` entries, and none of them is serialized or copied.
    # ------------------------------------------------------------------
    #: Entries one memo of one instance may hold before it restarts.
    MEMO_CAP = 256

    def _memo(self, name: str) -> dict:
        cache = self.__dict__.get(name)
        if cache is None:
            cache = {}
            object.__setattr__(self, name, cache)
        elif len(cache) >= self.MEMO_CAP:
            cache.clear()
        return cache

    def __reduce__(self):
        """``pickle`` and ``deepcopy`` carry the field, never the memos."""
        return (IndexFn, (self.lmads,))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "IndexFn":
        key = tuple(sorted((k, sym(v)) for k, v in mapping.items()))
        cache = self._memo("_subst_cache")
        hit = cache.get(key)
        if hit is None:
            hit = IndexFn(tuple(l.substitute(mapping) for l in self.lmads))
            cache[key] = hit
        return hit

    def var_order(self) -> Tuple[str, ...]:
        """The free variables, sorted: the order :meth:`instantiate`
        takes their values in (cached like :meth:`free_vars`)."""
        order = self.__dict__.get("_fvo")
        if order is None:
            order = tuple(sorted(self.free_vars()))
            object.__setattr__(self, "_fvo", order)
        return order

    def instantiate(self, values: Tuple[int, ...]) -> "IndexFn":
        """:meth:`substitute` of Python ints given in :meth:`var_order`
        (the executor's instantiation), memoized by the tuple itself."""
        cache = self._memo("_subst_cache")  # no key of substitute's
        hit = cache.get(values)
        if hit is None:
            mapping = dict(zip(self.var_order(), values))
            hit = IndexFn(tuple(l.substitute(mapping) for l in self.lmads))
            cache[values] = hit
        return hit

    def is_direct(self, prover: Prover) -> bool:
        """Row-major with zero offset?  (The layout ``copy`` would produce.)"""
        single = self.as_single()
        if single is None:
            return False
        expected = Lmad.row_major(single.shape)
        if not prover.eq(single.offset, sym(0)):
            return False
        return all(
            prover.eq(d.stride, e.stride)
            for d, e in zip(single.dims, expected.dims)
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_concrete(
        self, indices: Sequence[int], env: Mapping[str, int]
    ) -> int:
        """Flat offset for concrete indices (handles compositions).

        This is the executable semantics of paper fig. 3: apply the
        innermost LMAD, then repeatedly unrank through the remaining ones.
        """
        offset = self.lmads[-1].evaluate(env).apply([sym(i) for i in indices])
        val = offset.as_int()
        if val is None:
            raise ValueError(f"indices not concrete under {env}")
        for l in reversed(self.lmads[:-1]):
            inst = l.evaluate(env)
            shape = inst.concrete_shape(env)
            point = np.unravel_index(val, shape)
            val = inst.apply([sym(int(p)) for p in point]).as_int()
            assert val is not None
        return val

    def gather_offsets(self, env: Mapping[str, int]) -> np.ndarray:
        """All flat offsets as an ndarray of the array's concrete shape.

        Used by the memory-IR executor to read/write arrays with arbitrary
        layouts from flat buffers, and by tests as ground truth for the
        abstract-set machinery.
        """
        inst = self.lmads[-1].evaluate(env)
        shape = inst.concrete_shape(env)
        offs = np.full(shape, int(inst.offset.as_int()), dtype=np.int64)
        for axis, d in enumerate(inst.dims):
            n = d.shape.as_int()
            s = d.stride.as_int()
            idx_shape = [1] * len(shape)
            idx_shape[axis] = n
            offs = offs + (np.arange(n, dtype=np.int64) * s).reshape(idx_shape)
        for l in reversed(self.lmads[:-1]):
            outer = l.evaluate(env)
            oshape = outer.concrete_shape(env)
            points = np.unravel_index(offs, oshape)
            acc = np.full(offs.shape, int(outer.offset.as_int()), dtype=np.int64)
            for coord, d in zip(points, outer.dims):
                acc = acc + coord.astype(np.int64) * int(d.stride.as_int())
            offs = acc
        return offs

    # ------------------------------------------------------------------
    # Change-of-layout transformations (paper section IV-B) -- all O(1)
    # ------------------------------------------------------------------
    def _replace_inner(self, new_inner: Lmad) -> "IndexFn":
        return IndexFn(self.lmads[:-1] + (new_inner,))

    def permute(self, perm: Sequence[int]) -> "IndexFn":
        return self._replace_inner(self.inner.permute(perm))

    def transpose(self) -> "IndexFn":
        return self._replace_inner(self.inner.transpose())

    def slice_triplets(self, triplets: Sequence[Triplet]) -> "IndexFn":
        return self._replace_inner(self.inner.slice_triplets(triplets))

    def fix_dim(self, k: int, index: ExprLike) -> "IndexFn":
        key = (k, sym(index))
        cache = self._memo("_fix_cache")
        hit = cache.get(key)
        if hit is None:
            hit = self._replace_inner(self.inner.fix_dim(k, index))
            cache[key] = hit
        return hit

    def reverse(self, k: int) -> "IndexFn":
        return self._replace_inner(self.inner.reverse(k))

    def lmad_slice(self, slice_lmad: Lmad) -> "IndexFn":
        """Generalized LMAD slicing of a rank-1 array (paper section III-B)."""
        cache = self._memo("_slice_cache")
        hit = cache.get(slice_lmad)
        if hit is None:
            hit = self._replace_inner(self.inner.compose_slice(slice_lmad))
            cache[slice_lmad] = hit
        return hit

    def reshape(
        self, new_shape: Sequence[ExprLike], prover: Prover
    ) -> "IndexFn":
        """Reshape, composing a fresh LMAD when a single one cannot express it.

        The caller (type checker) guarantees the element counts agree; this
        method never fails, it just may produce a composed index function
        whose application requires run-time unranking (paper fig. 3).
        """
        direct = self.inner.reshape(new_shape, prover)
        if direct is not None:
            return self._replace_inner(direct)
        return IndexFn(self.lmads + (Lmad.row_major(new_shape),))

    def flatten(self, prover: Prover) -> "IndexFn":
        return self.reshape([self.size()], prover)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if self.is_single():
            return str(self.lmads[0])
        return " o ".join(str(l) for l in self.lmads)
