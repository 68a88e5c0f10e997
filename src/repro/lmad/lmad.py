"""The LMAD data type and its structural operations.

A q-dimensional LMAD ``t + {(n1:s1), ..., (nq:sq)}`` (paper eq. (1)) is an
offset expression ``t`` plus a sequence of dimensions, each with a
*cardinality* (number of points) and a *stride* (flat distance between two
consecutive points along that dimension).  All three components are symbolic
integer polynomials (:class:`repro.symbolic.SymExpr`), so a single LMAD value
can describe the accesses of a whole loop nest parametrically.

Two readings of the same value (paper sections II-B and IV-A):

* as an **index function** it maps the index tuple ``(y1..yq)`` to the flat
  offset ``t + sum yi*si`` (order of dimensions matters; negative strides
  mean reversal);
* as an **abstract set** it denotes the union of all reachable offsets
  (order does not matter, and negative strides can be normalized away).

Structural operations here are exact and purely syntactic.  Everything that
needs an assumption context (positivity of strides, equality of sizes) takes
a :class:`repro.symbolic.prove.Prover`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.symbolic import Prover, SymExpr, sym
from repro.symbolic.expr import ExprLike


@dataclass(frozen=True)
class LmadDim:
    """One LMAD dimension: ``(shape : stride)``."""

    shape: SymExpr
    stride: SymExpr

    def __post_init__(self):
        object.__setattr__(self, "shape", sym(self.shape))
        object.__setattr__(self, "stride", sym(self.stride))

    def substitute(self, mapping: Mapping[str, ExprLike]) -> "LmadDim":
        return LmadDim(self.shape.substitute(mapping), self.stride.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.shape} : {self.stride})"


#: A triplet slice entry: (start, count, step) in *index space* of one
#: dimension, mirroring the paper's ``A[start : count : step]`` notation.
Triplet = Tuple[ExprLike, ExprLike, ExprLike]


@dataclass(frozen=True)
class Lmad:
    """An LMAD: symbolic offset plus dimensions, outermost first."""

    offset: SymExpr
    dims: Tuple[LmadDim, ...]

    def __post_init__(self):
        object.__setattr__(self, "offset", sym(self.offset))
        object.__setattr__(self, "dims", tuple(self.dims))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def row_major(shape: Sequence[ExprLike], offset: ExprLike = 0) -> "Lmad":
        """R(d1..dq): row-major layout, innermost dimension stride 1."""
        shape = [sym(s) for s in shape]
        dims: List[LmadDim] = []
        stride: SymExpr = sym(1)
        for extent in reversed(shape):
            dims.append(LmadDim(extent, stride))
            stride = stride * extent
        return Lmad(sym(offset), tuple(reversed(dims)))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> Tuple[SymExpr, ...]:
        return tuple(d.shape for d in self.dims)

    def size(self) -> SymExpr:
        """Number of points described (product of cardinalities)."""
        total: SymExpr = sym(1)
        for d in self.dims:
            total = total * d.shape
        return total

    def free_vars(self) -> frozenset:
        out = set(self.offset.free_vars())
        for d in self.dims:
            out |= d.shape.free_vars()
            out |= d.stride.free_vars()
        return frozenset(out)

    def apply(self, indices: Sequence[ExprLike]) -> SymExpr:
        """Index-function application: flat offset of ``self[indices]``."""
        if len(indices) != self.rank:
            raise ValueError(
                f"rank mismatch: LMAD has rank {self.rank}, got "
                f"{len(indices)} indices"
            )
        total = self.offset
        for idx, d in zip(indices, self.dims):
            total = total + sym(idx) * d.stride
        return total

    # ------------------------------------------------------------------
    # Index-space transformations (paper section IV-B)
    # ------------------------------------------------------------------
    def permute(self, perm: Sequence[int]) -> "Lmad":
        """Permute dimensions; ``perm[i]`` is the source of new dim ``i``."""
        if sorted(perm) != list(range(self.rank)):
            raise ValueError(f"not a permutation of rank {self.rank}: {perm}")
        return Lmad(self.offset, tuple(self.dims[p] for p in perm))

    def transpose(self) -> "Lmad":
        """Reverse the dimension order (full transposition)."""
        return Lmad(self.offset, tuple(reversed(self.dims)))

    def slice_triplets(self, triplets: Sequence[Triplet]) -> "Lmad":
        """Apply a per-dimension triplet slice ``(start, count, step)``.

        The new offset accumulates ``start_k * stride_k``; each dimension
        becomes ``(count_k : step_k * stride_k)``.  Negative steps express
        reversal.  Rank is preserved (use :meth:`fix_dim` to drop one).
        """
        if len(triplets) != self.rank:
            raise ValueError("need one triplet per dimension")
        offset = self.offset
        dims: List[LmadDim] = []
        for (start, count, step), d in zip(triplets, self.dims):
            offset = offset + sym(start) * d.stride
            dims.append(LmadDim(sym(count), sym(step) * d.stride))
        return Lmad(offset, tuple(dims))

    def fix_dim(self, k: int, index: ExprLike) -> "Lmad":
        """Fix dimension ``k`` at ``index``, dropping it from the rank."""
        d = self.dims[k]
        offset = self.offset + sym(index) * d.stride
        dims = self.dims[:k] + self.dims[k + 1 :]
        return Lmad(offset, dims)

    def reverse(self, k: int) -> "Lmad":
        """Reverse dimension ``k`` (index function reading; paper footnote 13)."""
        d = self.dims[k]
        offset = self.offset + (d.shape - 1) * d.stride
        dims = list(self.dims)
        dims[k] = LmadDim(d.shape, -d.stride)
        return Lmad(offset, tuple(dims))

    def compose_slice(self, slice_lmad: "Lmad") -> "Lmad":
        """Apply a generalized LMAD slice to a rank-1 LMAD.

        ``self`` must be rank 1 (a flat view with stride ``s`` and offset
        ``t``); ``slice_lmad`` selects flat positions of that view, so the
        result is ``t + slice.offset*s + {(n_k : s_k * s)}``.  This is how
        the NW anti-diagonal slices of paper section III-B are resolved to
        memory.
        """
        if self.rank != 1:
            raise ValueError(
                "LMAD slices apply to rank-1 (flat) arrays; got rank "
                f"{self.rank}"
            )
        s = self.dims[0].stride
        offset = self.offset + slice_lmad.offset * s
        dims = tuple(LmadDim(d.shape, d.stride * s) for d in slice_lmad.dims)
        return Lmad(offset, dims)

    # ------------------------------------------------------------------
    # Reshaping (exact cases; general case handled at IndexFn level)
    # ------------------------------------------------------------------
    def coalesce_all(self, prover: Prover) -> Optional["Lmad"]:
        """Merge all dimensions into one if the layout is row-major-compact.

        Adjacent dims ``(n_out : s_out), (n_in : s_in)`` merge when
        ``s_out == n_in * s_in``.  Returns a rank-1 LMAD or ``None``.
        Rank-0 LMADs coalesce to a single unit dimension.
        """
        if self.rank == 0:
            return Lmad(self.offset, (LmadDim(sym(1), sym(1)),))
        merged = self.dims[-1]
        for d in reversed(self.dims[:-1]):
            if prover.eq(d.stride, merged.shape * merged.stride):
                merged = LmadDim(d.shape * merged.shape, merged.stride)
            elif prover.eq(d.shape, sym(1)):
                merged = LmadDim(merged.shape, merged.stride)
            elif prover.eq(merged.shape, sym(1)):
                merged = LmadDim(d.shape, d.stride)
            else:
                return None
        return Lmad(self.offset, (merged,))

    def split_into(
        self, new_shape: Sequence[ExprLike], prover: Prover
    ) -> Optional["Lmad"]:
        """Reshape a rank-1 LMAD to ``new_shape`` (row-major within the dim).

        Requires the rank-1 size to equal the product of ``new_shape``;
        conservatively returns ``None`` when that cannot be proven.
        """
        if self.rank != 1:
            return None
        base = self.dims[0]
        total: SymExpr = sym(1)
        for s in new_shape:
            total = total * sym(s)
        if not prover.eq(base.shape, total):
            return None
        dims: List[LmadDim] = []
        stride = base.stride
        for extent in reversed([sym(s) for s in new_shape]):
            dims.append(LmadDim(extent, stride))
            stride = stride * extent
        return Lmad(self.offset, tuple(reversed(dims)))

    def reshape(
        self, new_shape: Sequence[ExprLike], prover: Prover
    ) -> Optional["Lmad"]:
        """Full reshape when expressible as a single LMAD, else ``None``."""
        flat = self.coalesce_all(prover)
        if flat is None:
            return None
        return flat.split_into(new_shape, prover)

    # ------------------------------------------------------------------
    # Abstract-set helpers
    # ------------------------------------------------------------------
    def normalize_positive(self, prover: Prover) -> Optional["Lmad"]:
        """Rewrite as an equal *abstract set* with provably non-negative strides.

        A negative-stride dim ``(n : s)`` covers the same points as
        ``(n : -s)`` starting at ``offset + (n-1)*s``.  Returns ``None`` when
        some stride's sign cannot be proven (conservative failure).
        """
        offset = self.offset
        dims: List[LmadDim] = []
        for d in self.dims:
            if prover.nonneg(d.stride):
                dims.append(d)
            elif prover.nonneg(-d.stride):
                offset = offset + (d.shape - 1) * d.stride
                dims.append(LmadDim(d.shape, -d.stride))
            else:
                return None
        return Lmad(offset, tuple(dims))

    def drop_unit_dims(self, prover: Prover) -> "Lmad":
        """Remove dimensions with provably-1 cardinality (set semantics)."""
        dims = tuple(
            d for d in self.dims if not prover.eq(d.shape, sym(1))
        )
        return Lmad(self.offset, dims)

    def max_offset(self) -> SymExpr:
        """Largest reachable flat offset, assuming non-negative strides."""
        total = self.offset
        for d in self.dims:
            total = total + (d.shape - 1) * d.stride
        return total

    # ------------------------------------------------------------------
    # Substitution / evaluation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[str, ExprLike]) -> "Lmad":
        return Lmad(
            self.offset.substitute(mapping),
            tuple(d.substitute(mapping) for d in self.dims),
        )

    def evaluate(self, env: Mapping[str, int]) -> "Lmad":
        """Instantiate all variables to integers (still an Lmad, now constant)."""
        mapping = {v: env[v] for v in self.free_vars()}
        return self.substitute(mapping)

    def concrete_shape(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        out = []
        for d in self.dims:
            val = d.shape.substitute(env).as_int()
            if val is None:
                raise ValueError(f"shape {d.shape} not concrete under {env}")
            out.append(val)
        return tuple(out)

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.dims)
        return f"{self.offset} + {{{dims}}}"


def lmad(
    offset: ExprLike, dims: Iterable[Union[LmadDim, Tuple[ExprLike, ExprLike]]]
) -> Lmad:
    """Convenience constructor: ``lmad(t, [(n1, s1), (n2, s2)])``."""
    converted = tuple(
        d if isinstance(d, LmadDim) else LmadDim(sym(d[0]), sym(d[1]))
        for d in dims
    )
    return Lmad(sym(offset), converted)
