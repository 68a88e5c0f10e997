"""The halo-exchange program: a contiguous rank-1 copy in the memory IR.

Sharding (:mod:`repro.shard.runner`) materializes every ghost-row
refresh as an execution of this program rather than a host-side numpy
assignment, so halo traffic flows through the same executor accounting
as kernel traffic: a ``map`` gathers ``cnt`` consecutive elements of the
source from ``soff``, and an ``update`` scatters them into the
destination from ``doff``.

Compiled with the full preset, short-circuiting lands the gathered
values directly in the destination block, so one exchange costs exactly
one read and one write of the payload.
"""

from __future__ import annotations

from repro.ir import FunBuilder, f32
from repro.ir.ast import Fun
from repro.ir.types import ScalarType
from repro.lmad import lmad
from repro.symbolic import Var


def build_halo_copy() -> Fun:
    bld = FunBuilder("halo_copy")
    for s in ("ls", "ld", "soff", "doff", "cnt"):
        bld.param(s, ScalarType("i64"))
    S = bld.param("S", f32(Var("ls")))
    D = bld.param("D", f32(Var("ld")))
    bld.assume_lower("cnt", 1)
    bld.assume_lower("soff", 0)
    bld.assume_lower("doff", 0)

    mp = bld.map_(Var("cnt"), index="k")
    v = mp.index(S, [Var("soff") + mp.idx])
    mp.returns(v)
    (X,) = mp.end()
    D2 = bld.update_lmad(D, lmad(Var("doff"), [(Var("cnt"), 1)]), X)
    bld.returns(D2)
    return bld.build()
