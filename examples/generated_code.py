"""See the imperative code the optimization recovers (paper section IV-A).

Compiles the fig. 1 diagonal program with and without short-circuiting,
runs both on the native tier and prints, for each, the memory IR (every
annotation: bindings, last uses, and the ``-- frees: mem_1`` of the
temporary that only the unoptimized program has) and the
C translation unit ``repro.backend`` built for its ``map``: one flat
loop, the LMAD index functions inlined as affine addressing.  Without
short-circuiting the host allocates a temporary for the map's result and
copies it onto the diagonal; with it the same kernel is handed ``A``'s
memory and the diagonal's offset and stride, and there is no copy -- the
single kernel an imperative programmer would have written.

Needs a C compiler.  Run:  python examples/generated_code.py
"""

import numpy as np

from repro import FunBuilder, compile_fun, f32, pretty_fun
from repro.backend import NativeEngine, native_enabled
from repro.backend.engine import REJECTED
from repro.lmad import lmad
from repro.mem.exec import MemExecutor
from repro.symbolic import Var


def build():
    n = Var("n")
    b = FunBuilder("diag_add")
    b.size_param("n")
    A = b.param("A", f32(n * n))
    diag = b.lmad_slice(A, lmad(0, [(n, n + 1)]), name="diag")
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx])
    r = mp.index(A, [mp.idx])
    mp.returns(mp.binop("+", d, r))
    (X,) = mp.end()
    A2 = b.update_lmad(A, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    return b.build()


def main():
    if not native_enabled():
        print("no C compiler (or REPRO_NATIVE=off): nothing to show")
        return
    fun = build()
    for pipeline, label in (
        ("nosc", "WITHOUT short-circuiting"),
        ("full", "WITH short-circuiting"),
    ):
        compiled = compile_fun(fun, pipeline=pipeline)
        engine = NativeEngine()
        _, stats = MemExecutor(compiled.fun, native=engine).run(
            n=4, A=np.arange(16, dtype=np.float32)
        )
        print(f"{'=' * 20} {label} {'=' * 20}")
        print(pretty_fun(compiled.fun))
        for spec in engine.plans.values():
            if spec is not REJECTED:
                print(spec.source)
        print(f"allocations {stats.alloc_count}, copy traffic "
              f"{stats.copy_traffic()} bytes, total {stats.bytes_total} bytes")
        print()


if __name__ == "__main__":
    main()
