"""Quickstart: write an array program, compile it, watch copies disappear.

The program is the paper's introductory example (fig. 1, left): add to each
diagonal element of an n x n matrix the corresponding element of the first
row.  Race-free functional style needs two parallel operations -- a map
producing a fresh array X, and an update writing X into the diagonal slice
-- and the array short-circuiting optimization makes the second one free.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.compiler import compile_fun
from repro.gpu import A100, CostModel
from repro.ir import FunBuilder, f32, run_fun
from repro.ir.pretty import pretty_fun
from repro.lmad import lmad
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.symbolic import Var


def build_program():
    n = Var("n")
    b = FunBuilder("diag_add")
    b.size_param("n")
    A = b.param("A", f32(n * n))

    # O(1) generalized slices: the diagonal (stride n+1) and first row.
    diag = b.lmad_slice(A, lmad(0, [(n, n + 1)]), name="diag")
    row0 = b.lmad_slice(A, lmad(0, [(n, 1)]), name="row0")

    # let X = map2 (\d r -> d + r) A[diag] A[row0]
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx])
    r = mp.index(row0, [mp.idx])
    s = mp.binop("+", d, r)
    mp.returns(s)
    (X,) = mp.end()

    # let A[diag] = X        -- the circuit point
    A2 = b.update_lmad(A, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    return b.build()


def main():
    fun = build_program()
    print("source program:")
    print(pretty_fun(fun))
    print()

    nv = 1024
    A = np.arange(nv * nv, dtype=np.float32)

    # Reference (purely functional) semantics.
    (expected,) = run_fun(fun, n=nv, A=A.copy())

    cm = CostModel(A100)
    for pipeline in ("nosc", "full"):
        compiled = compile_fun(fun, pipeline=pipeline)
        short_circuit = compiled.short_circuited
        ex = MemExecutor(compiled.fun)
        vals, stats = ex.run(n=nv, A=A.copy())
        got = materialize(ex, vals[0])
        assert np.allclose(got, expected), "pipelines must agree!"
        label = "with short-circuiting" if short_circuit else "baseline"
        print(f"--- {label} ---")
        print(stats.summary())
        print(f"simulated A100 time : {cm.total_time(stats)*1e6:.2f} us")
        if short_circuit:
            print(f"short-circuits      : {compiled.sc_stats.committed}")
        print()

    print("Both runs produce identical results; the optimized one moved "
          "no bytes for the update.")


if __name__ == "__main__":
    main()
