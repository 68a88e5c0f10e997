"""Figure 5a: short-circuiting through an ``if``.

The program is ``tests/opt/test_shortcircuit.py``'s if-crossing one with
the else branch returning the upper half of a ``[2n]`` buffer, so the
two branches' slices sit at different offsets and memory introduction
anti-unifies them (paper section IV-C).  Short-circuiting recurses into
both branches (section V, fig. 5a) and rebases each creation into
``big``, so the update copies nothing.  ``TestIfCrossing`` asserts that;
this table records the copy traffic of each branch with and without
short-circuiting, and the optimized program."""

import numpy as np
from conftest import save_result

from repro.compiler import compile_fun
from repro.ir import run_fun
from repro.ir.pretty import pretty_fun
from repro.mem.exec import MemExecutor
from tests.opt.test_shortcircuit import if_crossing_fun


def copy_traffic(fun, opt, cval, nv=16):
    inputs = {
        "x": np.arange(nv, dtype=np.float32),
        "big": np.arange(2 * nv, dtype=np.float32),
        "c": np.float32(cval),
    }
    ref = run_fun(fun, **{k: v.copy() for k, v in inputs.items()})[0]
    ex = MemExecutor(opt.fun)
    vals, st = ex.run(**inputs)
    got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
    assert np.array_equal(got, ref)
    return st.copy_traffic()


def test_fig5_if(benchmark):
    fun = if_crossing_fun(else_at_n=True)
    out = {}

    def run():
        out["nosc"] = compile_fun(fun, pipeline="nosc", verify=True)
        out["full"] = compile_fun(fun, verify=True)

    benchmark.pedantic(run, rounds=1, iterations=1)
    nosc, full = out["nosc"], out["full"]
    text = "\n".join(
        ["== fig5a: short-circuiting through an if ==",
         f"circuit points committed: {full.sc_stats.committed_roots}"]
        + [f"{branch:<4s} branch copy traffic: "
           f"without sc={copy_traffic(fun, nosc, cval)}B  "
           f"with sc={copy_traffic(fun, full, cval)}B"
           for cval, branch in ((0.0, "then"), (1.0, "else"))]
        + ["", "optimized program:", pretty_fun(full.fun)]
    )
    save_result("fig5_if", text)
