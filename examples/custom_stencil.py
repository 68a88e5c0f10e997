"""Bring your own benchmark: a 1-D heat-diffusion stencil.

Shows how a downstream user writes a new program against the public API
and measures what short-circuiting buys: each time step computes the two
boundary cells and the interior separately and concatenates them -- the
hotspot pattern in one dimension.

Run:  python examples/custom_stencil.py
"""

import numpy as np

from repro.compiler import compile_fun
from repro.gpu import A100, CostModel
from repro.ir import FunBuilder, f32, run_fun
from repro.mem.exec import MemExecutor
from repro.runtime import materialize
from repro.symbolic import Var

ALPHA = 0.25


def build(steps: int):
    n = Var("n")
    b = FunBuilder("heat1d")
    b.size_param("n")
    u0 = b.param("u", f32(n))

    lp = b.loop(count=steps, carried=[("uc", u0)], index="t")
    u = lp["uc"]

    # Interior cells: u'[i] = u[i] + a*(u[i-1] - 2u[i] + u[i+1]).
    mp = lp.map_(n - 2, index="i")
    c = mp.idx + 1
    mid = mp.index(u, [c])
    lap = mp.binop(
        "+",
        mp.index(u, [c - 1]),
        mp.binop("-", mp.index(u, [c + 1]), mp.binop("*", mid, 2.0)),
    )
    out = mp.binop("+", mid, mp.binop("*", lap, ALPHA))
    mp.returns(out)
    (interior,) = mp.end()

    # Dirichlet boundaries: endpoints keep their value.
    left = lp.replicate([1], lp.index(u, [0]))
    right = lp.replicate([1], lp.index(u, [n - 1]))
    nxt = lp.concat(left, interior, right)
    lp.returns(nxt)
    (res,) = lp.end()
    b.returns(res)
    return b.build()


def reference(u: np.ndarray, steps: int) -> np.ndarray:
    cur = u.astype(np.float32).copy()
    for _ in range(steps):
        nxt = cur.copy()
        nxt[1:-1] = cur[1:-1] + np.float32(ALPHA) * (
            cur[:-2] - 2 * cur[1:-1] + cur[2:]
        )
        cur = nxt
    return cur


def main():
    steps, nv = 50, 4096
    fun = build(steps)
    u = np.sin(np.linspace(0, np.pi, nv)).astype(np.float32)
    expected = reference(u, steps)
    (interp_out,) = run_fun(fun, n=nv, u=u.copy())
    assert np.allclose(interp_out, expected, atol=1e-4)

    cm = CostModel(A100)
    print(f"1-D heat stencil, n={nv}, {steps} steps")
    for pipeline in ("nosc", "full"):
        compiled = compile_fun(fun, pipeline=pipeline)
        sc = compiled.short_circuited
        ex = MemExecutor(compiled.fun)
        vals, stats = ex.run(n=nv, u=u.copy())
        got = materialize(ex, vals[0])
        assert np.allclose(got, expected, atol=1e-4)
        label = "opt  " if sc else "unopt"
        extra = (
            f" ({compiled.sc_stats.committed} short-circuits)" if sc else ""
        )
        print(
            f"  {label}: {stats.bytes_total:>10,} B moved, "
            f"{stats.launches:>4} launches, simulated "
            f"{cm.total_time(stats)*1e6:8.1f} us{extra}"
        )


if __name__ == "__main__":
    main()
