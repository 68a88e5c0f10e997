"""Needleman-Wunsch end to end: the paper's running example as a user would
run it.

Builds the blocked/skewed NW program, compiles it with and without array
short-circuiting, verifies both against the NumPy reference, and prints a
mini version of the paper's table I for the A100 and MI100 device models.

Run:  python examples/nw_alignment.py [q] [b]
"""

import sys

import numpy as np

from repro.bench.harness import compile_both, row_for, measure_dataset, validate
from repro.bench.programs import nw
from repro.gpu import A100, MI100
from repro.mem.exec import MemExecutor
from repro.runtime import materialize


def main():
    qv = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    bv = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    nv = qv * bv + 1
    print(f"NW on a {nv} x {nv} score matrix ({qv} x {qv} blocks of {bv})")

    compiled = compile_both(nw)
    unopt, opt = compiled
    print(f"short-circuits committed: {opt.sc_stats.committed} "
          f"(one per skewed loop; requires the fig. 9 proof)")
    print(f"validated vs reference  : {validate(nw, 'small', compiled)}")

    # Run for real at this size and show the traffic difference.
    inp = nw.inputs_for(qv, bv)
    ref = nw.reference(inp["A"], nv)
    for label, c in (("unoptimized", unopt), ("optimized  ", opt)):
        ex = MemExecutor(c.fun)
        vals, stats = ex.run(
            **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}
        )
        got = materialize(ex, vals[0])
        assert np.allclose(got, ref), "wrong alignment scores!"
        print(f"{label}: {stats.bytes_total:>12,} bytes moved, "
              f"{stats.launches:>5} kernel launches, "
              f"{stats.elided_copies:>4} copies elided")

    # Paper-style table rows at this size.
    stats = measure_dataset(nw, (qv, bv), compiled)
    print()
    print(f"{'device':8s} {'ref':>10s} {'unopt':>8s} {'opt':>8s} {'impact':>8s}")
    for device in (A100, MI100):
        row = row_for(nw, str(nv), (qv, bv), device, stats)
        print(f"{row.device:8s} {row.ref_ms:9.3f}ms {row.unopt_rel:7.2f}x "
              f"{row.opt_rel:7.2f}x {row.impact:7.2f}x")


if __name__ == "__main__":
    main()
