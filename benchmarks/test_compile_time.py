"""Section V-D: compile-time overhead of short-circuiting.

The paper reports ~10% overhead for most benchmarks, with NW and LUD as
outliers (17x for NW, attributable to the external SMT solver -- which this
reproduction replaces with the in-compiler symbolic engine the authors
said they were building, so our NW overhead is far smaller)."""

import gc

from conftest import save_result

from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun


def test_compile_time_overhead(benchmark):
    rows = {}

    def run():
        for name, module in all_benchmarks().items():
            fun = module.build()
            # A full collection before each timed compile: otherwise a
            # cyclic-GC pass over the heap the earlier tests left lands
            # inside one compile (optionpricing's ~10 ms ``nosc`` compile
            # took 44-91 ms in full runs of this directory).
            gc.collect()
            unopt = compile_fun(fun, pipeline="nosc", cache=False)
            gc.collect()
            opt = compile_fun(fun, cache=False)
            rows[name] = (
                unopt.compile_seconds,
                opt.compile_seconds,
                opt.sc_seconds,
            )
        return rows

    # One untimed pass first: the first compile of a process also pays
    # for lazy imports (repro.isl, the backends), which used to land on
    # nw, the first row.  Every compile is cold (``cache=False``).
    run()
    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "== compile-time overhead of short-circuiting (section V-D) ==",
        f"{'bench':14s} {'without':>9s} {'with':>9s} {'overhead':>9s} {'SC share':>9s}",
    ]
    for name, (t_un, t_op, t_sc) in rows.items():
        lines.append(
            f"{name:14s} {t_un*1e3:8.1f}ms {t_op*1e3:8.1f}ms "
            f"{t_op/t_un:8.2f}x {t_sc/t_op:8.1%}"
        )
    save_result("compile_time", "\n".join(lines))
    # Shape: overhead exists but compilation stays fast; NW/LUD are the
    # heaviest because of the non-overlap proofs.
    for name, (t_un, t_op, _) in rows.items():
        assert t_op >= t_un * 0.9
        assert t_op < 60.0, f"{name} compile blew up"
