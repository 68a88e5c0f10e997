"""Ablation: allocation hoisting as the enabler of property (2).

Short-circuiting requires the destination block to be allocated before the
candidate's creation point (paper section V, property 2).  Compiling with
hoisting disabled shows which circuit points die for purely structural
reasons."""

from conftest import save_result

from repro.bench.programs import all_benchmarks
from repro.ir.lastuse import analyze_last_uses
from repro.mem.hoist import hoist_allocations
from repro.mem.introduce import introduce_memory
from repro.opt.shortcircuit import short_circuit_fun
from repro.pipeline import CompileContext


def compile_sc(fun, hoist: bool):
    mfun = introduce_memory(fun)
    if hoist:
        hoist_allocations(mfun)
    analyze_last_uses(mfun)
    return short_circuit_fun(mfun, CompileContext(source=fun, mfun=mfun))


def test_ablation_hoisting(benchmark):
    rows = {}

    def run():
        for name, module in all_benchmarks().items():
            fun = module.build()
            rows[name] = (
                compile_sc(fun, hoist=True).committed,
                compile_sc(fun, hoist=False).committed,
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "== ablation: allocation hoisting (property 2 enabler) ==",
        f"{'bench':14s} {'hoisted':>8s} {'unhoisted':>10s}",
    ]
    for name, (w, wo) in rows.items():
        lines.append(f"{name:14s} {w:8d} {wo:10d}")
    save_result("ablation_hoisting", "\n".join(lines))
    for name, (w, wo) in rows.items():
        assert wo <= w, f"{name}: hoisting should never hurt"
    # At least one benchmark depends on hoisting for some circuit point.
    assert any(wo < w for w, wo in rows.values())
