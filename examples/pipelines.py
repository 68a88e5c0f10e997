"""Pipelines: drive the pass manager, read the trace, pick a preset.

``compile_fun`` is a thin wrapper over :class:`repro.pipeline.PassManager`
running one of six named presets (``unopt``, ``sc``, ``sc+fuse``,
``full``, ``nosc``, ``nofuse``).  This example compiles one program under every preset and
shows what the pipeline layer gives you beyond the compiled function:

* the per-pass :class:`repro.pipeline.PipelineTrace` -- wall-clock
  timings, IR statement / allocation deltas and structured rejection
  diagnostics, JSON-serializable and renderable as a table (the same
  object ``python -m repro.bench --explain`` prints);
* direct :class:`~repro.pipeline.PassManager` use with a pass list
  (here the ``sc`` preset's), run in exactly the order given;
* the ``REPRO_PRINT_AFTER`` environment variable (try
  ``REPRO_PRINT_AFTER=short_circuit python examples/pipelines.py`` to
  dump the IR right after short-circuiting).

Run:  python examples/pipelines.py
"""

from repro import compile_fun, f32, pretty_fun
from repro.ir import FunBuilder
from repro.ir import ast as A
from repro.mem.memir import iter_stmts
from repro.pipeline import (
    PRESETS,
    CompileContext,
    PassManager,
    preset_pipeline,
)
from repro.symbolic import Var


def build_program():
    """The quickstart program: map into the diagonal of a matrix."""
    n = Var("n")
    b = FunBuilder("diag_add")
    b.size_param("n")
    A = b.param("A", f32(n * n))
    from repro.lmad import lmad

    diag = b.lmad_slice(A, lmad(0, [(n, n + 1)]), name="diag")
    row0 = b.lmad_slice(A, lmad(0, [(n, 1)]), name="row0")
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx])
    r = mp.index(row0, [mp.idx])
    mp.returns(mp.binop("+", d, r))
    (X,) = mp.end()
    A2 = b.update_lmad(A, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    return b.build()


def main():
    fun = build_program()

    # -- every preset, one line each ----------------------------------
    print("preset      allocs  stmts  sc  schedule")
    for preset in PRESETS:
        c = compile_fun(fun, pipeline=preset)
        stmts = list(iter_stmts(c.fun.body))
        allocs = sum(isinstance(s.exp, A.Alloc) for s in stmts)
        committed = c.sc_stats.committed if c.sc_stats else 0
        schedule = " -> ".join(c.trace.executed_pass_names())
        print(f"{preset:<11s} {allocs:>6d} {len(stmts):>5d} "
              f"{committed:>3d}  {schedule}")
    print()

    # -- the full story of one compilation ----------------------------
    c = compile_fun(fun, pipeline="full", verify=True)
    print(c.trace.render())
    print()
    print(f"verified checkpoints: {', '.join(c.verify_reports)}")
    print(f"trace JSON: {len(c.trace.to_json())} bytes, "
          f"{len(c.trace.records)} records")
    print()

    # -- driving the manager by hand ----------------------------------
    # A pipeline is just a pass list, analyses included; the manager
    # runs it in the order given.
    ctx = CompileContext(source=fun, verify=False)
    trace = PassManager(preset_pipeline("sc"), name="sc").run(ctx)
    print(f"hand-run 'sc' pipeline: {len(trace.records)} records, "
          f"{trace.compile_seconds * 1e3:.2f}ms")
    print()
    print("final IR (full preset):")
    print(pretty_fun(c.fun))


if __name__ == "__main__":
    main()
