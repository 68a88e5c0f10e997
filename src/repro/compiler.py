"""The compilation pipeline driver: source IR to executable memory IR.

Mirrors the relevant slice of the Futhark pipeline the paper extends:

1. type/uniqueness checking (:mod:`repro.ir.typecheck`);
2. alias and last-use analyses (:mod:`repro.ir.alias`, ``lastuse``);
3. memory introduction (:mod:`repro.mem.introduce`);
4. allocation hoisting (:mod:`repro.mem.hoist`);
5. **array short-circuiting** (:mod:`repro.opt.shortcircuit`) -- optional,
   so the unoptimized pipeline is the paper's "Unopt. Futhark" baseline;
6. dead-allocation cleanup;
7. **producer-consumer fusion** (:mod:`repro.opt.fuse`) -- optional;
8. **memory reuse** (:mod:`repro.reuse`) -- optional: allocation
   coalescing plus the ``mem_frees`` lifetime annotations.

:func:`compile_fun` is a thin wrapper over
:func:`repro.runtime.compile_cached` (the persistent program cache of
:mod:`repro.runtime`: repeat compiles of structurally identical
functions are O(lookup)), which itself drives :mod:`repro.pipeline`: a
named ``pipeline=`` preset (``unopt``, ``sc``, ``sc+fuse``, ``full``,
``nosc``, ``nofuse`` -- :mod:`repro.pipeline.presets` is the one place
that knows which passes each schedules) selects an ordered pass list,
and a :class:`~repro.pipeline.PassManager` runs it, in order, over a
shared :class:`~repro.pipeline.CompileContext` (pooled
Prover/NonOverlapChecker memos).  Every pass occurrence is
individually timed under a unique stage key, and the whole run is
recorded as a JSON-serializable :class:`~repro.pipeline.PipelineTrace`
on :attr:`CompiledFun.trace` (``python -m repro.bench --explain`` pretty-
prints it; ``REPRO_PRINT_AFTER=<pass>`` dumps IR snapshots).

With ``verify=True`` the :mod:`repro.analysis` verifier re-checks the IR
at the declared checkpoints; any errors raise
:class:`repro.analysis.VerificationError` with the offending stage
attached, and all reports are kept on :attr:`CompiledFun.verify_reports`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.ir import ast as A
from repro.ir.lastuse import analyze_last_uses  # noqa: F401  (test seam)
from repro.ir.typecheck import typecheck_fun
from repro.mem.hoist import hoist_allocations, remove_dead_allocations
from repro.mem.introduce import introduce_memory
from repro.opt.shortcircuit import ShortCircuitStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.analysis.diagnostics import Report
    from repro.opt.fuse import FuseStats
    from repro.pipeline.trace import PipelineTrace
    from repro.reuse.coalesce import ReuseStats

__all__ = [
    "CompiledFun",
    "compile_fun",
    "typecheck_fun",
    "introduce_memory",
    "hoist_allocations",
    "remove_dead_allocations",
    "analyze_last_uses",
]


@dataclass
class CompiledFun:
    """A compiled program plus per-stage compile-time accounting."""

    fun: A.Fun
    short_circuited: bool
    sc_stats: Optional[ShortCircuitStats]
    #: What the memory-reuse coalescer did (None when the preset has no
    #: reuse stage).
    reuse_stats: Optional["ReuseStats"] = None
    #: What producer-consumer fusion did (None when the preset has no
    #: fuse stage).
    fuse_stats: Optional["FuseStats"] = None
    #: Unique stage key -> seconds; every pass occurrence gets its own
    #: key (``dead_allocs``, ``dead_allocs#2``, ...) so repeated passes
    #: never overwrite each other and ``compile_seconds`` is exact.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: stage name -> verifier report, populated when compiled with verify=True
    verify_reports: Dict[str, "Report"] = field(default_factory=dict)
    #: Full structured observability record of the pipeline run.
    trace: Optional["PipelineTrace"] = None
    #: The :data:`repro.pipeline.PRESETS` name this was compiled under.
    pipeline: str = "full"

    @property
    def compile_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def sc_seconds(self) -> float:
        return self.stage_seconds.get("short_circuit", 0.0)


def compile_fun(
    fun: A.Fun,
    pipeline: str = "full",
    enable_splitting: bool = True,
    verify: bool = False,
    cache=None,
) -> CompiledFun:
    """Compile a source function (which is not mutated), cached.

    A thin wrapper over :func:`repro.runtime.compile_cached`: the
    compilation is keyed by (program hash, pipeline preset,
    symbolic-shape class, assumptions, options) and repeat compiles of a
    structurally identical function return the memoized ``CompiledFun``
    in O(lookup).  ``cache=None`` follows the ``REPRO_PROGCACHE``
    environment default (in-process LRU); ``cache=False`` forces a cold
    compile; ``cache="disk"`` adds the persistent layer under
    ``benchmarks/results/.progcache/``.

    ``pipeline`` names a preset of :data:`repro.pipeline.PRESETS`; the
    ablations are presets too (``nosc``: no short-circuiting, ``nofuse``:
    no fusion, ``sc+fuse``: no reuse).

    ``verify=True`` runs the :mod:`repro.analysis` verifier after each
    memory-transforming stage and raises
    :class:`~repro.analysis.VerificationError` on the first stage whose
    output has errors, identifying the pass that broke the program.
    """
    from repro.runtime import compile_cached

    return compile_cached(
        fun,
        pipeline=pipeline,
        enable_splitting=enable_splitting,
        verify=verify,
        cache=cache,
    )


def _compile_uncached(
    fun: A.Fun,
    pipeline: str,
    enable_splitting: bool,
    verify: bool,
) -> CompiledFun:
    """One full pipeline run (no cache): the cold-compile primitive."""
    from repro.pipeline import (
        PRESETS,
        CompileContext,
        PassManager,
        preset_pipeline,
    )

    passes = preset_pipeline(pipeline)
    ctx = CompileContext(
        source=fun, verify=verify, enable_splitting=enable_splitting
    )
    trace = PassManager(passes, name=pipeline).run(ctx)
    assert ctx.mfun is not None
    return CompiledFun(
        ctx.mfun,
        "short_circuit" in PRESETS[pipeline],
        ctx.sc_stats,
        reuse_stats=ctx.reuse_stats,
        fuse_stats=ctx.fuse_stats,
        stage_seconds=trace.stage_seconds(),
        verify_reports=ctx.verify_reports,
        trace=trace,
        pipeline=pipeline,
    )
