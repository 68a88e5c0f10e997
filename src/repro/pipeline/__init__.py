"""repro.pipeline: the compilation pipeline (DESIGN.md section 10):

* :class:`Pass` -- the pass protocol: a name, a kind and ``run(ctx,
  fun) -> PassStats``; the derived analyses (``last_use``,
  ``mem_frees``) are :class:`AnalysisPass` entries of the pass list;
* :class:`PassManager` -- runs a pass list in the order given, honors
  verify checkpoints, and emits a uniquely-keyed,
  per-occurrence-timed :class:`PipelineTrace`;
* :class:`CompileContext` -- the shared state of one compilation: the
  memory IR under construction and the pooled
  Prover/NonOverlapChecker memos every pass shares
  (:class:`repro.lmad.ProverPool`);
* :mod:`~repro.pipeline.presets` -- the named pipelines (``unopt``,
  ``sc``, ``sc+fuse``, ``full``, ``nosc``, ``nofuse``) and the one
  constructor of a pass list, :func:`preset_pipeline`.

``repro.compiler.compile_fun(fun, pipeline=<preset>)`` is a thin wrapper
over these pieces.
"""

from repro.pipeline.context import CompileContext
from repro.pipeline.manager import PRINT_AFTER_ENV, PassManager
from repro.pipeline.passes import (
    AnalysisPass,
    DeadAllocsPass,
    FusePass,
    HoistPass,
    IntroduceMemoryPass,
    Pass,
    PassStats,
    ReusePass,
    ShortCircuitPass,
    TypecheckPass,
)
from repro.pipeline.presets import (
    PRESETS,
    preset_pass_names,
    preset_pipeline,
)
from repro.pipeline.trace import PassRecord, PipelineTrace

__all__ = [
    "CompileContext",
    "PassManager",
    "PRINT_AFTER_ENV",
    "Pass",
    "PassStats",
    "PassRecord",
    "PipelineTrace",
    "AnalysisPass",
    "DeadAllocsPass",
    "FusePass",
    "HoistPass",
    "IntroduceMemoryPass",
    "ReusePass",
    "ShortCircuitPass",
    "TypecheckPass",
    "PRESETS",
    "preset_pipeline",
    "preset_pass_names",
]
