"""repro: a reproduction of "Memory Optimizations in an Array Language" (SC22).

Public API tour:

>>> from repro import FunBuilder, compile_fun, f32, run_fun
>>> from repro.lmad import lmad
>>> from repro.symbolic import Var

Build programs with :class:`repro.ir.FunBuilder` (or parse them with
:func:`repro.ir.parser.parse_fun`), check their meaning with the reference
interpreter :func:`repro.ir.run_fun`, compile them with
:func:`repro.compiler.compile_fun` (with or without array short-circuiting),
execute the compiled memory IR with :class:`repro.mem.exec.MemExecutor`
(real buffers, or traffic-only dry runs at any size), and convert the
measured statistics into simulated GPU time with
:class:`repro.gpu.CostModel`.

The seven paper benchmarks live in :mod:`repro.bench.programs`;
``python -m repro.bench`` regenerates the paper's tables.
"""

from repro.compiler import CompiledFun, compile_fun
from repro.ir import FunBuilder, f32, i64, run_fun
from repro.ir.parser import parse_fun
from repro.ir.pretty import pretty_fun
from repro.pipeline import (
    PRESETS,
    CompileContext,
    PassManager,
    PipelineTrace,
    preset_pipeline,
)

__version__ = "1.0.0"

__all__ = [
    "CompiledFun",
    "compile_fun",
    "PRESETS",
    "CompileContext",
    "PassManager",
    "PipelineTrace",
    "preset_pipeline",
    "FunBuilder",
    "run_fun",
    "parse_fun",
    "pretty_fun",
    "f32",
    "i64",
    "__version__",
]
