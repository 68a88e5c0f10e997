"""Named pipeline presets: the one place that knows which passes make a
pipeline.

=========== ============================================================
``unopt``   the paper's "Unopt. Futhark" baseline: memory introduction,
            hoisting and last-use analysis only
``sc``      + array short-circuiting (paper section V)
``sc+fuse`` + producer-consumer kernel fusion
``full``    + memory reuse (allocation coalescing and ``mem_frees``
            lifetime annotations) -- ``compile_fun``'s default
``nosc``    ``full`` without short-circuiting: the "without" column of
            the paper's tables (``repro.bench.harness.compile_both``)
``nofuse``  ``full`` without fusion: the unfused leg of the traffic gate
=========== ============================================================

:func:`preset_pipeline` is the one constructor of a pass list, and
its pass names are a preset's expected schedule.  A combination no
preset names is built from the pass classes and handed to
:class:`~repro.pipeline.PassManager` directly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.pipeline.context import CompileContext
from repro.pipeline.passes import (
    AnalysisPass,
    DeadAllocsPass,
    FusePass,
    HoistPass,
    IntroduceMemoryPass,
    Pass,
    ReusePass,
    ShortCircuitPass,
    TypecheckPass,
)

#: Preset name -> the optional stages it schedules, in pipeline order.
PRESETS: Dict[str, Tuple[str, ...]] = {
    "unopt": (),
    "sc": ("short_circuit",),
    "sc+fuse": ("short_circuit", "fuse"),
    "full": ("short_circuit", "fuse", "reuse"),
    "nosc": ("fuse", "reuse"),
    "nofuse": ("short_circuit", "reuse"),
}


def _fuse_committed(ctx: CompileContext) -> bool:
    st = ctx.fuse_stats
    return st is not None and bool(st.committed)


def _reuse_merged(ctx: CompileContext) -> bool:
    st = ctx.reuse_stats
    return st is not None and bool(st.mapping)


def preset_pipeline(name: str) -> List[Pass]:
    """Instantiate the ordered pass list of a named preset.

    Verify checkpoints carry the labels ``compile_fun(verify=True)``
    reports under (``introduce_memory``, ``hoist+last_use``,
    ``short_circuit``, ``fuse``, ``reuse``); the dead-allocation sweeps
    after fusion and reuse are gated on those passes having changed
    anything.
    """
    try:
        stages = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline preset {name!r} "
            f"(available: {', '.join(PRESETS)})"
        ) from None
    pipe: List[Pass] = [
        TypecheckPass(),
        IntroduceMemoryPass(verify_label="introduce_memory"),
        HoistPass(),
        AnalysisPass("last_use", verify_label="hoist+last_use"),
    ]
    if "short_circuit" in stages:
        pipe.append(ShortCircuitPass())
        pipe.append(DeadAllocsPass(verify_label="short_circuit"))
    if "fuse" in stages:
        pipe.append(FusePass())
        pipe.append(
            DeadAllocsPass(verify_label="fuse", condition=_fuse_committed)
        )
    if "reuse" in stages:
        pipe.append(ReusePass())
        pipe.append(DeadAllocsPass(condition=_reuse_merged))
        pipe.append(AnalysisPass("mem_frees", verify_label="reuse"))
    return pipe
