"""Entry point: run every checker over an annotated function.

``verify_fun`` is deliberately pass-agnostic: it takes any function in
memory-IR form (i.e. after :func:`repro.mem.introduce.introduce_memory`)
and re-derives the safety obligations from scratch.  The pipeline calls
it between stages (``compile_fun(..., verify=True)``) to attribute a
regression to the pass that introduced it; the CLI calls it on whole
benchmarks.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.bounds import check_bounds
from repro.analysis.diagnostics import Report
from repro.analysis.frees import check_frees
from repro.analysis.fusion import check_fusion
from repro.analysis.liveness import check_liveness
from repro.analysis.races import check_races
from repro.analysis.wellformed import check_wellformed
from repro.ir import ast as A

#: Checker registry, in the order they run.  Well-formedness first: the
#: later checkers assume its invariants (bindings present, blocks known).
CHECKERS = (
    ("wellformed", check_wellformed),
    ("bounds", check_bounds),
    ("liveness", check_liveness),
    ("races", check_races),
    ("frees", check_frees),
    ("fusion", check_fusion),
)


def verify_fun(
    fun: A.Fun, *, stage: Optional[str] = None, pool=None
) -> Report:
    """Verify one memory-IR function; returns the full :class:`Report`.

    Raises nothing on findings -- inspect ``report.ok()``.  Checker
    crashes propagate: an exception here means the *verifier* is broken,
    which must never be silently conflated with a clean program.

    ``pool`` is an optional shared :class:`~repro.lmad.ProverPool`; the
    race checker's tiered disjointness queries then memoize (and tally)
    alongside the optimization passes' own queries.
    """
    report = Report(fun_name=fun.name, stage=stage)
    for _label, checker in CHECKERS:
        if checker is check_races:
            checker(fun, report, pool)
        else:
            checker(fun, report)
    return report
