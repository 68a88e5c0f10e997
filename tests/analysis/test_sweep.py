"""Whole-benchmark verification sweep plus the mutation smoke test.

The sweep is the translation-validation acceptance bar: every benchmark,
through both pipelines, must verify with zero diagnostics.  The mutation
test is the referee check on the referee: disable the one prover call
short-circuiting's safety rests on, and the post-pass verifier must
catch the unsafe commits the pass then makes.
"""

import pytest

from repro.analysis import verify_fun
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.lmad import NonOverlapChecker

BENCHMARKS = sorted(all_benchmarks())


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("sc", [False, True], ids=["unopt", "opt"])
def test_benchmark_verifies_clean(name, sc):
    fun = all_benchmarks()[name].build()
    compiled = compile_fun(fun, pipeline="full" if sc else "nosc").fun
    report = verify_fun(compiled, stage="opt" if sc else "unopt")
    assert report.ok(), report.render(show_notes=True)
    assert not report.diagnostics, report.render(show_notes=True)


def test_mutated_pass_is_caught(monkeypatch):
    """Sabotage short-circuiting; the verifier must object.

    Two simultaneous mutations: the overlap check is forced to ``True``
    (both tiers short out through ``NonOverlapChecker.check``, so every
    candidate commits unchecked), and index-function translation
    mis-places every rebased layout by one element.  The pass then
    installs rebases whose images genuinely escape their blocks or
    collide with live data.  The verifier (run afterwards, with honest
    provers in both tiers) has to flag at least one benchmark -- if it
    stays silent, it is not actually checking anything the pass could
    get wrong.

    Note the checker sabotage *alone* no longer suffices: every
    candidate the pass attempts on these benchmarks is genuinely safe
    (the polyhedral tier proves the formerly-unprovable ones), so the
    committed programs would be correct and the verifier right to stay
    quiet.
    """
    import repro.opt.shortcircuit as scmod
    from repro.lmad import IndexFn
    from repro.lmad.lmad import Lmad
    from repro.opt.rebase import translate_ixfn as real_translate
    from repro.symbolic import sym

    def shifted_translate(ixfn, available, symtab, max_rounds=16):
        out = real_translate(ixfn, available, symtab, max_rounds)
        if out is None:
            return None
        return IndexFn(
            tuple(Lmad(l.offset + sym(1), l.dims) for l in out.lmads)
        )

    broken_funs = []
    with monkeypatch.context() as m:
        m.setattr(NonOverlapChecker, "check", lambda self, a, b: True)
        m.setattr(scmod, "translate_ixfn", shifted_translate)
        for name in BENCHMARKS:
            fun = all_benchmarks()[name].build()
            broken_funs.append(
                (name, compile_fun(fun).fun)
            )
    caught = []
    for name, fun in broken_funs:
        report = verify_fun(fun, stage="sabotaged-sc")
        if report.errors:
            caught.append((name, sorted({d.rule for d in report.diagnostics})))
    assert caught, "no benchmark's sabotaged compile was flagged"
