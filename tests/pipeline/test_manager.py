"""PassManager mechanics: keys, schedule, checkpoints, snapshots."""

from __future__ import annotations

import pytest

from repro import compile_fun, f32, pretty_fun
from repro.ir import FunBuilder
from repro.pipeline import (
    PRESETS,
    CompileContext,
    PassManager,
    PRINT_AFTER_ENV,
    preset_pipeline,
)
from repro.pipeline.trace import KIND_VERIFY
from repro.symbolic import Var

n = Var("n")


def simple_fun():
    """A map into a slice of a bigger array: one short-circuit chance."""
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    big = b.param("big", f32(n * 2))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (X,) = mp.end()
    out = b.update_slice(big, [(0, n, 1)], X)
    b.returns(out)
    return b.build()


class TestStageKeys:
    def test_every_occurrence_gets_a_unique_key(self):
        c = compile_fun(simple_fun())
        keys = list(c.stage_seconds)
        assert keys == [
            "typecheck", "introduce_memory", "hoist", "last_use",
            "short_circuit", "dead_allocs", "fuse", "dead_allocs#2",
            "reuse", "dead_allocs#3", "mem_frees",
        ]
        assert len(keys) == len(set(keys))

    def test_compile_seconds_is_the_exact_sum(self):
        c = compile_fun(simple_fun())
        assert c.compile_seconds == sum(c.stage_seconds.values())
        assert c.compile_seconds == c.trace.compile_seconds


class TestAnalysisLedger:
    def test_preserved_analysis_is_not_rerun(self):
        """A preset *is* its pass list: for every benchmark under every
        preset the trace is the advertised schedule record for record --
        nothing inserted, nothing re-run."""
        from tests.pipeline.test_presets import BENCHMARKS, compiled, schedule

        for name in BENCHMARKS:
            for preset in PRESETS:
                trace = compiled(name, preset).trace
                assert [r.name for r in trace.records] == (
                    schedule(preset)
                ), (name, preset)


class TestVerifyCheckpoints:
    def test_verify_reports_keep_the_legacy_labels(self):
        c = compile_fun(simple_fun(), verify=True)
        assert set(c.verify_reports) == {
            "introduce_memory", "hoist+last_use", "short_circuit",
            "fuse", "reuse",
        }
        assert all(r.ok() for r in c.verify_reports.values())

    def test_verify_records_land_in_the_trace(self):
        c = compile_fun(simple_fun(), verify=True)
        labels = [
            r.name for r in c.trace.records if r.kind == KIND_VERIFY
        ]
        assert labels == [
            "verify[introduce_memory]", "verify[hoist+last_use]",
            "verify[short_circuit]", "verify[fuse]", "verify[reuse]",
        ]

    def test_checkpoint_fires_even_when_the_pass_was_skipped(self):
        # simple_fun has nothing to fuse, so the post-fuse dead-alloc
        # sweep is condition-skipped -- its "fuse" checkpoint still runs.
        c = compile_fun(simple_fun(), verify=True)
        (rec,) = [r for r in c.trace.records if r.key == "dead_allocs#2"]
        assert rec.skipped
        assert "fuse" in c.verify_reports


class TestSnapshots:
    def test_print_after_dumps_ir_to_stderr(self, monkeypatch, capsys):
        monkeypatch.setenv(PRINT_AFTER_ENV, "short_circuit")
        c = compile_fun(simple_fun())
        err = capsys.readouterr().err
        assert "-- IR after short_circuit" in err
        assert "alloc" in err
        assert pretty_fun(c.fun).splitlines()[0] in err

    def test_no_env_no_output(self, monkeypatch, capsys):
        monkeypatch.delenv(PRINT_AFTER_ENV, raising=False)
        compile_fun(simple_fun())
        assert capsys.readouterr().err == ""


class TestCompileFunWrapper:
    def test_defaults_are_the_full_preset(self):
        by_default = compile_fun(simple_fun())
        by_name = compile_fun(simple_fun(), pipeline="full")
        assert by_default.pipeline == by_name.pipeline == "full"
        assert pretty_fun(by_default.fun) == pretty_fun(by_name.fun)

    @pytest.mark.parametrize("flag", ["short_circuit", "fuse", "reuse"])
    def test_a_preset_name_is_the_only_selector(self, flag):
        import repro.runtime as rt

        for entry in (compile_fun, rt.compile_cached, rt.compile):
            with pytest.raises(TypeError, match=flag):
                entry(simple_fun(), **{flag: False})

    def test_manager_is_usable_directly(self):
        ctx = CompileContext(source=simple_fun())
        trace = PassManager(preset_pipeline("sc"), name="sc").run(ctx)
        assert ctx.mfun is not None
        assert trace.pipeline == "sc"
        assert ctx.sc_stats is not None and ctx.sc_stats.committed >= 1


class TestBrokenPass:
    def test_verification_error_names_the_stage(self, monkeypatch):
        """The monkeypatch seam survives the refactor: sabotaging
        ``repro.compiler.introduce_memory`` still fails the first
        checkpoint of the *full* preset."""
        from repro.analysis import VerificationError
        from repro.mem import introduce as I

        original = I.introduce_memory

        def sabotaged(fun):
            out = original(fun)
            for stmt in out.body.stmts:
                for pe in stmt.pattern:
                    if pe.is_array():
                        pe.mem = None  # strip one memory annotation
                        return out
            return out

        monkeypatch.setattr("repro.compiler.introduce_memory", sabotaged)
        with pytest.raises(VerificationError) as exc:
            compile_fun(simple_fun(), verify=True)
        assert exc.value.stage == "introduce_memory"
