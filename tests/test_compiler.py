"""Integration tests for the compilation pipeline driver."""

import numpy as np

from repro import compile_fun, f32, FunBuilder, parse_fun, pretty_fun, run_fun
from repro.ir import ast as A
from repro.mem.exec import MemExecutor
from repro.symbolic import Var

n = Var("n")


def simple_fun():
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    big = b.param("big", f32(n * 2))
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
    (X,) = mp.end()
    out = b.update_slice(big, [(0, n, 1)], X)
    b.returns(out)
    return b.build()


class TestPipeline:
    def test_source_not_mutated(self):
        fun = simple_fun()
        before = pretty_fun(fun)
        compile_fun(fun)
        assert pretty_fun(fun) == before

    def test_stages_recorded(self):
        c = compile_fun(simple_fun())
        for stage in ("typecheck", "introduce_memory", "hoist", "last_use",
                      "short_circuit", "dead_allocs"):
            assert stage in c.stage_seconds
        assert c.compile_seconds > 0
        assert c.sc_seconds <= c.compile_seconds

    def test_unopt_has_no_sc_stage(self):
        c = compile_fun(simple_fun(), pipeline="nosc")
        assert c.sc_stats is None
        assert "short_circuit" not in c.stage_seconds

    def test_dead_allocations_removed_after_sc(self):
        c = compile_fun(simple_fun())
        assert c.sc_stats.committed == 1
        # The map result's buffer was re-homed; its alloc must be gone.
        allocs = [s for s in c.fun.body.stmts if isinstance(s.exp, A.Alloc)]
        assert len(allocs) == 0

    def test_public_api_end_to_end(self):
        fun = simple_fun()
        x = np.arange(4, dtype=np.float32)
        big = np.zeros(8, dtype=np.float32)
        (expected,) = run_fun(fun, x=x.copy(), big=big.copy())
        c = compile_fun(fun)
        ex = MemExecutor(c.fun)
        vals, stats = ex.run(x=x.copy(), big=big.copy())
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        assert np.allclose(got, expected)
        assert stats.copy_traffic() == 0

    def test_parse_compile_run(self):
        """Text -> AST -> compiled -> executed, all through repro's API."""
        fun = parse_fun(
            "fun f(x : [n]f32, big : [n*2]f32) =\n"
            "  let (y : *[n]f32) =\n"
            "    map (i < n) {\n"
            "      let (v : f32) = x[i]\n"
            "      let (w : f32) = v + 1.0\n"
            "      in (w)\n"
            "    }\n"
            "  let (out : *[n*2]f32) = big with [0:n:1] = y\n"
            "  in (out)"
        )
        c = compile_fun(fun)
        assert c.sc_stats.committed == 1
        ex = MemExecutor(c.fun)
        vals, _ = ex.run(
            x=np.arange(3, dtype=np.float32), big=np.zeros(6, dtype=np.float32)
        )
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        assert list(got) == [1, 2, 3, 0, 0, 0]

    def test_splitting_toggle_plumbs_through(self):
        """Disabling dimension splitting must reach the structural prover:
        NW's structural tier then proves nothing, and every surviving
        commit is a polyhedral-fallback recovery."""
        from repro.bench.programs import nw

        fun = nw.build()
        strong = compile_fun(fun, enable_splitting=True).sc_stats
        weak = compile_fun(fun, enable_splitting=False).sc_stats
        assert strong.committed == 6, strong
        assert strong.tiers.get("structural", 0) > 0, strong
        assert weak.committed == 6, weak
        assert weak.tiers.get("structural", 0) == 0, weak
        assert weak.tiers.get("polyhedral", 0) > 0, weak
