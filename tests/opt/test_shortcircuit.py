"""Tests for the array short-circuiting pass (paper section V).

Each test builds a small program exhibiting one paper scenario, runs the
pipeline, asserts the expected commit/failure, and -- crucially -- checks
that the optimized executor still agrees with the reference interpreter.
"""

import numpy as np

from repro.analysis import verify_fun
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32, i64, run_fun
from repro.ir import ast as A
from repro.lmad import lmad
from repro.mem.exec import MemExecutor
from repro.symbolic import Var

n = Var("n")


def exec_and_compare(fun, **inputs):
    """Run interp + both pipelines; all must agree.  Returns (opt, stats)."""
    refs = run_fun(
        fun, **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()}
    )
    results = {}
    for sc in (False, True):
        c = compile_fun(fun, pipeline="full" if sc else "nosc")
        ex = MemExecutor(c.fun)
        vals, stats = ex.run(
            **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()}
        )
        for ref, val in zip(refs, vals):
            got = ex.mem[val.mem][val.ixfn.gather_offsets({})] if hasattr(val, "mem") else val
            assert np.allclose(got, ref, atol=1e-5), f"sc={sc} diverged"
        results[sc] = (c, stats)
    return results[True]


# ----------------------------------------------------------------------
# Update circuit points
# ----------------------------------------------------------------------
class TestUpdateCircuit:
    def test_fig4a_style_slice_update(self):
        """Fresh map result written into a slice: the simplest circuit."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        big = b.param("big", f32(n * 2))
        mp = b.map_(n, index="i")
        v = mp.binop("*", mp.index(x, [mp.idx]), 2.0)
        mp.returns(v)
        (X,) = mp.end()
        out = b.update_slice(big, [(0, n, 1)], X)
        b.returns(out)
        opt, stats = exec_and_compare(
            b.build(),
            x=np.arange(4, dtype=np.float32),
            big=np.zeros(8, dtype=np.float32),
        )
        assert opt.sc_stats.committed == 1
        assert stats.copy_traffic() == 0

    def test_fig1_left_commits(self):
        b = FunBuilder("f")
        b.size_param("n")
        Aname = b.param("A", f32(n * n))
        diag = b.lmad_slice(Aname, lmad(0, [(n, n + 1)]), name="diag")
        mp = b.map_(n, index="i")
        d = mp.index(diag, [mp.idx])
        r = mp.index(Aname, [mp.idx])
        mp.returns(mp.binop("+", d, r))
        (X,) = mp.end()
        A2 = b.update_lmad(Aname, lmad(0, [(n, n + 1)]), X)
        b.returns(A2)
        opt, stats = exec_and_compare(
            b.build(), n=8, A=np.arange(64, dtype=np.float32)
        )
        assert opt.sc_stats.committed == 1

    def test_fig1_right_fails_safely(self):
        """Data-dependent indirection: WAR hazards, copy must stay."""
        b = FunBuilder("f")
        b.size_param("n")
        Aname = b.param("A", f32(n * n))
        js = b.param("js", i64(n))
        diag = b.lmad_slice(Aname, lmad(0, [(n, n + 1)]), name="diag")
        mp = b.map_(n, index="i")
        d = mp.index(diag, [mp.idx])
        mp.index(js, [mp.idx], name="jv")
        r = mp.index(Aname, [Var("jv") * (n + 1)])
        mp.returns(mp.binop("+", d, r))
        (X,) = mp.end()
        A2 = b.update_lmad(Aname, lmad(0, [(n, n + 1)]), X)
        b.returns(A2)
        opt, stats = exec_and_compare(
            b.build(),
            n=8,
            A=np.arange(64, dtype=np.float32),
            js=np.random.RandomState(0).randint(0, 8, 8),
        )
        assert opt.sc_stats.committed == 0
        assert stats.copy_traffic() > 0

    def test_value_not_lastly_used_fails(self):
        """X used after the update: not a circuit point."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        big = b.param("big", f32(n * 2))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (X,) = mp.end()
        out = b.update_slice(big, [(0, n, 1)], X)
        again = b.reduce("+", X)  # X lives past the update
        b.returns(out, again)
        opt, _ = exec_and_compare(
            b.build(),
            x=np.arange(4, dtype=np.float32),
            big=np.zeros(8, dtype=np.float32),
        )
        assert opt.sc_stats.committed == 0

    def test_overlapping_use_between_fails(self):
        """A read of the destination region between creation and circuit
        point (paper property 4, fig. 4b line 7)."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        big = b.param("big", f32(n * 2))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (X,) = mp.end()
        peek = b.index(big, [0])  # reads inside the region X would occupy
        sink = b.binop("+", peek, 1.0)
        out = b.update_slice(big, [(0, n, 1)], X)
        b.returns(out, sink)
        opt, _ = exec_and_compare(
            b.build(),
            x=np.arange(4, dtype=np.float32),
            big=np.arange(8, dtype=np.float32),
        )
        assert opt.sc_stats.committed == 0

    def test_disjoint_use_between_commits(self):
        """A use of a *different* region of the destination is fine."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        big = b.param("big", f32(n * 2))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (X,) = mp.end()
        peek = b.index(big, [n + 1])  # second half: disjoint from [0, n)
        sink = b.binop("+", peek, 1.0)
        out = b.update_slice(big, [(0, n, 1)], X)
        b.returns(out, sink)
        opt, _ = exec_and_compare(
            b.build(),
            x=np.arange(4, dtype=np.float32),
            big=np.arange(8, dtype=np.float32),
        )
        assert opt.sc_stats.committed == 1

    def test_region_is_translated_to_the_creation_scope(self):
        """Section V-A-b: the slice start is a scalar defined *after* the
        fresh array, so the rebased index function must be rewritten, via
        the symbol table (two rounds: k -> h - n -> n), into names in
        scope where the array is created -- or the candidate fails."""

        def prog(start_of):
            b = FunBuilder("f")
            x = b.param("x", f32(n))
            big = b.param("big", f32(n * 3))
            offs = b.param("offs", i64(2))
            mp = b.map_(n, index="i")
            mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
            (X,) = mp.end()
            b.returns(b.update_slice(big, [(start_of(b, offs), n, 1)], X))
            return b.build()

        inputs = dict(
            x=np.arange(4, dtype=np.float32),
            big=np.zeros(12, dtype=np.float32),
            offs=np.array([4, 0]),
        )
        opt, stats = exec_and_compare(
            prog(lambda b, _: b.scalar(b.scalar(n * 2, name="h") - n, name="k")),
            **inputs,
        )
        # One commit, not one per fixpoint round: the installed binding
        # says `n`, the circuit point says `k`, and they are the same.
        assert opt.sc_stats.committed == 1 and not opt.sc_stats.failures
        assert stats.copy_traffic() == 0
        created = next(
            s for s in opt.fun.body.stmts if isinstance(s.exp, A.Map)
        )
        assert str(created.pattern[0].mem.ixfn) == "n + {(n : 1)}"

        # A start read out of a buffer has no symbol-table definition.
        opt, stats = exec_and_compare(
            prog(lambda b, offs: Var(b.index(offs, [0]))), **inputs
        )
        assert opt.sc_stats.committed == 0
        assert opt.sc_stats.failures == {"untranslatable-ixfn": 1}
        assert stats.copy_traffic() > 0


# ----------------------------------------------------------------------
# Concat circuit points and chains
# ----------------------------------------------------------------------
class TestConcatCircuit:
    def _two_maps_concat(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp1 = b.map_(n, index="i")
        mp1.returns(mp1.binop("*", mp1.index(x, [mp1.idx]), 2.0))
        (as_,) = mp1.end()
        mp2 = b.map_(n, index="i")
        mp2.returns(mp2.binop("+", mp2.index(x, [mp2.idx]), 1.0))
        (bs_,) = mp2.end()
        xss = b.concat(as_, bs_)
        b.returns(xss)
        return b.build()

    def test_fig4a_both_operands_commit(self):
        opt, stats = exec_and_compare(
            self._two_maps_concat(), x=np.arange(5, dtype=np.float32)
        )
        assert opt.sc_stats.committed == 2
        assert stats.copy_traffic() == 0

    def test_duplicated_operand_partial(self):
        """`concat bs bs` keeps one copy (footnote 17)."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (bs_,) = mp.end()
        xss = b.concat(bs_, bs_)
        b.returns(xss)
        opt, stats = exec_and_compare(
            b.build(), x=np.arange(5, dtype=np.float32)
        )
        # Only the first occurrence short-circuits into its segment.
        assert opt.sc_stats.committed == 1
        assert stats.copy_traffic() > 0  # one copy survives

    def test_layout_chain_rebased(self):
        """Invertible change-of-layout chain between creation and circuit
        (paper section V-A-a: cs = chg-layout(bs))."""
        b = FunBuilder("f")
        x = b.param("x", f32(4, 4))
        mp = b.map_(4, index="i")
        row = mp.map_(4, index="j")
        row.returns(row.binop("*", row.index(x, [Var("i"), row.idx]), 2.0))
        (r,) = row.end()
        mp.returns(r)
        (ys,) = mp.end()
        tr = b.transpose(ys)  # invertible
        rv = b.reverse(tr, 0)  # invertible
        big = b.param("big", f32(8, 4))
        out = b.update_slice(big, [(0, 4, 1), (0, 4, 1)], rv)
        b.returns(out)
        opt, stats = exec_and_compare(
            b.build(),
            x=np.arange(16, dtype=np.float32).reshape(4, 4),
            big=np.zeros(32, dtype=np.float32).reshape(8, 4),
        )
        # The update chain commits (the mapnest implicit circuit may too).
        assert opt.sc_stats.committed >= 1
        assert stats.copy_traffic() == 0

    def test_slice_chain_not_invertible(self):
        """A slice between creation and circuit point fails (the paper's
        dense-slice counterexample)."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp = b.map_(n * 2, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx % 1 if False else Var("i") - Var("i")]), 2.0))
        (ys,) = mp.end()
        half = b.slice(ys, [(0, n, 2)])  # every other element
        big = b.param("big", f32(n * 2))
        out = b.update_slice(big, [(0, n, 1)], half)
        b.returns(out)
        opt, _ = exec_and_compare(
            b.build(),
            x=np.arange(3, dtype=np.float32),
            big=np.zeros(6, dtype=np.float32),
        )
        assert opt.sc_stats.committed == 0
        assert "non-invertible-layout" in opt.sc_stats.failures

    def test_transitive_chain_fig6a(self):
        """as/bs -> cs (concat) -> yss (update): resolved via fixpoint."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        yss = b.param("yss", f32(n * 4))
        mp1 = b.map_(n, index="i")
        mp1.returns(mp1.binop("*", mp1.index(x, [mp1.idx]), 2.0))
        (as_,) = mp1.end()
        mp2 = b.map_(n, index="i")
        mp2.returns(mp2.binop("+", mp2.index(x, [mp2.idx]), 1.0))
        (bs_,) = mp2.end()
        cs = b.concat(as_, bs_)
        out = b.update_slice(yss, [(n, n * 2, 1)], cs)
        b.returns(out)
        opt, stats = exec_and_compare(
            b.build(),
            x=np.arange(3, dtype=np.float32),
            yss=np.zeros(12, dtype=np.float32),
        )
        # One candidate whose chain covers cs AND both concat operands.
        assert opt.sc_stats.committed == 1
        assert stats.copy_traffic() == 0


# ----------------------------------------------------------------------
# Mapnest implicit circuit points (fig. 6b)
# ----------------------------------------------------------------------
class TestMapImplicit:
    def test_local_loop_chain_commits(self):
        b = FunBuilder("f")
        b.size_param("n")
        src = b.param("src", f32(n, n))
        mp = b.map_(n, index="i")
        rs0 = mp.scratch("f32", [n])
        a0 = mp.index(src, [mp.idx, 0])
        rs1 = mp.update_point(rs0, [0], a0)
        lp = mp.loop(count=n - 1, carried=[("rs", rs1)], index="k")
        prev = lp.index(lp["rs"], [lp.idx])
        cur = lp.index(src, [Var("i"), lp.idx + 1])
        tot = lp.binop("+", cur, lp.unop("sqrt", lp.unop("abs", prev)))
        rs2 = lp.update_point(lp["rs"], [lp.idx + 1], tot)
        lp.returns(rs2)
        (rsf,) = lp.end()
        mp.returns(rsf)
        (xss,) = mp.end()
        b.returns(xss)
        opt, stats = exec_and_compare(
            b.build(),
            n=5,
            src=np.abs(np.random.RandomState(0).randn(5, 5)).astype(np.float32),
        )
        assert opt.sc_stats.committed == 1
        assert stats.elided_copies >= 5  # one implicit copy per thread

    def test_scalar_results_unaffected(self):
        """Scalar-result maps have no per-thread array to re-home."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 3.0))
        (ys,) = mp.end()
        b.returns(ys)
        opt, _ = exec_and_compare(b.build(), x=np.arange(4, dtype=np.float32))
        assert opt.sc_stats.committed == 0  # nothing to do; still correct


# ----------------------------------------------------------------------
# Loop crossing (fig. 5b) and its safety conditions
# ----------------------------------------------------------------------
class TestLoopCrossing:
    def test_double_buffer_safe_ordering_commits(self):
        """Per step: read input fully, then build a fresh result (condition
        (3) satisfied) -- collapses to one region."""
        b = FunBuilder("f")
        b.size_param("n")
        src = b.param("src", f32(n))
        mp = b.map_(n, index="th")
        u0 = mp.copy(src)
        lp = mp.loop(count=3, carried=[("u", u0)], index="t")
        # Read phase: gather the input into a temporary...
        d0 = lp.scratch("f32", [n])
        rd = lp.loop(count=n, carried=[("d", d0)], index="k")
        v = rd.binop("*", rd.index(lp["u"], [rd.idx]), 1.5)
        d1 = rd.update_point(rd["d"], [rd.idx], v)
        rd.returns(d1)
        (df,) = rd.end()
        # ... write phase: build the fresh result after all reads of u
        # (fig. 5b condition (3) satisfied at statement granularity).
        w0 = lp.scratch("f32", [n])
        wr = lp.loop(count=n, carried=[("w", w0)], index="k")
        v2 = wr.binop("+", wr.index(df, [wr.idx]), 1.0)
        w1 = wr.update_point(wr["w"], [wr.idx], v2)
        wr.returns(w1)
        (wf,) = wr.end()
        lp.returns(wf)
        (uf,) = lp.end()
        mp.returns(uf)
        (res,) = mp.end()
        b.returns(res)
        opt, _ = exec_and_compare(
            b.build(), n=4, src=np.arange(4, dtype=np.float32)
        )
        # The whole chain (u0 copy, per-step w, loop) lands in `res`.
        assert opt.sc_stats.committed >= 1

    def test_stencil_loop_rejected(self):
        """Footnote 23's stencil: iteration t+1 reads neighbours of what t
        wrote; collapsing the two buffers is unsafe and must fail."""
        b = FunBuilder("f")
        b.size_param("n")
        src = b.param("src", f32(n))
        mp = b.map_(1, index="th")
        u0 = mp.copy(src)
        lp = mp.loop(count=3, carried=[("u", u0)], index="t")
        w0 = lp.scratch("f32", [n])
        inner = lp.loop(count=n - 2, carried=[("w", w0)], index="k")
        # Reads u AFTER earlier writes to w would be unsafe if collapsed:
        # interleave read/write by reading u inside the same loop that
        # writes w at a *different* location.
        left = inner.index(lp["u"], [inner.idx])
        right = inner.index(lp["u"], [inner.idx + 2])
        w1 = inner.update_point(
            inner["w"], [inner.idx + 1], inner.binop("+", left, right)
        )
        inner.returns(w1)
        (wf,) = inner.end()
        lp.returns(wf)
        (uf,) = lp.end()
        mp.returns(uf)
        (res,) = mp.end()
        b.returns(res)
        opt, _ = exec_and_compare(
            b.build(), n=6, src=np.arange(6, dtype=np.float32)
        )
        # The loop-crossing candidate must NOT collapse the stencil buffers
        # ... and whatever happened, the result above was still correct.
        assert "loop-input-live-past-first-write" in opt.sc_stats.failures


# ----------------------------------------------------------------------
# Dead-copy reuse
# ----------------------------------------------------------------------
class TestCopyReuse:
    def test_copy_of_dead_source_reused(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (ys,) = mp.end()
        zs = b.copy(ys)  # ys dead after this
        v = b.lit(9.0)
        z2 = b.update_point(zs, [0], v)
        b.returns(z2)
        opt, stats = exec_and_compare(b.build(), x=np.arange(4, dtype=np.float32))
        # Either the full circuit (ys built in zs's block) or the dead-source
        # reuse fires -- both make the copy free (the 4-byte point update
        # write is real work, not copy overhead).
        assert opt.sc_stats.committed + opt.sc_stats.reused_copies >= 1
        copies = [k for k in stats.kernels.values() if k.kind == "copy"]
        assert sum(k.bytes_total for k in copies) == 0

    def test_copy_of_live_source_kept(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        mp = b.map_(n, index="i")
        mp.returns(mp.binop("*", mp.index(x, [mp.idx]), 2.0))
        (ys,) = mp.end()
        zs = b.copy(ys)
        v = b.lit(9.0)
        z2 = b.update_point(zs, [0], v)
        s = b.reduce("+", ys)  # ys still live
        b.returns(z2, s)
        opt, stats = exec_and_compare(b.build(), x=np.arange(4, dtype=np.float32))
        assert opt.sc_stats.reused_copies == 0
        assert stats.copy_traffic() > 0


# ----------------------------------------------------------------------
# If-crossing (fig. 5a)
# ----------------------------------------------------------------------
def if_crossing_fun(else_at_n=False):
    """Fig. 5a: an if's result is written into the upper half of ``big``.

    Each branch maps ``x`` into a fresh ``[n]`` array.  With
    ``else_at_n`` the else branch instead fills the upper half of a
    ``[2n]`` scratch buffer and returns that half, so the branches'
    index functions differ in offset (0 and n) and memory introduction
    anti-unifies them (section IV-C)."""
    b = FunBuilder("f")
    x = b.param("x", f32(n))
    big = b.param("big", f32(n * 2))
    c = b.param("c", f32())
    cb = b.binop("<", c, 0.5)
    ih = b.if_(cb)
    t_mp = ih.then_builder.map_(n, index="i")
    t_mp.returns(t_mp.binop("*", t_mp.index(x, [t_mp.idx]), 2.0))
    (tv,) = t_mp.end()
    ih.then_builder.returns(tv)
    els = ih.else_builder
    e_mp = els.map_(n, index="i")
    e_mp.returns(e_mp.binop("+", e_mp.index(x, [e_mp.idx]), 5.0))
    (ev,) = e_mp.end()
    if else_at_n:
        upper = els.update_slice(els.scratch("f32", [n * 2]), [(n, n, 1)], ev)
        ev = els.slice(upper, [(n, n, 1)])
    els.returns(ev)
    (X,) = ih.end()
    out = b.update_slice(big, [(n, n, 1)], X)
    b.returns(out)
    return b.build()


def if_pattern(fun):
    (stmt,) = [s for s in fun.body.stmts if isinstance(s.exp, A.If)]
    return stmt.pattern


class TestIfCrossing:
    def test_branch_results_rebased(self):
        fun = if_crossing_fun()
        for cval in (0.0, 1.0):
            opt, stats = exec_and_compare(
                fun,
                x=np.arange(4, dtype=np.float32),
                big=np.zeros(8, dtype=np.float32),
                c=np.float32(cval),
            )
        assert opt.sc_stats.committed == 1
        assert stats.copy_traffic() == 0

    def test_branch_offsets_antiunified(self):
        """The branches return slices at offsets 0 and n: the if returns
        an existential block and offset, and the circuit point still
        crosses into both branches (section V, fig. 5a)."""
        fun = if_crossing_fun(else_at_n=True)
        for cval in (0.0, 1.0):
            opt, stats = exec_and_compare(
                fun,
                x=np.arange(4, dtype=np.float32),
                big=np.zeros(8, dtype=np.float32),
                c=np.float32(cval),
            )
            assert stats.copy_traffic() == 0
        nosc = compile_fun(fun, pipeline="nosc", verify=True)
        full = compile_fun(fun, verify=True)
        for c in (nosc, full):
            assert all(r.ok() for r in c.verify_reports.values())
            assert verify_fun(c.fun).ok()
        # Beside the result: one existential block, one i64 offset.
        kinds = [str(pe.type) for pe in if_pattern(nosc.fun)]
        assert kinds[1:] == ["i64", "i64"], kinds
        result = if_pattern(full.fun)[0].name
        assert full.sc_stats.committed_roots.count(result) == 1
