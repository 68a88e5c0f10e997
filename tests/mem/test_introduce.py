"""Tests for the memory introduction pass (paper section IV-C)."""

import numpy as np

from repro.ir import FunBuilder, f32, run_fun
from repro.ir import ast as A
from repro.lmad import IndexFn, lmad
from repro.mem import introduce_memory, hoist_allocations
from repro.mem.hoist import remove_dead_allocations
from repro.mem.memir import MemBinding, array_bindings, binders, binding_of
from repro.symbolic import Var

n, m = Var("n"), Var("m")


def _find(fun, name):
    from repro.mem.memir import iter_stmts

    for stmt in iter_stmts(fun.body):
        for pe in stmt.pattern:
            if pe.name == name:
                return stmt, pe
    raise KeyError(name)


class TestFreshArrays:
    def test_copy_gets_alloc_and_rowmajor(self):
        """The paper's `let y = copy x` example of section IV-C."""
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        y = b.copy(x, name="y")
        b.returns(y)
        mfun = introduce_memory(b.build())
        stmt, pe = _find(mfun, "y")
        bind = binding_of(pe)
        assert bind is not None
        assert bind.ixfn == IndexFn.row_major([n, m])
        allocs = [s for s in mfun.body.stmts if isinstance(s.exp, A.Alloc)]
        assert len(allocs) == 1
        assert allocs[0].exp.size == n * m
        assert allocs[0].names[0] == bind.mem

    def test_iota_scratch_concat_allocs(self):
        b = FunBuilder("f")
        x = b.iota(n, name="x")
        y = b.scratch("i64", [n], name="y")
        z = b.concat(x, y, name="z")
        b.returns(z)
        mfun = introduce_memory(b.build())
        allocs = [s for s in mfun.body.stmts if isinstance(s.exp, A.Alloc)]
        assert len(allocs) == 3
        _, pz = _find(mfun, "z")
        assert binding_of(pz).ixfn.shape[0] == n + n

    def test_param_binding_implicit(self):
        from repro.mem.memir import array_bindings

        b = FunBuilder("f")
        x = b.param("x", f32(n))
        c = b.copy(x, name="c")
        b.returns(c)
        mfun = introduce_memory(b.build())
        binds = array_bindings(mfun)
        assert binds["x"].mem == "x_mem"


class TestChangeOfLayout:
    def test_transpose_same_mem(self):
        """Paper: `let z = transpose y` stays in y's memory, column-major."""
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        y = b.copy(x, name="y")
        z = b.transpose(y, name="z")
        b.returns(z)
        mfun = introduce_memory(b.build())
        _, py = _find(mfun, "y")
        _, pz = _find(mfun, "z")
        assert binding_of(pz).mem == binding_of(py).mem
        assert binding_of(pz).ixfn == IndexFn.row_major([n, m]).transpose()

    def test_slice_offsets_into_source(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        s = b.slice(x, [(1, 2, 1), (0, m, 1)], name="s")
        b.returns(s)
        mfun = introduce_memory(b.build())
        _, ps = _find(mfun, "s")
        bind = binding_of(ps)
        assert bind.mem == "x_mem"
        assert bind.ixfn.inner.offset == m

    def test_lmad_slice_binding(self):
        b = FunBuilder("f")
        b.size_param("n")
        x = b.param("x", f32(n * n))
        d = b.lmad_slice(x, lmad(0, [(n, n + 1)]), name="d")
        b.returns(d)
        mfun = introduce_memory(b.build())
        _, pd = _find(mfun, "d")
        assert binding_of(pd).ixfn.inner == lmad(0, [(n, n + 1)])

    def test_update_result_shares_memory(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        v = b.lit(1.0)
        x2 = b.update_point(x, [0], v, name="x2")
        b.returns(x2)
        mfun = introduce_memory(b.build())
        _, p2 = _find(mfun, "x2")
        assert binding_of(p2).mem == "x_mem"


class TestIfAntiUnification:
    def _branchy(self, make_else_colmajor: bool):
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        c = b.param("c", f32())  # runtime float to build a condition from
        cb = b.binop("<", c, 0.5)
        ih = b.if_(cb)
        t1 = ih.then_builder.copy(x, name="tcopy")
        ih.then_builder.returns(t1)
        if make_else_colmajor:
            e0 = ih.else_builder.copy(x, name="ecopy")
            e1 = ih.else_builder.transpose(e0, name="etr")
            e2 = ih.else_builder.transpose(e1, name="etr2")
            ih.else_builder.returns(e2)
        else:
            e1 = ih.else_builder.copy(x, name="ecopy")
            ih.else_builder.returns(e1)
        (r,) = ih.end()
        b.returns(r)
        return b.build()

    def test_same_layout_different_mem_gets_existential(self):
        fun = self._branchy(False)
        mfun = introduce_memory(fun)
        if_stmt = [s for s in mfun.body.stmts if isinstance(s.exp, A.If)][0]
        # Pattern extended with an existential memory element.
        assert len(if_stmt.pattern) == 2
        arr_pe = if_stmt.pattern[0]
        bind = binding_of(arr_pe)
        assert bind.mem == if_stmt.pattern[1].name
        # Branch results extended with the two branch memory names.
        assert len(if_stmt.exp.then_block.result) == 2

    def test_execution_through_existential(self):
        fun = self._branchy(False)
        mfun = introduce_memory(fun)
        from repro.mem.exec import MemExecutor

        xin = np.arange(6, dtype=np.float32).reshape(2, 3)
        for cval in (0.0, 1.0):
            (ref,) = run_fun(fun, x=xin, c=np.float32(cval))
            ex = MemExecutor(mfun)
            vals, _ = ex.run(x=xin, c=np.float32(cval))
            got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
            assert np.allclose(got, ref)

    def test_paper_lgg_example(self):
        """Row-major vs column-major branches: lgg with 2 existential
        strides (paper section IV-C)."""
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        c = b.param("c", f32())
        cb = b.binop("<", c, 0.5)
        ih = b.if_(cb)
        t1 = ih.then_builder.copy(x, name="tc")
        ih.then_builder.returns(t1)
        # col-major y: copy of transpose, then transposed view
        e0 = ih.else_builder.transpose(x, name="etr")
        e1 = ih.else_builder.copy(e0, name="ec")
        e2 = ih.else_builder.transpose(e1, name="etr2")
        ih.else_builder.returns(e2)
        (r,) = ih.end()
        b.returns(r)
        mfun = introduce_memory(b.build())
        if_stmt = [s for s in mfun.body.stmts if isinstance(s.exp, A.If)][0]
        # existential mem + 2 existential strides
        assert len(if_stmt.pattern) == 4
        bind = binding_of(if_stmt.pattern[0])
        single = bind.ixfn.as_single()
        assert single is not None
        assert single.dims[0].shape == n
        # both strides are existential variables now
        assert len(single.dims[0].stride.free_vars()) == 1
        # executions agree with the reference on both paths
        xin = np.arange(6, dtype=np.float32).reshape(2, 3)
        from repro.mem.exec import MemExecutor

        for cval in (0.0, 1.0):
            (ref,) = run_fun(b.build(), x=xin, c=np.float32(cval))
            ex = MemExecutor(mfun)
            vals, _ = ex.run(x=xin, c=np.float32(cval))
            got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
            assert np.allclose(got, ref)


class TestLoopNormalization:
    def test_loop_param_existential_binding(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        lp = b.loop(count=3, carried=[("xc", x)], index="i")
        v = lp.lit(1.0)
        x2 = lp.update_point(lp["xc"], [lp.idx], v)
        lp.returns(x2)
        (res,) = lp.end()
        b.returns(res)
        mfun = introduce_memory(b.build())
        loop_stmt = [s for s in mfun.body.stmts if isinstance(s.exp, A.Loop)][0]
        (prm, _init), = loop_stmt.exp.carried
        assert prm.name == "xc"
        assert binding_of(prm).mem.startswith("lmem_")
        assert not hasattr(loop_stmt.exp.body, "param_bindings")

    def test_binding_of_answers_for_every_kind_of_binder(self):
        """Pattern element, loop parameter, function parameter: one
        accessor, and it agrees with the whole-function table."""
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        b.size_param("k")
        lp = b.loop(count=3, carried=[("xc", x), ("acc", b.lit(0.0))], index="i")
        x2 = lp.update_point(lp["xc"], [lp.idx], lp["acc"])
        lp.returns(x2, lp["acc"])
        res, _acc = lp.end()
        b.returns(res)
        mfun = introduce_memory(b.build())
        table = array_bindings(mfun)
        (loop_stmt,) = [s for s in mfun.body.stmts if isinstance(s.exp, A.Loop)]
        seen = {p.name: binding_of(p) for p in mfun.params}
        seen.update((pe.name, binding_of(pe)) for pe in binders(loop_stmt))
        _, x2_pe = _find(mfun, x2)
        seen[x2] = binding_of(x2_pe)
        assert seen["x"] == MemBinding("x_mem", IndexFn.row_major([n]))
        assert seen["k"] is None and seen["acc"] is None  # scalars
        arrays = {k: v for k, v in seen.items() if v is not None}
        assert set(arrays) == {"x", "xc", x2, loop_stmt.names[0]}
        assert arrays == {k: table[k] for k in arrays}
        assert [pe.name for pe in binders(loop_stmt)] == (
            list(loop_stmt.names) + ["xc", "acc"]
        )

    def test_nondirect_init_copied(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n, m))
        tr = b.transpose(x, name="tr")  # non-direct layout
        lp = b.loop(count=2, carried=[("xc", tr)], index="i")
        lp.returns(lp["xc"])
        (res,) = lp.end()
        b.returns(res)
        mfun = introduce_memory(b.build())
        copies = [
            s
            for s in mfun.body.stmts
            if isinstance(s.exp, A.Copy) and s.exp.src == "tr"
        ]
        assert len(copies) == 1

    def test_loop_executes_correctly(self):
        b = FunBuilder("f")
        x = b.param("x", f32(4))
        lp = b.loop(count=4, carried=[("xc", x)], index="i")
        v = lp.index(lp["xc"], [lp.idx])
        v2 = lp.binop("*", v, 2.0)
        x2 = lp.update_point(lp["xc"], [lp.idx], v2)
        lp.returns(x2)
        (res,) = lp.end()
        b.returns(res)
        fun = b.build()
        mfun = introduce_memory(fun)
        from repro.mem.exec import MemExecutor

        xin = np.array([1, 2, 3, 4], dtype=np.float32)
        (ref,) = run_fun(fun, x=xin.copy())
        ex = MemExecutor(mfun)
        vals, _ = ex.run(x=xin.copy())
        got = ex.mem[vals[0].mem][vals[0].ixfn.gather_offsets({})]
        assert np.allclose(got, ref)


class TestHoisting:
    def test_allocs_hoisted_to_front(self):
        b = FunBuilder("f")
        b.size_param("n")
        x = b.param("x", f32(n))
        y = b.copy(x, name="y")  # alloc depends only on n
        z = b.copy(y, name="z")
        b.returns(z)
        mfun = introduce_memory(b.build())
        hoist_allocations(mfun)
        kinds = [type(s.exp).__name__ for s in mfun.body.stmts]
        assert kinds[0] == "Alloc" and kinds[1] == "Alloc"

    def test_hoist_respects_size_dependencies(self):
        b = FunBuilder("f")
        b.size_param("n")
        k = b.scalar(n * 2, name="k")
        y = b.scratch("f32", [k], name="y")
        b.returns(y)
        mfun = introduce_memory(b.build())
        hoist_allocations(mfun)
        stmts = mfun.body.stmts
        k_pos = next(i for i, s in enumerate(stmts) if "k" in s.names)
        alloc_pos = next(
            i for i, s in enumerate(stmts) if isinstance(s.exp, A.Alloc)
        )
        assert alloc_pos > k_pos

    def test_dead_alloc_removed_after_rebasing(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        y = b.copy(x, name="y")
        b.returns(y)
        mfun = introduce_memory(b.build())
        # Simulate short-circuiting: rebase y into x_mem.
        from repro.mem.memir import MemBinding

        stmt, pe = _find(mfun, "y")
        pe.mem = MemBinding("x_mem", IndexFn.row_major([n]))
        removed = remove_dead_allocations(mfun)
        assert removed == 1
        assert not any(isinstance(s.exp, A.Alloc) for s in mfun.body.stmts)
