"""Tests for the memory-IR executor: correctness vs. the reference
interpreter, traffic accounting, elision rule, and dry-run scaling."""

import numpy as np
import pytest

from repro.ir import FunBuilder, f32, run_fun
from repro.ir import ast as A
from repro.lmad import IndexFn, lmad
from repro.mem import introduce_memory
from repro.mem.exec import MemExecutor, RuntimeArray, UninitializedReadError
from repro.mem.memir import MemBinding
from repro.symbolic import Var

n = Var("n")


def materialize(ex: MemExecutor, val: RuntimeArray) -> np.ndarray:
    return ex.mem[val.mem][val.ixfn.gather_offsets({})]


def check_against_interp(fun, **inputs):
    """Run both semantics; array results must agree element-wise."""
    refs = run_fun(fun, **{k: (v.copy() if hasattr(v, "copy") else v) for k, v in inputs.items()})
    mfun = introduce_memory(fun)
    ex = MemExecutor(mfun)
    vals, stats = ex.run(**inputs)
    for ref, val in zip(refs, vals):
        if isinstance(val, RuntimeArray):
            assert np.allclose(materialize(ex, val), ref)
        else:
            assert np.allclose(val, ref)
    return stats


def diag_fun():
    b = FunBuilder("diag_add")
    b.size_param("n")
    Aname = b.param("A", f32(n * n))
    diag = b.lmad_slice(Aname, lmad(0, [(n, n + 1)]), name="diag")
    row0 = b.lmad_slice(Aname, lmad(0, [(n, 1)]), name="row0")
    mp = b.map_(n, index="i")
    d = mp.index(diag, [mp.idx])
    r = mp.index(row0, [mp.idx])
    s = mp.binop("+", d, r)
    mp.returns(s)
    (X,) = mp.end()
    A2 = b.update_lmad(Aname, lmad(0, [(n, n + 1)]), X, name="A2")
    b.returns(A2)
    return b.build()


class TestAgreementWithInterpreter:
    def test_diag_program(self):
        check_against_interp(diag_fun(), n=6, A=np.arange(36, dtype=np.float32))

    def test_concat_program(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        y = b.param("y", f32(n))
        dx = b.copy(x)
        dy = b.copy(y)
        z = b.concat(dx, dy)
        b.returns(z)
        check_against_interp(
            b.build(),
            x=np.arange(4, dtype=np.float32),
            y=np.arange(4, 8).astype(np.float32),
        )

    def test_layout_chain_program(self):
        b = FunBuilder("f")
        x = b.param("x", f32(4, 6))
        t = b.transpose(x)
        s = b.slice(t, [(1, 2, 2), (0, 4, 1)])
        c = b.copy(s)
        b.returns(c)
        check_against_interp(
            b.build(), x=np.arange(24, dtype=np.float32).reshape(4, 6)
        )

    def test_triplet_update_program(self):
        b = FunBuilder("f")
        x = b.param("x", f32(8))
        v = b.iota(4)
        vf = b.map_(4, index="i")
        e = vf.index(v, [vf.idx])
        ef = vf.unop("f32", e)
        vf.returns(ef)
        (vv,) = vf.end()
        x2 = b.update_slice(x, [(0, 4, 2)], vv)
        b.returns(x2)
        check_against_interp(b.build(), x=np.zeros(8, dtype=np.float32))

    def test_loop_program(self):
        b = FunBuilder("f")
        x = b.param("x", f32(5))
        lp = b.loop(count=5, carried=[("xc", x)], index="i")
        val = lp.index(lp["xc"], [lp.idx])
        v2 = lp.binop("+", val, 1.0)
        x2 = lp.update_point(lp["xc"], [lp.idx], v2)
        lp.returns(x2)
        (res,) = lp.end()
        b.returns(res)
        check_against_interp(b.build(), x=np.zeros(5, dtype=np.float32))

    def test_map_with_local_array(self):
        """fig. 6b-style mapnest with a per-thread sequential loop."""
        b = FunBuilder("f")
        b.size_param("n")
        asrc = b.param("as_", f32(n, n))
        mp = b.map_(n, index="i")
        rs0 = mp.scratch("f32", [n], name="rs0")
        a0 = mp.index(asrc, [mp.idx, 0])
        rs1 = mp.update_point(rs0, [0], a0, name="rs1")
        lp = mp.loop(count=n - 1, carried=[("rs", rs1)], index="k")
        prev = lp.index(lp["rs"], [lp.idx])
        cur = lp.index(asrc, [Var("i"), lp.idx + 1])
        sq = lp.unop("sqrt", prev)
        tot = lp.binop("+", cur, sq)
        rs2 = lp.update_point(lp["rs"], [lp.idx + 1], tot)
        lp.returns(rs2)
        (rsf,) = lp.end()
        mp.returns(rsf)
        (xss,) = mp.end()
        b.returns(xss)
        check_against_interp(
            b.build(),
            n=4,
            as_=np.abs(np.random.RandomState(0).randn(4, 4)).astype(np.float32),
        )


class TestTrafficAccounting:
    def test_update_copy_counted(self):
        stats = check_against_interp(
            diag_fun(), n=6, A=np.arange(36, dtype=np.float32)
        )
        # map kernel + update kernel
        assert stats.launches == 2
        assert stats.copy_traffic() == 2 * 6 * 4  # read X + write diag slice

    def test_elision_rule(self):
        fun = diag_fun()
        mfun = introduce_memory(fun)
        map_stmt = [s for s in mfun.body.stmts if isinstance(s.exp, A.Map)][0]
        map_stmt.pattern[0].mem = MemBinding(
            "A_mem", IndexFn.row_major([n * n]).lmad_slice(lmad(0, [(n, n + 1)]))
        )
        Ain = np.arange(36, dtype=np.float32)
        (ref,) = run_fun(fun, n=6, A=Ain.copy())
        ex = MemExecutor(mfun)
        vals, stats = ex.run(n=6, A=Ain.copy())
        assert np.allclose(materialize(ex, vals[0]), ref)
        assert stats.elided_copies == 1
        assert stats.copy_traffic() == 0
        assert stats.launches == 1

    def test_scratch_writes_nothing(self):
        b = FunBuilder("f")
        s = b.scratch("f32", [100], name="s")
        b.returns(s)
        mfun = introduce_memory(b.build())
        _, stats = MemExecutor(mfun).run()
        assert stats.bytes_written == 0

    def test_iota_writes_size(self):
        b = FunBuilder("f")
        x = b.iota(10, name="x")
        b.returns(x)
        mfun = introduce_memory(b.build())
        _, stats = MemExecutor(mfun).run()
        assert stats.bytes_written == 10 * 8  # i64

    def test_map_reads_attributed_to_kernel(self):
        stats = check_against_interp(
            diag_fun(), n=6, A=np.arange(36, dtype=np.float32)
        )
        maps = [k for k in stats.kernels.values() if k.kind == "map"]
        assert len(maps) == 1
        assert maps[0].bytes_read == 2 * 6 * 4  # diag + row0 reads
        assert maps[0].bytes_written == 6 * 4  # X
        assert maps[0].flops == 6


class TestDryRun:
    def test_dry_matches_real_traffic(self):
        """Dry-run traffic must equal real traffic at the same size."""
        fun = diag_fun()
        mfun = introduce_memory(fun)
        _, real = MemExecutor(mfun).run(n=8, A=np.zeros(64, dtype=np.float32))
        _, dry = MemExecutor(mfun, mode="dry").run(n=8)
        assert dry.bytes_read == real.bytes_read
        assert dry.bytes_written == real.bytes_written
        assert dry.flops == real.flops
        assert dry.launches == real.launches

    def test_dry_scales_to_huge_sizes(self):
        fun = diag_fun()
        mfun = introduce_memory(fun)
        _, dry = MemExecutor(mfun, mode="dry").run(n=32768)
        # map reads 2 f32 per thread; update copies n f32 both ways
        assert dry.bytes_read == 2 * 32768 * 4 + 32768 * 4
        assert dry.bytes_written == 32768 * 4 * 2

    def test_dry_loop_iterates(self):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        lp = b.loop(count=7, carried=[("xc", x)], index="i")
        c = lp.copy(lp["xc"])
        lp.returns(c)
        (res,) = lp.end()
        b.returns(res)
        mfun = introduce_memory(b.build())
        _, dry = MemExecutor(mfun, mode="dry").run(n=100)
        copies = [k for k in dry.kernels.values() if k.kind == "copy"]
        assert sum(k.launches for k in copies) == 7
        assert sum(k.bytes_read for k in copies) == 7 * 100 * 4


def test_executor_instances_keep_cpython_shared_keys():
    """CPython (3.11-3.12) stops sharing instance-dict keys, and with
    them the specialized attribute loads, once a class's instances carry
    30 attributes; every executor mode then runs ~6 % slower.  Turn a
    per-map value into a local before adding a 30th."""
    ex = MemExecutor(introduce_memory(diag_fun()), mode="dry")
    assert len(vars(ex)) <= 27


class TestHostLevelReads:
    """A host-level ``reduce``/``argmin`` reads a contiguous region in
    place; only a region that is not one slice (or a debug run, whose
    checks are per offset) enumerates offsets."""

    @staticmethod
    def _argmin_of(view):
        b = FunBuilder("f")
        x = b.param("x", f32(n))
        v, i = b.argmin(view(b, x))
        s = b.reduce("+", view(b, x))
        b.returns(v, i, s)
        return introduce_memory(b.build())

    def test_contiguous_region_leaves_no_offset_array(self):
        fun = self._argmin_of(lambda b, x: b.slice(x, [(1, n - 1, 1)]))
        x = np.array([0.5, 7, 3, 2, 9, 2], dtype=np.float32)
        ex = MemExecutor(fun)
        vals, stats = ex.run(x=x.copy())
        assert vals == [2.0, 2, np.float32(23.0)]
        assert not ex._offs_cache
        # Same values, same accounting as the offset-by-offset read.
        dbg = MemExecutor(fun, debug=True)
        dvals, dstats = dbg.run(x=x.copy())
        assert dvals == vals and dstats.signature() == stats.signature()
        assert len(dbg._offs_cache) == 1

    def test_strided_region_still_gathers(self):
        fun = self._argmin_of(lambda b, x: b.slice(x, [(0, 3, 2)]))
        ex = MemExecutor(fun)
        vals, _ = ex.run(x=np.array([4, 0, 3, 0, 9, 0], dtype=np.float32))
        assert vals == [3.0, 1, np.float32(16.0)]
        (offs,) = ex._offs_cache.values()
        assert offs.tolist() == [0, 2, 4]

    def test_debug_still_sees_an_uninitialised_read(self):
        b = FunBuilder("f")
        b.param("x", f32(n))
        b.returns(b.reduce("min", b.scratch("f32", [n])))
        fun = introduce_memory(b.build())
        x = np.arange(4, dtype=np.float32)
        assert MemExecutor(fun).run(x=x.copy())[0] == [0.0]
        with pytest.raises(UninitializedReadError):
            MemExecutor(fun, debug=True).run(x=x.copy())
