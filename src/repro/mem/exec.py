"""Memory-IR executor: runs annotated programs on flat buffers.

This is the reproduction's GPU.  Arrays are (memory block, concrete index
function) pairs; every data movement -- explicit ``copy``/``concat``/
``update`` statements and the implicit per-thread result write of a
``map`` -- goes through :meth:`MemExecutor._copy_region`, which has exactly
one optimization rule:

    if the source already lives at the destination (same block, same
    index function), the copy is a no-op.

Short-circuiting only ever changes memory annotations, so this single rule
is what turns the optimization into measured savings, in both executor
modes:

* ``mode="real"``  -- buffers are real NumPy arrays; results are
  bit-compared against the reference interpreter by the test suite.
* ``mode="dry"``   -- buffers are sizes only; ``map`` bodies execute once
  (at a representative thread index) and their traffic is scaled by the
  width.  This is how paper-scale datasets (up to 32768 x 32768) are
  measured without allocating terabytes.

Kernel accounting mirrors a GPU host program: each ``map`` statement
execution is one kernel launch (a map inside a sequential loop launches
per iteration); explicit copies are their own kernels; scalar host code is
free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.decisions import Decision
from repro.lmad import IndexFn
from repro.symbolic import SymExpr

from repro.ir import ast as A
from repro.ir.interp import InterpError, bind_shape_vars, eval_sym
from repro.ir.scalar import OPS, REDUCTIONS
from repro.ir.types import ArrayType, DTYPE_INFO
from repro.mem.kernel import label
from repro.mem.memir import MemBinding, binding_of
from repro.mem.stats import ExecStats, KernelStat


class MemCheckError(InterpError):
    """Base class for violations found by the debug shadow memory."""


class OutOfBoundsError(MemCheckError):
    """An access touched offsets outside its memory block.

    NumPy would silently wrap negative offsets, so without this check a
    mis-rebased index function can read the *end* of a buffer and still
    validate by luck.
    """


class UninitializedReadError(MemCheckError):
    """A scalar read consumed memory nothing ever wrote.

    Copies of partially-initialized buffers are legal (double-buffered
    loops do this constantly); the shadow bit simply travels with the
    data, and only a scalar *use* of a poisoned element is an error.
    """


@dataclass(frozen=True)
class MemRef:
    """Runtime value of a memory-block binding (existential or concrete)."""

    name: str


@dataclass(frozen=True)
class RuntimeArray:
    """An array value at run time: block name + fully concrete index fn."""

    mem: str
    ixfn: IndexFn
    dtype: str

    @property
    def itemsize(self) -> int:
        return DTYPE_INFO[self.dtype][1]

    def size(self) -> int:
        n = self.ixfn.size().as_int()
        assert n is not None
        return n

    def nbytes(self) -> int:
        return self.size() * self.itemsize

    def region(self, ixfn: IndexFn) -> "RuntimeArray":
        return RuntimeArray(self.mem, ixfn, self.dtype)


class MemExecutor:
    """Execute one memory-annotated function."""

    def __init__(
        self,
        fun: A.Fun,
        mode: str = "real",
        loop_sample: Optional[int] = None,
        debug: bool = False,
        vectorize: bool = True,
        pool=None,
        offs_cache: Optional[Dict[Tuple[str, IndexFn], np.ndarray]] = None,
        vec_plans: Optional[Dict[int, object]] = None,
        native=None,
        recorder=None,
    ):
        if mode not in ("real", "dry"):
            raise ValueError(f"unknown mode {mode!r}")
        self.fun = fun
        self.mode = mode
        #: Dispatch eligible real-mode ``map`` statements to the batched
        #: NumPy engine (repro.mem.vectorize).  Per-element interpretation
        #: remains the semantic reference; debug mode always interprets so
        #: shadow-memory checks see every access.
        self.vectorize = vectorize and mode == "real" and not debug
        #: Optional :class:`repro.backend.engine.NativeEngine` -- the
        #: compiled-C tier, attempted before the vectorized dispatch.
        #: Off by default on bare executors (the differential tests pin
        #: exact vec/interp launch counts); :class:`repro.runtime.
        #: Program` wires a shared engine in for warm serving.
        self._native = native if self.vectorize else None
        #: Optional :class:`repro.runtime.tape.TapeRecorder`: told of
        #: every host-level effect on buffer contents (input binding,
        #: copy, fill, point write, native launch) and of every
        #: host-level statement whose value depends on buffer contents,
        #: so that the run's host schedule can be frozen and replayed.
        self._recorder = recorder if self._native is not None else None
        #: Shadow-memory checking: every block gets a parallel boolean
        #: "was this element ever written" array; reads and writes are
        #: bounds-checked against the block extent.  Copies *propagate*
        #: the shadow bits (valgrind-style) so double-buffering partially
        #: initialized arrays stays legal; only scalar uses of poisoned
        #: elements raise.  Zero overhead when off.
        #:
        #: In dry mode there are no buffers to shadow, so ``debug=True``
        #: degrades to *bounds-only* checking: every region access is
        #: validated against its block extent analytically (O(rank) LMAD
        #: span, no offset enumeration), which is what lets paper-scale
        #: datasets be checked without allocating terabytes.
        #: Initialization checking needs real data and stays real-only.
        self.debug = debug
        self._shadow: Dict[str, np.ndarray] = {}
        #: In dry mode: sample at most this many iterations of sequential
        #: loops *inside kernels* and extrapolate the traffic (per-thread
        #: work is uniform or linearly varying in these benchmarks).  None
        #: disables sampling (exact counts).
        self.loop_sample = loop_sample
        self.mem: Dict[str, object] = {}  # name -> ndarray (real) | int (dry)
        self.stats = ExecStats()
        self._kernel_stack: List[KernelStat] = []
        self._alloc_counter = 0
        # Live-allocation accounting (the high-water mark; a dry-mode run
        # of it is what repro.reuse.footprint reports).  Lifetimes follow
        # the Let.mem_frees annotations at host level; blocks allocated
        # inside a kernel die wholesale when the outermost map ends; and
        # blocks born inside a host loop die at each iteration's end
        # unless the carried state still reaches them.
        self._live_bytes = 0
        self._peak_bytes = 0
        # Per-space shadow of the live/peak counters (repro.mem.spaces):
        # the totals above stay authoritative; these partition them.
        self._live_by_space: Dict[str, int] = {}
        self._peak_by_space: Dict[str, int] = {}
        # unique (run-time) block name -> memory space; parameter blocks
        # and anything absent default to "hbm".
        self._mem_space: Dict[str, str] = {}
        self._live_insts: Dict[str, Tuple[int, str]] = {}  # unique -> (nbytes, space)
        self._static_live: Dict[str, List[str]] = {}  # static -> uniques
        self._alloc_log: List[Tuple[str, str]] = []  # (static, unique)
        self._kernel_allocs: List[Tuple[str, str]] = []
        # Offset arrays depend only on the (fully concrete) index function,
        # so identical regions accessed across loop iterations share one
        # array.  Callers never mutate the result.  A Program serving the
        # same compiled function many times passes a shared dict so the
        # enumeration cost amortizes across calls (keys are deterministic:
        # the per-run unique block names repeat run to run).
        self._offs_cache: Dict[Tuple[str, IndexFn], np.ndarray] = (
            offs_cache if offs_cache is not None else {}
        )
        #: Pooled-buffer lease (repro.runtime.pool.PoolLease): real-mode
        #: allocations draw zero-filled buffers from it instead of paying
        #: a fresh np.zeros per call.  The lease's lifetime is the
        #: caller's concern -- buffers may be recycled once it closes, so
        #: outputs must be materialized first.
        self._pool = pool if mode == "real" else None
        #: Shared kernel-plan dict (id(stmt) -> repro.mem.kernel.Plan),
        #: again for cross-run amortization; None keeps a private one.
        self._vec_plans = {} if vec_plans is None else vec_plans
        self._vec_engine = None  # lazily built repro.mem.vectorize.VecEngine
        # Static fused-producer plans per outermost map statement (see
        # _fused_plan); the subtree never changes after compilation.
        self._fused_cache: Dict[
            str, List[Tuple[A.FusedRecord, Tuple[SymExpr, ...]]]
        ] = {}

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def run(self, **inputs) -> Tuple[List[object], ExecStats]:
        env: Dict[str, object] = {}
        declared = {p.name for p in self.fun.params}
        for k, v in inputs.items():
            if k not in declared:
                env[k] = v
        # Both modes: a dry run may be handed arrays, whose contents it
        # never reads, or nothing but the shape variables themselves.
        bind_shape_vars(self.fun.params, inputs, env)
        for p in self.fun.params:
            if not isinstance(p.type, ArrayType):
                if p.name not in inputs:
                    raise InterpError(f"missing input {p.name!r}")
                env[p.name] = inputs[p.name]
        self.fun.check_premises(env)
        for p in self.fun.params:
            if isinstance(p.type, ArrayType):
                self._bind_input_array(p, inputs, env)
        values = self.run_block(self.fun.body, env)
        self.stats.peak_bytes = self._peak_bytes
        self.stats.space_peak_bytes = dict(self._peak_by_space)
        return values, self.stats

    def _bind_input_array(self, p: A.Param, inputs, env) -> None:
        t = p.type
        assert isinstance(t, ArrayType)
        binding = binding_of(p)
        mem = binding.mem
        if self.mode == "real":
            if p.name not in inputs:
                raise InterpError(f"missing input {p.name!r}")
            arr = np.ascontiguousarray(
                inputs[p.name], dtype=DTYPE_INFO[t.dtype][0]
            )
            if self._pool is not None:
                # Input contents overwrite the whole buffer: skip the
                # zero fill, count the pool round trip like an alloc.
                buf, reused = self._pool.acquire(arr.size, t.dtype, zero=False)
                np.copyto(buf, arr.reshape(-1))
                self.mem[mem] = buf
                if self._recorder is not None:
                    self._recorder.input(p.name, buf)
                if reused:
                    self.stats.pool_hits += 1
                else:
                    self.stats.pool_misses += 1
            else:
                self.mem[mem] = arr.reshape(-1).copy()
            size = arr.size
            if self.debug:
                self._shadow[mem] = np.ones(arr.size, dtype=bool)
        else:
            size = eval_sym(t.size(), env)
            self.mem[mem] = size
        # Input blocks are live for the whole run (never freed).
        self._bump_live("hbm", size * DTYPE_INFO[t.dtype][1])
        ixfn = self._instantiate(binding.ixfn, env)
        env[p.name] = RuntimeArray(mem, ixfn, t.dtype)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _instantiate(self, ixfn: IndexFn, env: Mapping[str, object]) -> IndexFn:
        subst = {}
        for v in ixfn.free_vars():
            if v not in env:
                raise InterpError(f"unbound variable {v!r} in index function")
            val = env[v]
            if isinstance(val, np.generic):
                val = val.item()
            if not isinstance(val, int):
                raise InterpError(f"index-function var {v!r} is not an int")
            subst[v] = val
        return ixfn.substitute(subst) if subst else ixfn

    def _fresh_buffer(self, size: int, dtype: str) -> np.ndarray:
        """A zero-filled flat buffer: pooled when leased, np.zeros else.

        Pooled buffers are zero-filled on acquisition, so the two paths
        are indistinguishable to the program -- the differential tests
        pin outputs and traffic signatures bit-identical either way.
        """
        if self._pool is not None:
            buf, reused = self._pool.acquire(size, dtype)
            if reused:
                self.stats.pool_hits += 1
            else:
                self.stats.pool_misses += 1
            return buf
        return np.zeros(size, dtype=DTYPE_INFO[dtype][0])

    def _resolve_mem(self, name: str, env: Mapping[str, object]) -> str:
        seen = set()
        while name in env and isinstance(env[name], MemRef) and name not in seen:
            seen.add(name)
            name = env[name].name
        if name not in self.mem:
            raise InterpError(f"unknown memory block {name!r}")
        return name

    # ------------------------------------------------------------------
    # Footprint accounting
    # ------------------------------------------------------------------
    def _bump_live(self, space: str, delta: int) -> None:
        self._live_bytes += delta
        if self._live_bytes > self._peak_bytes:
            self._peak_bytes = self._live_bytes
        live = self._live_by_space.get(space, 0) + delta
        self._live_by_space[space] = live
        if live > self._peak_by_space.get(space, 0):
            self._peak_by_space[space] = live

    def _space_of(self, mem: str) -> str:
        return self._mem_space.get(mem, "hbm")

    def _note_alloc(
        self, static: str, unique: str, nbytes: int, space: str = "hbm"
    ) -> None:
        self._bump_live(space, nbytes)
        self._mem_space[unique] = space
        self._live_insts[unique] = (nbytes, space)
        self._static_live.setdefault(static, []).append(unique)
        self._alloc_log.append((static, unique))
        if self._kernel_stack:
            self._kernel_allocs.append((static, unique))

    def _note_free_unique(self, static: str, unique: str) -> None:
        inst = self._live_insts.pop(unique, None)
        if inst is None:
            return
        nbytes, space = inst
        self._bump_live(space, -nbytes)
        lst = self._static_live.get(static)
        if lst and unique in lst:
            lst.remove(unique)

    def _note_free_static(self, static: str) -> None:
        for unique in list(self._static_live.get(static, ())):
            self._note_free_unique(static, unique)

    def _binding_value(
        self, pe: A.PatElem, env: Mapping[str, object]
    ) -> RuntimeArray:
        b = binding_of(pe)
        if b is None:
            raise InterpError(f"array {pe.name} lacks a memory binding")
        assert isinstance(pe.type, ArrayType)
        return self._binding_to_value(b, pe.type.dtype, env)

    def _binding_to_value(
        self, b: MemBinding, dtype: str, env: Mapping[str, object]
    ) -> RuntimeArray:
        mem = self._resolve_mem(b.mem, env)
        return RuntimeArray(mem, self._instantiate(b.ixfn, env), dtype)

    def _offsets(self, arr: RuntimeArray) -> np.ndarray:
        key = (arr.mem, arr.ixfn)
        offs = self._offs_cache.get(key)
        if offs is None:
            offs = arr.ixfn.gather_offsets({})
            self._offs_cache[key] = offs
        return offs

    def _read(self, arr: RuntimeArray) -> np.ndarray:
        buf = self.mem[arr.mem]
        assert isinstance(buf, np.ndarray)
        offs = self._offsets(arr)
        if self.debug:
            self._check_bounds(arr.mem, offs)
        return buf[offs]

    def _write(self, arr: RuntimeArray, data) -> None:
        buf = self.mem[arr.mem]
        assert isinstance(buf, np.ndarray)
        offs = self._offsets(arr)
        if self.debug:
            self._check_bounds(arr.mem, offs)
            sh = self._shadow.get(arr.mem)
            if sh is not None:
                sh[offs] = True
        buf[offs] = data

    # ------------------------------------------------------------------
    # Debug shadow memory
    # ------------------------------------------------------------------
    def _check_bounds(self, mem: str, offs) -> None:
        buf = self.mem[mem]
        size = buf.size if isinstance(buf, np.ndarray) else int(buf)
        offs = np.asarray(offs)
        if offs.size and (int(offs.min()) < 0 or int(offs.max()) >= size):
            raise OutOfBoundsError(
                f"access to block {mem!r} touches offsets "
                f"[{int(offs.min())}, {int(offs.max())}], outside [0, {size})"
            )

    def _check_defined(self, mem: str, offs, what: str) -> None:
        sh = self._shadow.get(mem)
        if sh is None:
            return
        offs = np.asarray(offs)
        bad = ~sh[offs]
        if np.any(bad):
            first = int(np.asarray(offs).reshape(-1)[bad.reshape(-1).argmax()])
            raise UninitializedReadError(
                f"{what} reads uninitialized element(s) of block {mem!r} "
                f"(first poisoned offset: {first})"
            )

    def _check_region(self, arr: RuntimeArray) -> None:
        """Dry-mode bounds check: analytic extent of a region access.

        Real mode checks the enumerated offsets; dry mode cannot afford
        enumeration at paper scale, but the reachable-offset set of a
        single concrete LMAD has a closed-form envelope: the offset plus,
        per dimension, ``(shape-1)*stride`` added to the max (positive
        stride) or the min (negative stride, i.e. a reversal).  Composed
        index functions (no single-LMAD form) are skipped -- their final
        offsets are not an affine image of the index space.
        """
        bounds = _region_bounds(arr.ixfn)
        if bounds is None:
            return
        lo, hi = bounds
        buf = self.mem[arr.mem]
        size = buf.size if isinstance(buf, np.ndarray) else int(buf)
        if lo < 0 or hi >= size:
            raise OutOfBoundsError(
                f"region of block {arr.mem!r} spans offsets [{lo}, {hi}], "
                f"outside [0, {size})"
            )

    def _point_write_check(self, mem: str, off: int) -> None:
        self._check_bounds(mem, np.array([off]))
        sh = self._shadow.get(mem)
        if sh is not None:
            sh[off] = True

    def _point_read_check(self, mem: str, off: int, what: str) -> None:
        self._check_bounds(mem, np.array([off]))
        self._check_defined(mem, np.array([off]), what)

    # ------------------------------------------------------------------
    # Kernel accounting
    # ------------------------------------------------------------------
    def _current_kernel(self) -> Optional[KernelStat]:
        return self._kernel_stack[-1] if self._kernel_stack else None

    def _count_read(self, nbytes: int, space: str = "hbm") -> None:
        ks = self._current_kernel()
        if ks is not None:
            ks.note_read(nbytes, space)

    def _count_write(self, nbytes: int, space: str = "hbm") -> None:
        ks = self._current_kernel()
        if ks is not None:
            ks.note_written(nbytes, space)

    def _count_flop(self, n: int = 1) -> None:
        ks = self._current_kernel()
        if ks is not None:
            ks.flops += n

    # ------------------------------------------------------------------
    # The one copy rule
    # ------------------------------------------------------------------
    def _copy_region(
        self,
        src: RuntimeArray,
        dst: RuntimeArray,
        stmt: A.Let,
        kind: str,
    ) -> None:
        if src.mem == dst.mem and src.ixfn == dst.ixfn:
            self.stats.elided_copies += 1
            self.stats.elided_bytes += src.nbytes() + dst.nbytes()
            return
        ks = self._current_kernel()
        if ks is None:
            ks = self.stats.kernel(kind, f"{kind}:{'/'.join(stmt.names)}")
            ks.launches += 1
        ks.note_read(src.nbytes(), self._space_of(src.mem))
        ks.note_written(dst.nbytes(), self._space_of(dst.mem))
        if self.mode == "real":
            offs = self._offsets(dst)
            if offs.size:
                data = self._read(src)
                self._write(dst, data.reshape(offs.shape))
                if self._recorder is not None and not self._kernel_stack:
                    self._recorder.copy(
                        self.mem[dst.mem], offs,
                        self.mem[src.mem], self._offsets(src),
                    )
                if self.debug:
                    # Copies move the shadow bits with the data: copying
                    # poison is legal, consuming it later is the error.
                    ssh = self._shadow.get(src.mem)
                    dsh = self._shadow.get(dst.mem)
                    if ssh is not None and dsh is not None:
                        dsh[offs] = ssh[self._offsets(src)].reshape(offs.shape)
        elif self.debug:
            self._check_region(src)
            self._check_region(dst)

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def run_block(self, block: A.Block, env: Dict[str, object]) -> List[object]:
        for stmt in block.stmts:
            self.exec_stmt(stmt, env)
            if stmt.mem_frees and not self._kernel_stack:
                # Host-level lifetime ends (repro.reuse.liveranges);
                # inside a kernel, blocks die at the outermost map's end.
                for m in stmt.mem_frees:
                    self._note_free_static(m)
        return [self._resolve_result(r, env) for r in block.result]

    def _host_data_dependent(self, stmt: A.Let, what: str) -> None:
        """(Recording only.)  A host-level statement is about to produce
        a scalar from buffer contents: everything downstream of it may
        differ between two requests of one shape class, so no tape can
        be frozen."""
        if not self._kernel_stack:
            self._recorder.refuse(Decision(
                "tape", "host-data-dependent", stmt.names[0],
                f"host-level {what}",
            ))

    def _resolve_result(self, name: str, env: Dict[str, object]):
        if name in env:
            return env[name]
        if name in self.mem:
            return MemRef(name)
        raise InterpError(f"unbound result {name!r}")

    def exec_stmt(self, stmt: A.Let, env: Dict[str, object]) -> None:
        exp = stmt.exp

        if isinstance(exp, A.Alloc):
            size = eval_sym(exp.size, env)
            name = stmt.names[0]
            # Each execution creates a *fresh* block: an alloc inside a loop
            # body must not alias the previous iteration's block, or
            # double-buffered loops would read their own writes.
            self._alloc_counter += 1
            unique = f"{name}@{self._alloc_counter}"
            if self.mode == "real":
                self.mem[unique] = self._fresh_buffer(size, exp.dtype)
                if self.debug:
                    self._shadow[unique] = np.zeros(size, dtype=bool)
            else:
                self.mem[unique] = size
            env[name] = MemRef(unique)
            self.stats.alloc_count += 1
            self.stats.alloc_bytes += size * DTYPE_INFO[exp.dtype][1]
            self._note_alloc(
                name, unique, size * DTYPE_INFO[exp.dtype][1], exp.space
            )
            return

        if isinstance(exp, (A.Lit, A.ScalarE, A.BinOp, A.UnOp)):
            env[stmt.names[0]] = self._scalar_exp(exp, env)
            return

        if isinstance(exp, A.VarRef):
            pe = stmt.pattern[0]
            if pe.is_array():
                env[pe.name] = self._binding_value(pe, env)
            else:
                env[pe.name] = env[exp.name]
            return

        if isinstance(exp, (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse)):
            # Pure change of layout: the annotation is authoritative (it may
            # have been rebased by short-circuiting); no data moves.
            env[stmt.names[0]] = self._binding_value(stmt.pattern[0], env)
            return

        if isinstance(exp, (A.Iota, A.Replicate, A.Scratch)):
            dest = self._binding_value(stmt.pattern[0], env)
            ks = self._current_kernel()
            if ks is None:
                ks = self.stats.kernel("fill", f"fill:{stmt.names[0]}")
                if not isinstance(exp, A.Scratch):
                    ks.launches += 1
            if not isinstance(exp, A.Scratch):
                ks.note_written(dest.nbytes(), self._space_of(dest.mem))
                if self.mode != "real" and self.debug:
                    self._check_region(dest)
                if self.mode == "real":
                    if isinstance(exp, A.Iota):
                        n = eval_sym(exp.n, env)
                        data = np.arange(n, dtype=DTYPE_INFO[exp.dtype][0])
                    else:
                        data = np.full(
                            self._offsets(dest).shape,
                            self._scalar_operand(exp.value, env),
                        )
                    self._write(dest, data)
                    if self._recorder is not None and not self._kernel_stack:
                        self._recorder.fill(
                            self.mem[dest.mem], self._offsets(dest), data
                        )
            # Scratch is *uninitialized* memory: it must not write anything.
            # (Zero-filling a scratch that short-circuiting re-homed into a
            # live destination region would clobber real data; fresh alloc
            # buffers are already zeroed, matching the reference
            # interpreter's deterministic "uninitialized" contents.)
            env[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Copy):
            src = env[exp.src]
            assert isinstance(src, RuntimeArray)
            dest = self._binding_value(stmt.pattern[0], env)
            self._copy_region(src, dest, stmt, "copy")
            env[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Concat):
            dest = self._binding_value(stmt.pattern[0], env)
            offset = 0
            for s in exp.srcs:
                src = env[s]
                assert isinstance(src, RuntimeArray)
                rows = src.ixfn.shape[0].as_int()
                assert rows is not None
                region_ixfn = dest.ixfn.slice_triplets(
                    [(offset, rows, 1)]
                    + [
                        (0, d, 1)
                        for d in [
                            s_.as_int() for s_ in dest.ixfn.shape[1:]
                        ]
                    ]
                )
                self._copy_region(src, dest.region(region_ixfn), stmt, "concat")
                offset += rows
            env[stmt.names[0]] = dest
            return

        if isinstance(exp, A.Index):
            if self._recorder is not None:
                self._host_data_dependent(stmt, "index")
            src = env[exp.src]
            assert isinstance(src, RuntimeArray)
            idx = [eval_sym(i, env) for i in exp.indices]
            self._count_read(src.itemsize, self._space_of(src.mem))
            if self.mode == "real":
                off = src.ixfn.apply_concrete(idx, {})
                if self.debug:
                    self._point_read_check(
                        src.mem, off, f"{stmt.names[0]} = {exp.src}{idx}"
                    )
                buf = self.mem[src.mem]
                env[stmt.names[0]] = buf[off]
            else:
                if self.debug:
                    off = src.ixfn.apply_concrete(idx, {})
                    self._check_bounds(src.mem, np.array([off]))
                env[stmt.names[0]] = _dummy(src.dtype)
            return

        if isinstance(exp, A.Update):
            self._exec_update(stmt, exp, env)
            return

        if isinstance(exp, A.Map):
            self._exec_map(stmt, exp, env)
            return

        if isinstance(exp, A.Loop):
            self._exec_loop(stmt, exp, env)
            return

        if isinstance(exp, A.If):
            cond = self._scalar_operand(exp.cond, env)
            block = exp.then_block if cond else exp.else_block
            vals = self.run_block(block, dict(env))
            self._bind_compound_results(stmt, vals, env)
            return

        if isinstance(exp, (A.Reduce, A.ArgMin)):
            if self._recorder is not None:
                self._host_data_dependent(stmt, type(exp).__name__.lower())
            src = env[exp.src]
            assert isinstance(src, RuntimeArray)
            ks = self._current_kernel()
            if ks is None:
                ks = self.stats.kernel("reduce", f"reduce:{stmt.names[0]}")
                ks.launches += 1
            ks.note_read(src.nbytes(), self._space_of(src.mem))
            ks.bytes_written += src.itemsize
            ks.flops += src.size()
            if self.mode == "real":
                if self.debug:
                    self._check_defined(
                        src.mem, self._offsets(src),
                        f"{type(exp).__name__.lower()} of {exp.src!r}",
                    )
                    data = self._read(src)
                else:
                    # A contiguous region is read in place: no gather,
                    # and no offset array left behind in the cache.
                    data = view_region(self.mem[src.mem], region_plan(
                        src.ixfn, lambda: self._offsets(src)
                    ))
                if isinstance(exp, A.ArgMin):
                    i = int(np.argmin(data))
                    env[stmt.names[0]] = data.reshape(-1)[i]
                    env[stmt.names[1]] = i
                else:
                    env[stmt.names[0]] = REDUCTIONS[exp.op](data)
            else:
                if self.debug:
                    self._check_region(src)
                env[stmt.names[0]] = _dummy(src.dtype)
                if isinstance(exp, A.ArgMin):
                    env[stmt.names[1]] = 0
            return

        raise InterpError(f"unknown expression {type(exp).__name__}")

    # ------------------------------------------------------------------
    def _exec_update(self, stmt: A.Let, exp: A.Update, env) -> None:
        result = self._binding_value(stmt.pattern[0], env)
        spec = exp.spec
        if isinstance(spec, A.PointSpec):
            idx = [eval_sym(i, env) for i in spec.indices]
            ks = self._current_kernel()
            if ks is None:
                ks = self.stats.kernel("update", f"update:{stmt.names[0]}")
                ks.launches += 1
            ks.note_written(result.itemsize, self._space_of(result.mem))
            if self.mode == "real":
                off = result.ixfn.apply_concrete(idx, {})
                if self.debug:
                    self._point_write_check(result.mem, off)
                buf = self.mem[result.mem]
                buf[off] = self._scalar_operand(exp.value, env)
                if self._recorder is not None and not self._kernel_stack:
                    self._recorder.fill(buf, off, buf[off])
            elif self.debug:
                off = result.ixfn.apply_concrete(idx, {})
                self._check_bounds(result.mem, np.array([off]))
            env[stmt.names[0]] = result
            return
        if isinstance(spec, A.TripletSpec):
            trips = [
                (eval_sym(a, env), eval_sym(b, env), eval_sym(c, env))
                for a, b, c in spec.triplets
            ]
            region = result.region(result.ixfn.slice_triplets(trips))
        else:
            assert isinstance(spec, A.LmadSpec)
            inst = spec.lmad.substitute(
                {
                    v: env[v] if not isinstance(env[v], np.generic) else env[v].item()
                    for v in spec.lmad.free_vars()
                }
            )
            region = result.region(result.ixfn.lmad_slice(inst))
        value = env[exp.value] if isinstance(exp.value, str) else None
        if not isinstance(value, RuntimeArray):
            raise InterpError("slice update value must be an array variable")
        self._copy_region(value, region, stmt, "update")
        env[stmt.names[0]] = result

    # ------------------------------------------------------------------
    def _fused_plan(
        self, stmt: A.Let
    ) -> List[Tuple[A.FusedRecord, Tuple[SymExpr, ...]]]:
        """Fused producers in a launch's subtree, with thread multipliers.

        A record on the launched map itself elides one intermediate per
        launch; a record nested under further maps/loops elides one per
        enclosing thread/iteration, so each record carries the widths and
        trip counts on its path (``if`` branches are assumed taken --
        fusion under data-dependent branches is counted optimistically).
        Counted once per outermost launch, *before* tier dispatch, so the
        vectorized, interpreted and dry paths agree exactly.
        """
        plan = self._fused_cache.get(stmt.pattern[0].name)
        if plan is None:
            plan = []

            def walk(s: A.Let, factors: Tuple[SymExpr, ...]) -> None:
                for rec in s.fused:
                    plan.append((rec, factors))
                for blk, binder in A.sub_scopes(s.exp):
                    inner = factors
                    if binder is not None:
                        inner += (binder.extent,)
                    for sub in blk.stmts:
                        walk(sub, inner)

            walk(stmt, ())
            self._fused_cache[stmt.pattern[0].name] = plan
        return plan

    def _kernel_plan(self, stmt: A.Let, exp: A.Map):
        """The plan both fast tiers read (:mod:`repro.mem.kernel`),
        lowered at the statement's first dispatch by either."""
        plan = self._vec_plans.get(id(stmt))
        if plan is None:
            from repro.mem.vectorize import VecEngine

            plan = self._vec_plans[id(stmt)] = VecEngine._plan_map(stmt, exp)
        return plan

    def _exec_map(self, stmt: A.Let, exp: A.Map, env) -> None:
        width = eval_sym(exp.width, env)
        dests = [
            self._binding_value(pe, env) if pe.is_array() else None
            for pe in stmt.pattern
        ]
        # A map nested inside another map is part of the same GPU kernel
        # (a multi-dimensional grid), not a separate launch.
        nested = bool(self._kernel_stack)
        ks = self.stats.kernel("map", label(stmt))
        if not nested:
            ks.launches += 1
            for rec, factors in self._fused_plan(stmt):
                self.stats.fused_kernels += 1
                try:
                    n = eval_sym(rec.width, env)
                    for f in factors:
                        n *= eval_sym(f, env)
                except (InterpError, KeyError):
                    continue  # width not host-evaluable: count fusion only
                # The elided round trip: the producer's write of the
                # intermediate plus the consumer's read of it.  A
                # duplicated record (multi-consumer fusion) claims only
                # its own elided read -- the write is claimed once, by
                # the primary record, so the total over a (producer,
                # mem) group is (1 write + k reads) * n, never more.
                per_elem = (1 if rec.duplicated else 2) * rec.elem_bytes
                self.stats.bytes_elided_fusion += per_elem * n
            # Live bytes (total, per space) to return to when the
            # kernel's scratch dies.  Locals, not attributes: CPython
            # stops sharing instance-dict keys (and specializing
            # attribute loads) past 29 attributes, which costs every
            # executor mode ~6 %.
            baseline = (self._live_bytes, dict(self._live_by_space))
            self._kernel_allocs = []

        def run_thread(i: int) -> None:
            child = dict(env)
            child[exp.lam.params[0]] = i
            vals = self.run_block(exp.lam.body, child)
            for dest, val in zip(dests, vals):
                if dest is None:
                    continue
                region = dest.region(dest.ixfn.fix_dim(0, i))
                if isinstance(val, RuntimeArray):
                    self._copy_region(val, region, stmt, "map")
                else:
                    self._count_write(
                        dest.itemsize, self._space_of(dest.mem)
                    )
                    if self.mode == "real":
                        buf = self.mem[dest.mem]
                        off = region.ixfn.apply_concrete(
                            [0] * region.ixfn.rank, {}
                        ) if region.ixfn.rank else region.ixfn.apply_concrete([], {})
                        if self.debug:
                            self._point_write_check(dest.mem, off)
                        buf[off] = val
                    elif self.debug:
                        self._check_region(region)

        self._kernel_stack.append(ks)
        try:
            if self.mode == "real":
                ran_native = False
                if (
                    self._native is not None
                    and not nested
                    and width > 0
                ):
                    ran_native = self._native.try_run_map(
                        self, stmt, exp, env, width, dests
                    )
                ran_vec = False
                if ran_native:
                    self.stats.native_launches += 1
                elif self.vectorize and width > 0:
                    if self._vec_engine is None:
                        from repro.mem.vectorize import VecEngine

                        self._vec_engine = VecEngine(self)
                    ran_vec = self._vec_engine.try_run_map(
                        stmt, exp, env, width, dests
                    )
                if ran_vec:
                    self.stats.vec_launches += 1
                elif not ran_native and width > 0:
                    self.stats.interp_launches += 1
                    for i in range(width):
                        run_thread(i)
            else:
                # Dry mode: one representative thread, traffic scaled --
                # but bounds are checked analytically over the *whole*
                # destination region, not just the sampled thread's slice.
                if self.debug:
                    for dest in dests:
                        if dest is not None:
                            self._check_region(dest)
                if width > 0:
                    outer_stats = self.stats
                    sub = ExecStats()
                    self.stats = sub
                    sub_ks = sub.kernel("map", ks.label)
                    self._kernel_stack.append(sub_ks)
                    live_before = dict(self._live_by_space)
                    try:
                        run_thread(width // 2)
                    finally:
                        self._kernel_stack.pop()
                        self.stats = outer_stats
                    # Every thread's scratch coexists for the kernel's
                    # duration: scale the representative thread's growth
                    # (per space, so the partitioned peaks scale exactly
                    # like the total).
                    for sp in set(self._live_by_space) | set(live_before):
                        growth = self._live_by_space.get(
                            sp, 0
                        ) - live_before.get(sp, 0)
                        if growth:
                            self._bump_live(sp, growth * (width - 1))
                    self.stats.merge_scaled(sub, width)
        finally:
            self._kernel_stack.pop()
            if not nested:
                # Kernel scratch dies wholesale at the outermost map's
                # end (per-thread arrays have no host-visible lifetime).
                for static, unique in self._kernel_allocs:
                    self._live_insts.pop(unique, None)
                    lst = self._static_live.get(static)
                    if lst and unique in lst:
                        lst.remove(unique)
                self._kernel_allocs = []
                self._live_bytes, self._live_by_space = baseline

        for pe, dest in zip(stmt.pattern, dests):
            env[pe.name] = dest

    # ------------------------------------------------------------------
    def _exec_loop(self, stmt: A.Let, exp: A.Loop, env) -> None:
        count = eval_sym(exp.count, env)
        state = [env[init] for _, init in exp.carried]
        iterations = range(count)
        scale = 1.0
        if (
            self.mode == "dry"
            and self.loop_sample is not None
            and self._kernel_stack
            and count > self.loop_sample
        ):
            # Evenly spread samples give the right mean for uniform and
            # linearly-varying (triangular) per-iteration work.
            step = count / self.loop_sample
            iterations = [int(step * (k + 0.5)) for k in range(self.loop_sample)]
            scale = count / len(iterations)
        if scale != 1.0:
            # Counters flow through BOTH self.stats and the innermost
            # kernel object, so the sub-run swaps the stats AND pushes a
            # proxy kernel (same registry key) for correct attribution.
            outer_stats = self.stats
            cur = self._current_kernel()
            assert cur is not None
            sub = ExecStats()
            self.stats = sub
            proxy = sub.kernel(cur.kind, cur.label)
            self._kernel_stack.append(proxy)
            live_before = dict(self._live_by_space)
            try:
                self._run_loop_iterations(iterations, exp, env, state)
            finally:
                self._kernel_stack.pop()
                self.stats = outer_stats
                self.stats.merge_scaled(sub, scale)
                # Extrapolate the sampled iterations' allocation growth
                # the same way merge_scaled extrapolates their traffic
                # (per space, mirroring the dry-map scaling).
                for sp in set(self._live_by_space) | set(live_before):
                    growth = self._live_by_space.get(
                        sp, 0
                    ) - live_before.get(sp, 0)
                    if growth:
                        self._bump_live(
                            sp, int(growth * scale) - growth
                        )
        else:
            self._run_loop_iterations(iterations, exp, env, state)
        self._bind_compound_results(stmt, state, env)

    def _run_loop_iterations(self, iterations, exp, env, state) -> None:
        free_mark = len(self._alloc_log)
        for it in iterations:
            child = dict(env)
            child[exp.index] = it
            for (prm, _), val in zip(exp.carried, state):
                if isinstance(prm.type, ArrayType):
                    assert isinstance(val, RuntimeArray)
                    b = binding_of(prm)
                    if b is not None and b.mem not in self.mem:
                        child[b.mem] = MemRef(val.mem)
                    if b is not None:
                        child[prm.name] = self._binding_to_value(
                            b, prm.type.dtype, child
                        )
                    else:
                        child[prm.name] = val
                else:
                    child[prm.name] = val
            new_state = self.run_block(exp.body, child)
            state[:] = new_state
            if not self._kernel_stack:
                # Blocks born inside a host loop die at the iteration's
                # end unless the carried state still reaches them (the
                # double-buffering rotation keeps exactly the live pair).
                reachable = set()
                for val in state:
                    if isinstance(val, RuntimeArray):
                        reachable.add(val.mem)
                    elif isinstance(val, MemRef):
                        n, seen = val.name, set()
                        while (
                            n in child
                            and isinstance(child[n], MemRef)
                            and n not in seen
                        ):
                            seen.add(n)
                            n = child[n].name
                        reachable.add(n)
                for static, unique in self._alloc_log[free_mark:]:
                    if unique in self._live_insts and unique not in reachable:
                        self._note_free_unique(static, unique)

    # ------------------------------------------------------------------
    def _bind_compound_results(self, stmt: A.Let, vals: List[object], env) -> None:
        """Bind an if/loop's results, including existential mem/scalars.

        Pattern layout: original results first, then appended existential
        pattern elements aligned with appended block results.
        """
        # First pass: non-array results (scalars, MemRefs for existentials).
        for pe, val in zip(stmt.pattern, vals):
            if not pe.is_array():
                env[pe.name] = val
        # Second pass: arrays, resolved through the now-bound existentials.
        for pe, val in zip(stmt.pattern, vals):
            if pe.is_array():
                if pe.mem is not None:
                    b = binding_of(pe)
                    if b.mem not in self.mem and b.mem not in env:
                        # Unopt pipeline: existential result memory binds to
                        # wherever the branch/loop actually left the value.
                        assert isinstance(val, RuntimeArray)
                        env[b.mem] = MemRef(val.mem)
                    env[pe.name] = self._binding_value(pe, env)
                else:
                    env[pe.name] = val

    # ------------------------------------------------------------------
    # Scalars
    # ------------------------------------------------------------------
    def _scalar_operand(self, op: A.Operand, env):
        if isinstance(op, str):
            return env[op]
        if isinstance(op, SymExpr):
            return eval_sym(op, env)
        return op

    def _scalar_exp(self, exp: A.Exp, env):
        if isinstance(exp, A.Lit):
            return np.dtype(DTYPE_INFO[exp.dtype][0]).type(exp.value)
        if isinstance(exp, A.ScalarE):
            return eval_sym(exp.expr, env)
        row = OPS[exp.op]
        self._count_flop(row.flops)
        if isinstance(exp, A.BinOp):
            return row.scalar(
                self._scalar_operand(exp.x, env), self._scalar_operand(exp.y, env)
            )
        return row.scalar(self._scalar_operand(exp.x, env))


def _dummy(dtype: str):
    """Placeholder value for dry-mode reads (data never matters there).

    Floats use 1.0 so dummy divisions don't raise spurious 0/0 warnings;
    integers use 0 so dummy indices stay in bounds.
    """
    if dtype == "bool":
        return False
    if dtype == "i64":
        return 0
    return np.dtype(DTYPE_INFO[dtype][0]).type(1)


def region_plan(ixfn, offsets) -> tuple:
    """How to read the region ``ixfn`` out of its flat buffer.

    ``("slice", start, count, shape)`` when the region is one row-major
    unit-stride LMAD (a contiguous run, no offset array needed), else
    ``("gather", offsets())``."""
    lmad = ixfn.as_single()
    if lmad is not None and lmad.dims:
        start = lmad.offset.as_int()
        count, shape = 1, []
        for d in reversed(lmad.dims):
            n, s = d.shape.as_int(), d.stride.as_int()
            if n is None or n <= 0 or (n != 1 and s != count):
                break
            count *= n
            shape.append(n)
        else:
            if start is not None and start >= 0:
                return ("slice", start, count, tuple(reversed(shape)))
    return ("gather", offsets())


def view_region(buf: np.ndarray, plan: tuple) -> np.ndarray:
    """The region ``plan`` describes, for a reader that is done with it
    before ``buf`` changes: a view of ``buf`` when it is a slice."""
    if plan[0] == "slice":
        _, start, count, shape = plan
        return buf[start:start + count].reshape(shape)
    return buf[plan[1]]


def read_region(buf: np.ndarray, plan: tuple) -> np.ndarray:
    """A caller-owned copy of the region ``plan`` describes."""
    data = view_region(buf, plan)
    return data.copy() if plan[0] == "slice" else data


def _region_bounds(ixfn: IndexFn) -> Optional[Tuple[int, int]]:
    """Inclusive [min, max] flat offset a concrete single-LMAD region
    can touch, or None when no closed form applies (composed index
    functions, symbolic components, empty extents)."""
    lmad = ixfn.as_single()
    if lmad is None:
        return None
    off = lmad.offset.as_int()
    if off is None:
        return None
    lo = hi = off
    for d in lmad.dims:
        n = d.shape.as_int()
        s = d.stride.as_int()
        if n is None or s is None or n <= 0:
            return None
        span = (n - 1) * s
        if span >= 0:
            hi += span
        else:
            lo += span
    return lo, hi
