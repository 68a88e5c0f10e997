"""The memory introduction pass (paper section IV-C).

Walks a memory-agnostic function and:

* inserts an ``alloc`` statement before every statement that creates a
  fresh array (``iota``, ``scratch``, ``replicate``, ``copy``, ``concat``,
  ``map`` results), annotating the result with a row-major index function
  in the new block;
* gives change-of-layout results (slices, rearrange, reshape, reverse) the
  *same* memory block with a transformed index function -- O(1), no data
  movement;
* handles ``if`` results whose branches produce arrays in different blocks
  or layouts via anti-unification of index functions, extending the pattern
  with an existential memory binding and existential scalars for the
  generalized components (paper's ``let (zmem, a, b, z : ... @ zmem -> 0 +
  {(n:a)(m:b)}) = if c then (xmem, m, 1, x) else (ymem, 1, n, y)``);
  when anti-unification fails, copies are inserted to normalize;
* normalizes ``loop``-carried arrays to whole-buffer row-major form
  (inserting copies when necessary), binding each array parameter to an
  existential memory block that re-binds every iteration -- the natural
  expression of double buffering, and the copies that the short-circuiting
  pass later tries to remove.

The pass never changes program semantics; it only adds annotations and
(semantically inert) ``alloc``/``copy`` statements.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.lmad import IndexFn, antiunify_ixfns
from repro.symbolic import Prover, SymExpr

from repro.ir import ast as A
from repro.ir.types import ArrayType, ScalarType
from repro.mem.memir import MEM_TYPE, MemBinding, clone_fun, entry_bindings


class _Introducer:
    def __init__(self, fun: A.Fun):
        self.fun = fun
        self.prover = Prover(fun.build_context())
        self.counter = 0
        # Depth of map-lambda nesting at the current program point.  A
        # fresh array allocated inside a kernel body is thread-private
        # working storage and is placed in the on-chip scratchpad; only
        # host-level allocations default to HBM.
        self.kernel_depth = 0
        # Bindings of every array variable currently in scope.
        self.bindings: Dict[str, MemBinding] = entry_bindings(fun)

    # ------------------------------------------------------------------
    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}_{self.counter}"

    def placement_space(self) -> str:
        """Default memory space at the current program point."""
        return "scratch" if self.kernel_depth else "hbm"

    def alloc_stmt(self, size: SymExpr, dtype: str) -> Tuple[A.Let, str]:
        mem = self.fresh("mem")
        stmt = A.Let(
            [A.PatElem(mem, MEM_TYPE)],
            A.Alloc(size, dtype, self.placement_space()),
        )
        return stmt, mem

    def bind_fresh(
        self, pe: A.PatElem, out: List[A.Let]
    ) -> None:
        """Alloc a block for a fresh array and annotate its pattern element."""
        t = pe.type
        assert isinstance(t, ArrayType)
        stmt, mem = self.alloc_stmt(t.size(), t.dtype)
        out.append(stmt)
        binding = MemBinding(mem, IndexFn.row_major(t.shape))
        pe.mem = binding
        self.bindings[pe.name] = binding

    def bind_view(self, pe: A.PatElem, binding: MemBinding) -> None:
        pe.mem = binding
        self.bindings[pe.name] = binding

    # ------------------------------------------------------------------
    def process_block(self, block: A.Block) -> None:
        new_stmts: List[A.Let] = []
        for stmt in block.stmts:
            self.process_stmt(stmt, new_stmts)
            new_stmts.append(stmt)
        block.stmts = new_stmts

    def process_stmt(self, stmt: A.Let, out: List[A.Let]) -> None:
        exp = stmt.exp
        # --- fresh-array constructors -------------------------------
        if isinstance(exp, (A.Iota, A.Scratch, A.Replicate, A.Copy, A.Concat)):
            self.bind_fresh(stmt.pattern[0], out)
            return
        # --- change-of-layout ---------------------------------------
        if isinstance(exp, A.VarRef):
            pe = stmt.pattern[0]
            if pe.is_array():
                self.bind_view(pe, self.bindings[exp.name])
            return
        if isinstance(exp, A.SliceT):
            src = self.bindings[exp.src]
            self.bind_view(
                stmt.pattern[0], src.with_ixfn(src.ixfn.slice_triplets(exp.triplets))
            )
            return
        if isinstance(exp, A.LmadSlice):
            src = self.bindings[exp.src]
            self.bind_view(
                stmt.pattern[0], src.with_ixfn(src.ixfn.lmad_slice(exp.lmad))
            )
            return
        if isinstance(exp, A.Rearrange):
            src = self.bindings[exp.src]
            self.bind_view(
                stmt.pattern[0], src.with_ixfn(src.ixfn.permute(exp.perm))
            )
            return
        if isinstance(exp, A.Reshape):
            src = self.bindings[exp.src]
            self.bind_view(
                stmt.pattern[0],
                src.with_ixfn(src.ixfn.reshape(exp.shape, self.prover)),
            )
            return
        if isinstance(exp, A.Reverse):
            src = self.bindings[exp.src]
            self.bind_view(
                stmt.pattern[0], src.with_ixfn(src.ixfn.reverse(exp.dim))
            )
            return
        # --- updates: result lives where the consumed source lived ---
        if isinstance(exp, A.Update):
            src = self.bindings[exp.src]
            self.bind_view(stmt.pattern[0], src)
            return
        # --- compound statements -------------------------------------
        if isinstance(exp, A.Map):
            self.kernel_depth += 1
            try:
                self.process_block(exp.lam.body)
            finally:
                self.kernel_depth -= 1
            for pe in stmt.pattern:
                if pe.is_array():
                    self.bind_fresh(pe, out)
            return
        if isinstance(exp, A.If):
            self.process_if(stmt, exp)
            return
        if isinstance(exp, A.Loop):
            self.process_loop(stmt, exp, out)
            return
        # Scalars (BinOp, UnOp, Lit, ScalarE, Index, Reduce, ArgMin, Alloc):
        # no memory annotations.

    # ------------------------------------------------------------------
    # if: anti-unification with existential memory
    # ------------------------------------------------------------------
    def process_if(self, stmt: A.Let, exp: A.If) -> None:
        saved = dict(self.bindings)
        self.process_block(exp.then_block)
        then_bindings = {
            r: self.bindings.get(r) for r in exp.then_block.result
        }
        self.bindings = dict(saved)
        self.process_block(exp.else_block)
        else_bindings = {
            r: self.bindings.get(r) for r in exp.else_block.result
        }
        self.bindings = dict(saved)

        extra_pat: List[A.PatElem] = []
        extra_then: List[str] = []
        extra_else: List[str] = []

        for k, pe in enumerate(list(stmt.pattern)):
            if not pe.is_array():
                continue
            tres = exp.then_block.result[k]
            eres = exp.else_block.result[k]
            b1 = then_bindings[tres]
            b2 = else_bindings[eres]
            assert b1 is not None and b2 is not None

            if b1.ixfn == b2.ixfn:
                gen_ixfn, bindings = b1.ixfn, ()
            else:
                prefix = self.fresh("ext") + "_"
                au = antiunify_ixfns(b1.ixfn, b2.ixfn, prefix=prefix)
                if au is None:
                    # Fallback: normalize both branches with copies.
                    b1 = self._copy_result(exp.then_block, k, pe.type)
                    b2 = self._copy_result(exp.else_block, k, pe.type)
                    tres = exp.then_block.result[k]
                    eres = exp.else_block.result[k]
                    gen_ixfn, bindings = b1.ixfn, ()
                else:
                    gen_ixfn, bindings = au.ixfn, au.bindings

            if b1.mem == b2.mem and not bindings:
                self.bind_view(pe, b1)
                continue

            # Existential memory + scalars returned by each branch.
            em = self.fresh("emem")
            extra_pat.append(A.PatElem(em, MEM_TYPE))
            extra_then.append(b1.mem)
            extra_else.append(b2.mem)
            for name, tval, eval_ in bindings:
                extra_pat.append(A.PatElem(name, ScalarType("i64")))
                tn = self._bind_scalar(exp.then_block, tval)
                en = self._bind_scalar(exp.else_block, eval_)
                extra_then.append(tn)
                extra_else.append(en)
            self.bind_view(pe, MemBinding(em, gen_ixfn))

        if extra_pat:
            stmt.pattern.extend(extra_pat)
            exp.then_block.result = exp.then_block.result + tuple(extra_then)
            exp.else_block.result = exp.else_block.result + tuple(extra_else)

    def _bind_scalar(self, block: A.Block, value: SymExpr) -> str:
        name = self.fresh("exv")
        block.stmts.append(
            A.Let([A.PatElem(name, ScalarType("i64"))], A.ScalarE(value))
        )
        return name

    def _copy_result(
        self, block: A.Block, k: int, t: ArrayType
    ) -> MemBinding:
        """Replace result position k with a fresh row-major copy."""
        old = block.result[k]
        stmt_alloc, mem = self.alloc_stmt(t.size(), t.dtype)
        new_name = self.fresh(old + "_cp")
        pe = A.PatElem(new_name, ArrayType(t.dtype, t.shape, unique=True))
        binding = MemBinding(mem, IndexFn.row_major(t.shape))
        pe.mem = binding
        block.stmts.append(stmt_alloc)
        block.stmts.append(A.Let([pe], A.Copy(old)))
        res = list(block.result)
        res[k] = new_name
        block.result = tuple(res)
        self.bindings[new_name] = binding
        return binding

    # ------------------------------------------------------------------
    # loop: existential memory per carried array, normalized layouts
    # ------------------------------------------------------------------
    def process_loop(self, stmt: A.Let, exp: A.Loop, out: List[A.Let]) -> None:
        # Normalize initializers to whole-buffer row-major arrays.
        new_carried = []
        for prm, init in exp.carried:
            if isinstance(prm.type, ArrayType):
                b = self.bindings[init]
                if not b.ixfn.is_direct(self.prover):
                    stmt_alloc, mem = self.alloc_stmt(
                        prm.type.size(), prm.type.dtype
                    )
                    out.append(stmt_alloc)
                    cp = self.fresh(init + "_cp")
                    pe = A.PatElem(
                        cp, ArrayType(prm.type.dtype, prm.type.shape, True)
                    )
                    binding = MemBinding(
                        mem, IndexFn.row_major(prm.type.shape)
                    )
                    pe.mem = binding
                    out.append(A.Let([pe], A.Copy(init)))
                    self.bindings[cp] = binding
                    init = cp
            new_carried.append((prm, init))
        exp = stmt.exp = A.Loop(
            tuple(new_carried), exp.index, exp.count, exp.body
        )

        # Bind params to existential memory, row-major.
        saved = dict(self.bindings)
        for prm, _ in exp.carried:
            if isinstance(prm.type, ArrayType):
                pm = self.fresh("lmem")
                self.bind_view(
                    prm, MemBinding(pm, IndexFn.row_major(prm.type.shape))
                )

        self.process_block(exp.body)

        # Normalize body results to whole-buffer row-major arrays.
        for k, (prm, _) in enumerate(exp.carried):
            if not isinstance(prm.type, ArrayType):
                continue
            res = exp.body.result[k]
            b = self.bindings.get(res)
            assert b is not None
            if not b.ixfn.is_direct(self.prover):
                self._copy_result(exp.body, k, prm.type)

        self.bindings = saved
        # Loop results: existential memory, row-major.
        for k, pe in enumerate(stmt.pattern):
            if pe.is_array():
                rm = self.fresh("rmem")
                assert isinstance(pe.type, ArrayType)
                self.bind_view(
                    pe, MemBinding(rm, IndexFn.row_major(pe.type.shape))
                )


def introduce_memory(fun: A.Fun) -> A.Fun:
    """Annotate ``fun`` with memory; returns a (deep-copied) annotated Fun."""
    target = clone_fun(fun)
    _Introducer(target).process_block(target.body)
    return target


def refresh_derived_bindings(fun: A.Fun) -> int:
    """Recompute bindings of pure views and update results from their sources.

    View bindings (slices, rearrange, reshape, reverse, aliases) and
    ``Update`` result bindings are *derived* from their source's binding.
    When the short-circuiting pass re-homes a source (e.g. a loop parameter
    into destination memory), every derived binding must follow; this pass
    recomputes them all, cascading through chains.  Returns the number of
    bindings that changed.
    """
    prover = Prover(fun.build_context())
    bindings = entry_bindings(fun)
    changed = 0

    def derive(exp: A.Exp, src: MemBinding) -> MemBinding:
        if isinstance(exp, (A.VarRef, A.Update)):
            return src
        if isinstance(exp, A.SliceT):
            return src.with_ixfn(src.ixfn.slice_triplets(exp.triplets))
        if isinstance(exp, A.LmadSlice):
            return src.with_ixfn(src.ixfn.lmad_slice(exp.lmad))
        if isinstance(exp, A.Rearrange):
            return src.with_ixfn(src.ixfn.permute(exp.perm))
        if isinstance(exp, A.Reshape):
            return src.with_ixfn(src.ixfn.reshape(exp.shape, prover))
        assert isinstance(exp, A.Reverse)
        return src.with_ixfn(src.ixfn.reverse(exp.dim))

    def walk(block: A.Block) -> None:
        nonlocal changed
        for stmt in block.stmts:
            exp = stmt.exp
            if isinstance(exp, A.Loop):
                bindings.update(
                    (p.name, p.mem) for p, _ in exp.carried if p.mem is not None
                )
            for blk in A.sub_blocks(exp):
                walk(blk)
            if isinstance(
                exp,
                (A.VarRef, A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse, A.Update),
            ):
                src_name = exp.name if isinstance(exp, A.VarRef) else exp.src
                pe = stmt.pattern[0]
                if pe.is_array() and src_name in bindings and pe.mem is not None:
                    new = derive(exp, bindings[src_name])
                    if new != pe.mem:
                        pe.mem = new
                        changed += 1
            for pe in stmt.pattern:
                if pe.is_array() and pe.mem is not None:
                    bindings[pe.name] = pe.mem

    walk(fun.body)
    return changed
