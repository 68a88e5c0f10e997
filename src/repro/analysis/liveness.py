"""Liveness validation (L rules): cross-checks last-use and hoisting.

* L01 -- a name marked lastly-used at a statement must not be observed
  afterwards through any buffer alias: not by later statements of the
  same block, not by enclosing blocks after the compound statement, not
  by a re-execution of an enclosing loop/map body it is free in, and not
  as a block result.  Consumers (hoisting heuristics, short-circuiting's
  dead-copy reuse) take ``last_uses`` as permission to reuse the buffer,
  so a stale annotation is a latent clobber even when today's passes
  happen not to exploit it.
* L02 -- a memory block must be bound before it is referenced: its alloc
  statement (or existential binder) precedes, in execution order, every
  binding that names it.  This is the ordering contract allocation
  hoisting maintains and `dst-memory-not-in-scope` assumes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import ScopeWalker, alias_closure, stmt_location
from repro.analysis.wellformed import known_blocks
from repro.ir import ast as A
from repro.mem.memir import binding_of


# ----------------------------------------------------------------------
# L01: last-use annotations
# ----------------------------------------------------------------------
class _LastUseValidator:
    def __init__(self, fun: A.Fun, report: Report):
        self.fun = fun
        self.report = report
        self.aliases = alias_closure(fun)
        self._def_block: Dict[str, int] = {}
        self._uses_memo: Dict[int, FrozenSet[str]] = {}

    def run(self) -> None:
        root = self.fun.body
        for p in self.fun.params:
            self._def_block[p.name] = id(root)
        self._index_defs(root)
        self._walk(root, [])

    def _index_defs(self, block: A.Block) -> None:
        for stmt in block.stmts:
            for name in stmt.names:
                self._def_block[name] = id(block)
            exp = stmt.exp
            for sub in A.sub_blocks(exp):
                if isinstance(exp, A.Map):
                    self._def_block[exp.lam.params[0]] = id(sub)
                elif isinstance(exp, A.Loop):
                    self._def_block[exp.index] = id(sub)
                    for prm, _ in exp.carried:
                        self._def_block[prm.name] = id(sub)
                self._index_defs(sub)

    def _all_uses(self, block: A.Block) -> FrozenSet[str]:
        cached = self._uses_memo.get(id(block))
        if cached is None:
            out: Set[str] = set(block.result)
            for stmt in block.stmts:
                out |= A.exp_uses(stmt.exp)
            cached = frozenset(out)
            self._uses_memo[id(block)] = cached
        return cached

    def _walk(
        self, block: A.Block, chain: List[Tuple[A.Block, int, bool]]
    ) -> None:
        for i, stmt in enumerate(block.stmts):
            for v in stmt.last_uses:
                self._validate(v, stmt, block, i, chain)
            exp = stmt.exp
            reexec = isinstance(exp, (A.Map, A.Loop))
            for sub in A.sub_blocks(exp):
                self._walk(sub, chain + [(block, i, reexec)])

    def _validate(
        self,
        v: str,
        stmt: A.Let,
        block: A.Block,
        i: int,
        chain: List[Tuple[A.Block, int, bool]],
    ) -> None:
        rep = self.report
        rep.count()
        cls = self.aliases.get(v, frozenset({v}))
        defb = self._def_block.get(v, id(self.fun.body))
        path = "body"
        for _ablock, idx, _re in chain:
            path += f"[{idx}].body"
        loc = stmt_location(f"{path}[{i}]", stmt)

        def flag(where: str) -> None:
            rep.add(
                "L01", Severity.ERROR, loc,
                f"{v!r} is marked lastly-used here, but its alias class "
                f"{{{', '.join(sorted(cls))}}} is still observed {where}",
            )

        for later in block.stmts[i + 1:]:
            if cls & A.exp_uses(later.exp):
                flag(f"by a later statement ({'/'.join(later.names)})")
                return
        if cls & set(block.result):
            flag("as a block result")
            return
        child = block
        for ablock, aidx, reexec in reversed(chain):
            if id(child) == defb:
                return  # v is local to `child`; nothing outside sees it
            if reexec and (cls & self._all_uses(child)):
                flag("by a re-execution of the enclosing loop/map body")
                return
            for later in ablock.stmts[aidx + 1:]:
                if cls & A.exp_uses(later.exp):
                    flag(
                        "by a later statement "
                        f"({'/'.join(later.names)}) of an enclosing block"
                    )
                    return
            if cls & set(ablock.result):
                flag("as an enclosing block's result")
                return
            child = ablock


# ----------------------------------------------------------------------
# L02: alloc-before-use ordering
# ----------------------------------------------------------------------
class _OrderWalker(ScopeWalker):
    def __init__(self, fun: A.Fun, report: Report):
        super().__init__(fun)
        self.report = report
        self.known = known_blocks(fun)

    def on_stmt(self, stmt, ctx, bindings, avail, path, block, idx):
        loc = stmt_location(path, stmt)
        effective = avail | {
            pe.name for pe in stmt.pattern if not pe.is_array()
        }
        if isinstance(stmt.exp, A.Loop):
            params = [p for p, _ in stmt.exp.carried if p.mem is not None]
            effective = effective | {p.mem.mem for p in params}
            # Loop results bind their own existential block (rmem).
            effective |= {
                binding_of(pe).mem
                for pe in stmt.pattern
                if pe.is_array()
                and pe.mem is not None
                and binding_of(pe).mem not in self._concrete
            }
            for prm in params:
                self._check(prm.name, prm.mem.mem, effective, loc)
        for pe in stmt.pattern:
            if pe.is_array() and pe.mem is not None:
                self._check(pe.name, binding_of(pe).mem, effective, loc)

    def _check(
        self, name: str, mem: str, effective: Set[str], loc: str
    ) -> None:
        self.report.count()
        if mem in effective or mem not in self.known:
            return  # in scope, or WF02's problem (unknown block)
        self.report.add(
            "L02", Severity.ERROR, loc,
            f"{name!r} references memory block {mem!r} before it is bound",
        )


def check_liveness(fun: A.Fun, report: Report) -> None:
    _LastUseValidator(fun, report).run()
    _OrderWalker(fun, report).run()
