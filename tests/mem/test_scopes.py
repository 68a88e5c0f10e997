"""One rule for entering a scope (DESIGN.md section 6, "Scopes").

``ir.ast.sub_scopes`` says what a nested block binds; ``ir.ast.
scope_context`` is what the passes assume inside it; ``analysis.facts``
spells the same two questions a second time for the verifier.  The two
spellings are held to each other here, on every block of every program
the repo compiles.
"""

import ast as pyast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.facts import ScopeWalker
from repro.bench.programs import all_benchmarks
from repro.compiler import compile_fun
from repro.ir import FunBuilder, f32, i64
from repro.ir import ast as A
from repro.ir.parser import parse_fun
from repro.mem.exec import MemExecutor
from repro.mem.memir import iter_stmts
from repro.pipeline.presets import PRESETS
from repro.runtime import materialize
from repro.symbolic import Var
from tests.opt.conftest import (
    random_mapnest_pipeline,
    random_two_stage_pipeline,
)

n = Var("n")

#: ``let (i : i64) = i + 1`` rebinds the thread index: the typechecker
#: rejects that, so the parser renames the new ``i`` (to ``i_1``).
SHADOWING = """
fun shadow(n : i64, xs : [n]f32) =
  let (ys : *[n]f32) = map (i < n) {
    let (m : i64) = n - 1 - i
    let (i : i64) = i + 1
    let (v : f32) = xs[m]
    in (v)
  }
  in (ys)
"""


def _compiled_programs():
    for name, mod in all_benchmarks().items():
        for preset in PRESETS:
            yield f"{name}/{preset}", compile_fun(mod.build(), pipeline=preset).fun
    for label, gen, base in (
        ("pipe", random_two_stage_pipeline, 0),
        ("nest", random_mapnest_pipeline, 100),
    ):
        for seed in range(30):
            fun = gen(np.random.RandomState(base + seed))
            yield f"{label}/{seed}", compile_fun(fun, pipeline="full").fun
    yield "lit-fact", compile_fun(_reads_shifted_by_a_literal()).fun
    yield "shadowing", compile_fun(parse_fun(SHADOWING)).fun


@pytest.fixture(scope="module")
def programs():
    return list(_compiled_programs())


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def _spelled_out(exp):
    """(blocks, names bound inside, operands outside the blocks)."""
    if isinstance(exp, A.Map):
        return [exp.lam.body], set(exp.lam.params), exp.width.free_vars()
    if isinstance(exp, A.Loop):
        bound = {exp.index} | {p.name for p, _ in exp.carried}
        head = exp.count.free_vars() | {init for _, init in exp.carried}
        return [exp.body], bound, head
    if isinstance(exp, A.If):
        return [exp.then_block, exp.else_block], set(), A.operand_vars(exp.cond)
    return [], set(), None


def test_sub_scopes_is_the_structure_of_every_expression(programs):
    kinds = set()
    for _, fun in programs:
        for stmt in iter_stmts(fun.body):
            exp = stmt.exp
            blocks, bound, head = _spelled_out(exp)
            scopes = A.sub_scopes(exp)
            assert [b for b, _ in scopes] == blocks == A.sub_blocks(exp)
            for blk, binder in scopes:
                assert A.bound_names(binder) == bound
                if isinstance(exp, A.Map):
                    assert (binder.kind, binder.var, binder.extent) == (
                        "map", exp.lam.params[0], exp.width
                    )
                elif isinstance(exp, A.Loop):
                    assert (binder.kind, binder.var, binder.extent) == (
                        "loop", exp.index, exp.count
                    )
                    assert binder.params == tuple(p for p, _ in exp.carried)
                else:
                    assert binder is None
                kinds.add(type(exp).__name__)
            if blocks:
                free = set(head)
                for blk in blocks:
                    free |= A.block_free_vars(blk) - bound
                assert A.exp_uses(exp) == free
    assert kinds == {"Map", "Loop", "If"}


# ----------------------------------------------------------------------
# Facts: the passes' rule against the verifier's
# ----------------------------------------------------------------------
class _Recorder(ScopeWalker):
    """The verifier's context of every (non-empty) block."""

    def __init__(self, fun):
        super().__init__(fun)
        self.ctx_of = {}

    def on_stmt(self, stmt, ctx, bindings, avail, path, block, idx):
        self.ctx_of[id(block)] = ctx


def _pass_contexts(fun):
    root = fun.build_context()
    A.add_block_facts(root, fun.body)  # CompileContext.root_context
    out = {id(fun.body): (root, None)}

    def walk(block, ctx):
        for stmt in block.stmts:
            for blk, binder in A.sub_scopes(stmt.exp):
                inner = A.scope_context(ctx, blk, binder)
                out[id(blk)] = (inner, binder)
                walk(blk, inner)

    walk(fun.body, root)
    return out


def test_pass_rule_and_verifier_agree_on_every_block(programs):
    blocks = ranges = equalities = 0
    for label, fun in programs:
        walker = _Recorder(fun)
        walker.run()
        for key, (ours, binder) in _pass_contexts(fun).items():
            theirs = walker.ctx_of.get(key)
            if theirs is None:
                continue  # a block without statements: nothing is asked
            # Effective facts: every equality and every variable's bound,
            # read once both walks are over (the verifier learns a block's
            # scalars statement by statement, the passes on entry).
            assert ours.fingerprint() == theirs.fingerprint(), label
            blocks += 1
            equalities += len(ours.all_equalities())
            if binder is not None:
                b = theirs.bound(binder.var)
                assert (b.lower, b.upper) == (0, binder.extent - 1), label
                ranges += 1
    assert blocks > 500 and ranges > 400 and equalities > 400  # not vacuous


def test_a_definition_that_mentions_its_own_name_is_no_fact():
    # Only IR that skipped the typechecker can hold one ...
    i = Var("i")
    selfish = A.Let([A.PatElem("i", i64())], A.ScalarE(i + 1))
    assert dict(A.block_facts(A.Block([selfish], ("i",)))) == {}
    # ... a parsed text's rebinding is renamed into an ordinary fact.
    fun = parse_fun(SHADOWING)
    (body,) = A.sub_blocks(fun.body.stmts[0].exp)
    assert dict(A.block_facts(body)) == {"m": n - 1 - i, "i_1": i + 1}
    xs = np.arange(5, dtype=np.float32)
    compiled = compile_fun(fun, verify=True)
    ex = MemExecutor(compiled.fun)
    (ys,), _ = ex.run(n=5, xs=xs)
    assert np.array_equal(materialize(ex, ys), xs[::-1])


# ----------------------------------------------------------------------
# One fact rule: an i64 literal is known to every pass
# ----------------------------------------------------------------------
def _reads_shifted_by_a_literal():
    """A consumer of width ``n - 2`` reading ``inter[j + k]``: covered by
    the producer's ``n`` cells only because ``k = 2``."""
    b = FunBuilder("shifted")
    b.size_param("n")
    xs = b.param("xs", f32(n))
    b.assume_lower("n", 3)
    mp = b.map_(n, index="i")
    mp.returns(mp.binop("*", mp.index(xs, [mp.idx]), 2.0))
    (inter,) = mp.end()
    mc = b.map_(n - 2, index="j")
    k = mc.lit(2, "i64")
    mc.returns(mc.binop("+", mc.index(inter, [mc.idx + Var(k)]), 1.0))
    b.returns(*mc.end())
    return b.build()


def _writes_a_tail_starting_at_a_literal():
    """``A[k : n-2] = map {A[0] + 1}``: thread ``j`` writes ``A[k + j]``
    and every thread reads ``A[0]`` -- disjoint only because ``k = 2``."""
    b = FunBuilder("tail")
    b.size_param("n")
    arr = b.param("A", f32(n))
    b.assume_lower("n", 3)
    k = b.lit(2, "i64")
    mp = b.map_(n - 2, index="j")
    mp.returns(mp.binop("+", mp.index(arr, [0]), 1.0))
    (X,) = mp.end()
    b.returns(b.update_slice(arr, [(Var(k), n - 2, 1)], X))
    return b.build()


def _second_array_is_as_long_by_a_literal():
    """``[n]`` dies before ``[n - 2 + k]`` is made: the same size only
    because ``k = 2``."""
    b = FunBuilder("two")
    b.size_param("n")
    b.assume_lower("n", 3)
    k = b.lit(2, "i64")
    r1 = b.reduce("+", b.replicate([n], 0.5))
    r2 = b.reduce("+", b.replicate([n - 2 + Var(k)], r1))
    b.returns(r1, r2)
    return b.build()


def test_every_pass_knows_an_i64_literal():
    fused = compile_fun(_reads_shifted_by_a_literal(), verify=True)
    assert fused.fuse_stats.committed == 1
    assert "read-out-of-range" not in fused.fuse_stats.failures

    circuited = compile_fun(_writes_a_tail_starting_at_a_literal(), verify=True)
    assert circuited.sc_stats.committed == 1 and not circuited.sc_stats.failures

    merged = compile_fun(_second_array_is_as_long_by_a_literal(), verify=True)
    assert [mode for _, _, mode in merged.reuse_stats.records] == ["equal"]

    for compiled in (fused, circuited, merged):
        assert all(r.ok() for r in compiled.verify_reports.values())

    # The results are the unoptimized program's.
    for build, array in (
        (_reads_shifted_by_a_literal, "xs"),
        (_writes_a_tail_starting_at_a_literal, "A"),
    ):
        outs = []
        for preset in ("unopt", "full"):
            ex = MemExecutor(compile_fun(build(), pipeline=preset).fun)
            (val,), _ = ex.run(n=6, **{array: np.arange(6, dtype=np.float32)})
            outs.append(materialize(ex, val))
        assert np.array_equal(*outs)


# ----------------------------------------------------------------------
# Guard: nobody re-derives a scope
# ----------------------------------------------------------------------
def test_passes_open_scopes_only_through_the_rule():
    """Under ``opt``, ``reuse`` and ``mem`` no code builds assumption
    contexts by hand: ranges and equalities come from ``scope_context``.
    The one exception is the *shifted-iteration* context of the
    cross-iteration check (``var_other`` above/below ``var``), which is
    a different fact."""
    src = Path(repro.__file__).parent
    found = []
    for sub in ("opt", "reuse", "mem"):
        for path in sorted((src / sub).rglob("*.py")):
            tree = pyast.parse(path.read_text())
            for fn in pyast.walk(tree):
                if not isinstance(fn, (pyast.FunctionDef, pyast.AsyncFunctionDef)):
                    continue
                for node in pyast.walk(fn):
                    if (
                        isinstance(node, pyast.Call)
                        and isinstance(node.func, pyast.Attribute)
                        and node.func.attr in (
                            "assume_range", "assume_lower", "assume_upper",
                            "define",
                        )
                    ):
                        found.append((path.name, fn.name, node.func.attr))
    assert set(found) == {
        ("shortcircuit.py", "_check_cross_iteration", "assume_range")
    }
