"""The traced run: per-layer numbers, priced from outside the program.

Each probe below times calls into one layer's public entry points, with
spans where a layer calls another (:mod:`perfbench.trace`), and fills
``run.metrics`` with that layer's ``<module>.<metric>`` values.  Which
end-to-end metric each of them should move, and on which workload, is
written down in ``perfbench/README.md`` before anyone optimises.

A metric that does not apply to a workload (``shard.*`` without hotspot,
``prover.audit_ms`` where the replay is skipped) is reported as 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List

from perfbench.trace import NullTracer, SpanEngine, SpanPass
from perfbench.worker import Run


def timed(fn: Callable[[], object]) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def median_of(n: int, fn: Callable[[], object]) -> float:
    return statistics.median(timed(fn) for _ in range(n))


def traced_run(run: Run) -> None:
    ir_layer(run)
    ctxs = pipeline_layer(run)
    prover_layer(run, ctxs)
    engines = backend_build_layer(run)
    run.first_call()  # warms run.programs for everything below
    serve_layer(run)
    exec_layer(run, engines)
    vectorize_layer(run)
    runtime_layer(run)
    opt_layer(run)
    analysis_layer(run)
    shard_layer(run)


# ----------------------------------------------------------------------
def ir_layer(run: Run) -> None:
    from repro.ir.parser import parse_fun
    from repro.ir.pretty import pretty_fun
    from repro.ir.typecheck import typecheck_fun
    from repro.mem.memir import iter_stmts

    m = run.metrics
    funs = run.funs.values()
    m["ir.build_ms"] = run.tracer.total("ir.build") * 1e3
    m["ir.typecheck_ms"] = 1e3 * median_of(
        5, lambda: [typecheck_fun(f) for f in funs]
    )
    m["ir.pretty_parse_ms"] = 1e3 * median_of(
        5, lambda: [parse_fun(pretty_fun(f)) for f in funs]
    )
    m["ir.stmts"] = sum(1 for f in funs for _ in iter_stmts(f.body))


# ----------------------------------------------------------------------
PASSES = (
    "typecheck", "introduce_memory", "hoist", "last_use", "short_circuit",
    "dead_allocs", "fuse", "reuse", "mem_frees",
)


def pipeline_layer(run: Run) -> Dict[str, object]:
    """Spans around each pass object of ``preset_pipeline("full")``; what
    the manager spends outside them (auto re-run analyses, IR counting) is
    ``pipeline.manager_self_ms``."""
    from repro.ir import ast as A
    from repro.mem.memir import iter_stmts
    from repro.pipeline import CompileContext, PassManager, preset_pipeline

    m = run.metrics
    m["pipeline.first_rep_s"] = run.compile(timed_reps=0)
    per_rep: List[Dict[str, float]] = []
    ctxs: Dict[str, object] = {}
    for rep in range(run.reps.compile):
        mark = run.tracer.mark()
        for p, fun in run.funs.items():
            ctx = CompileContext(source=fun)
            passes = [SpanPass(x, run.tracer) for x in preset_pipeline("full")]
            with run.tracer.span("compile", rid=f"compile/{rep}/{p}"):
                PassManager(passes, "full").run(ctx)
            ctxs[p] = ctx
        per_rep.append(run.tracer.self_seconds(mark))
    for name in PASSES:
        m[f"pipeline.{name}_ms"] = 1e3 * statistics.median(
            r.get("pass." + name, 0.0) for r in per_rep
        )
    m["pipeline.manager_self_ms"] = 1e3 * statistics.median(
        r["compile"] for r in per_rep
    )
    stmts = [s for c in ctxs.values() for s in iter_stmts(c.mfun.body)]
    m["pipeline.stmts_out"] = len(stmts)
    m["pipeline.allocs_out"] = sum(isinstance(s.exp, A.Alloc) for s in stmts)
    return ctxs


def prover_layer(run: Run, ctxs: Dict[str, object]) -> None:
    from repro.analysis.audit import audit_pool

    m = run.metrics
    tiers = defaultdict(int)
    for ctx in ctxs.values():
        for tier, n in ctx.provers.tier_totals().items():
            tiers[tier] += n
    m["prover.queries"] = sum(tiers.values())
    m["prover.structural_decided"] = tiers["structural"]
    m["prover.polyhedral_decided"] = tiers["polyhedral"]
    m["prover.audit_ms"] = 0.0
    if run.wl.audit:
        # Re-decide every logged query from scratch with both tiers.
        for p, ctx in ctxs.items():
            t = time.perf_counter()
            audit = audit_pool(ctx.provers, p, "full")
            m["prover.audit_ms"] += (time.perf_counter() - t) * 1e3
            if not audit.ok():
                run.fail(f"prover audit {p}: {audit.disagreements[0]}")


# ----------------------------------------------------------------------
def backend_build_layer(run: Run) -> Dict[str, SpanEngine]:
    """Price emission, ``cc`` and ``dlopen`` separately, with
    benchmark-owned engines; returns them (warm) for :func:`exec_layer`."""
    from repro.backend import NativeEngine, build, clear_memo
    from repro.backend.engine import REJECTED
    from repro.mem.exec import MemExecutor

    def first_calls() -> Dict[str, SpanEngine]:
        engines = {
            p: SpanEngine(NativeEngine({}), run.tracer) for p in run.compiled
        }
        with run.tracer.span("phase.backend_build"):
            for p, c in run.compiled.items():
                req = run.streams.ring[p][0]
                with run.tracer.span("exec.run", rid=f"build/{p}"):
                    MemExecutor(c.fun, native=engines[p]).run(**req.inputs)
        return engines

    m = run.metrics
    run.fresh_native_cache()
    plans = [v for e in first_calls().values() for v in e.plans.values()]
    sources = [v.source for v in plans if v is not REJECTED]
    m["backend.kernels"] = len(sources)
    m["backend.rejected_stmts"] = sum(v is REJECTED for v in plans)

    def build_all() -> None:
        for src in sources:
            build.compile_kernel(src)

    run.fresh_native_cache()
    m["backend.cc_s"] = timed(build_all)  # write .c, cc, dlopen
    clear_memo()
    load_s = timed(build_all)  # .so on disk: dlopen only
    m["backend.so_load_ms"] = load_s * 1e3
    clear_memo()
    engines = first_calls()  # .so on disk: emission + dlopen
    codegen_s = sum(e.codegen_seconds for e in engines.values())
    m["backend.emit_s"] = max(0.0, codegen_s - load_s)
    return engines


# ----------------------------------------------------------------------
def serve_layer(run: Run) -> None:
    """Three warm phases on fresh segments of the request stream: the
    workload's client count untraced, the same traced, and the other
    client count."""
    m = run.metrics
    warmup = run.reps.warmup
    untraced = run.run_rounds(
        run.segment(0, run.clients), warmup, NullTracer(), "untraced"
    )
    with run.tracer.span("phase.warm"):
        traced = run.run_rounds(
            run.segment(1, run.clients), warmup, run.tracer, "warm"
        )
    other_n = 1 if run.clients == 2 else 2
    other = run.run_rounds(
        run.segment(2, other_n), warmup, NullTracer(), "other"
    )
    one, two = (other, untraced) if other_n == 1 else (untraced, other)
    m["serve.rps_1c"] = one.rps
    m["serve.rps_2c"] = two.rps
    m["serve.scaling_2c"] = two.rps / one.rps
    m["trace.overhead_pct"] = (
        100.0 * (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms
    )
    hits = sum(st.pool_hits for st in traced.stats)
    misses = sum(st.pool_misses for st in traced.stats)
    m["runtime.memo_hit_rate"] = traced.memo_hits / len(traced.stats)
    m["runtime.pool_hit_rate"] = hits / max(1, hits + misses)
    m["runtime.pool_misses"] = misses
    run.samples["traced_rounds"] = len(traced.latencies)


# ----------------------------------------------------------------------
class BareExecutors:
    """One ``MemExecutor`` per request, wired as ``Program`` wires it but
    with benchmark-owned pool, offset cache, dispatch plans and (proxied)
    native engine: the executor and the launch path without ``Program``."""

    def __init__(self, run: Run, engines: Dict[str, SpanEngine]) -> None:
        from repro.runtime import BufferPool

        self.run = run
        self.engines = engines
        self.state = {p: (BufferPool(), {}, {}) for p in run.compiled}

    def request(self, p: str, inputs, rid: str = "", spans: bool = True):
        from repro.mem.exec import MemExecutor, RuntimeArray

        tr = self.run.tracer if spans else NullTracer()
        pool, offs, vplans = self.state[p]
        engine = self.engines[p]
        with pool.lease() as lease:
            ex = MemExecutor(
                self.run.compiled[p].fun, pool=lease, offs_cache=offs,
                vec_plans=vplans, native=engine if spans else engine.engine,
            )
            with tr.span("exec.run", rid=rid):
                vals, stats = ex.run(**inputs)
            with tr.span("exec.materialize", rid=rid):
                for v in vals:
                    if isinstance(v, RuntimeArray):
                        # as Program does: offsets by (block, index function)
                        key = (v.mem, v.ixfn)
                        if key not in offs:
                            offs[key] = v.ixfn.gather_offsets({})
                        ex.mem[v.mem][offs[key]]
        return stats

    def ok_launches(self, since: int) -> Dict[str, List[float]]:
        """program -> seconds of each launch the native tier took."""
        by_prog: Dict[str, List[float]] = defaultdict(list)
        for s in self.run.tracer.named("backend.launch", since):
            if s.ok:
                by_prog[s.rid.rsplit("/", 1)[1]].append(s.seconds)
        return by_prog


def exec_layer(run: Run, engines: Dict[str, SpanEngine]) -> None:
    from repro.mem.exec import MemExecutor

    m = run.metrics
    tr = run.tracer
    bare = BareExecutors(run, engines)
    ring = run.streams.ring
    n_rounds = max(10, run.reps.rounds // 2)
    n_warm = max(len(v) for v in ring.values())  # one full ring pass
    mark, stats = 0, []
    for r in range(n_warm + n_rounds):
        if r == n_warm:
            mark, stats = tr.mark(), []
        for p in run.wl.programs:
            req = ring[p][r % len(ring[p])]
            stats.append(bare.request(p, req.inputs, f"exec/{r}/{p}"))

    self_s = tr.self_seconds(mark)
    native = sum(st.native_launches for st in stats)
    fallback = sum(st.vec_launches + st.interp_launches for st in stats)
    m["exec.launches"] = (native + fallback) / n_rounds
    m["exec.host_self_ms"] = 1e3 * self_s["exec.run"] / n_rounds
    m["exec.materialize_ms"] = 1e3 * self_s["exec.materialize"] / n_rounds
    m["backend.native_launches"] = native / n_rounds
    m["backend.fallback_launches"] = fallback / n_rounds
    m["backend.native_hit_rate"] = native / max(1, native + fallback)

    # The same kernels at each module's tiniest dataset, where the body
    # is ~0: what is left is marshalling + counter distribution.
    full = bare.ok_launches(mark)
    floor: Dict[str, float] = {}
    for p in run.wl.programs:
        tiny = run.mods[p].inputs_for(*run.mods[p].TEST_DATASETS["tiny"])
        for _ in range(2):
            bare.request(p, tiny, f"tiny-warmup/{p}")
        since = tr.mark()
        for _ in range(20):
            bare.request(p, tiny, f"tiny/{p}")
        spans = bare.ok_launches(since).get(p)
        if spans:
            floor[p] = statistics.mean(spans)
    launch_s = sum(sum(v) for v in full.values())
    n_launch = sum(len(v) for v in full.values())
    floor_s = sum(floor.get(p, 0.0) * len(v) for p, v in full.items())
    m["backend.launch_us"] = 1e6 * launch_s / max(1, n_launch)
    m["backend.launch_floor_us"] = 1e6 * floor_s / max(1, n_launch)
    m["backend.kernel_share"] = 1 - floor_s / launch_s if launch_s else 0.0

    # The same requests through Program.run(memoize=False), in pairs with
    # span-free bare-executor rounds so that drift cancels: the difference
    # is what the runtime layer adds around the executor.
    def bare_round(reqs) -> None:
        for p, inp in reqs:
            bare.request(p, inp, spans=False)

    def program_round(reqs) -> None:
        for p, inp in reqs:
            run.programs[p].run(inp, memoize=False)

    diffs = []
    for r in range(n_rounds):
        reqs = [(p, ring[p][r % len(ring[p])].inputs) for p in run.wl.programs]
        # alternate which side goes first: the second finds the inputs cached
        took = {}
        for side in (bare_round, program_round)[:: 1 if r % 2 else -1]:
            t = time.perf_counter()
            side(reqs)
            took[side] = time.perf_counter() - t
        diffs.append(took[program_round] - took[bare_round])
    m["runtime.program_overhead_ms"] = 1e3 * statistics.median(diffs)

    # The interpreted tier, at a size it finishes in well under a second.
    def interp() -> None:
        for p, c in run.compiled.items():
            small = run.mods[p].inputs_for(*run.mods[p].TEST_DATASETS["small"])
            MemExecutor(c.fun, vectorize=False).run(**small)

    m["exec.interp_tiny_s"] = timed(interp)


# ----------------------------------------------------------------------
def vectorize_layer(run: Run) -> None:
    """Warm rounds with ``native=False``: what ``mem.vectorize`` costs
    when it has to do all the work."""
    m = run.metrics
    ring = run.streams.ring
    lat: List[float] = []
    t_all = time.perf_counter()
    r = 0
    # one untimed round, then at least one and at most five timed ones
    while r < 2 or (r < 6 and time.perf_counter() - t_all < 3.0):
        stats = []
        t = time.perf_counter()
        for p, prog in run.programs.items():
            _, st = prog.run(ring[p][0].inputs, memoize=False, native=False)
            stats.append(st)
        lat.append(time.perf_counter() - t)
        r += 1
    vec = sum(st.vec_launches for st in stats)
    interp = sum(st.interp_launches for st in stats)
    round_s = statistics.median(lat[1:])
    m["vectorize.round_ms"] = round_s * 1e3
    m["vectorize.launches"] = vec
    m["vectorize.hit_rate"] = vec / max(1, vec + interp)
    m["vectorize.launch_us"] = 1e6 * round_s / max(1, vec + interp)


# ----------------------------------------------------------------------
def runtime_layer(run: Run) -> None:
    from repro import runtime
    from repro.runtime import BufferPool, Program

    from perfbench import inputs

    m = run.metrics
    funs = run.funs.values()

    def compile_all(cache) -> None:
        for f in funs:
            runtime.compile(f, pipeline="full", cache=cache)

    # The disk layer writes under the working directory, a scratch dir.
    runtime.clear_caches()
    compile_all("disk")  # cold: fills the memory and the disk layer
    m["runtime.compile_mem_hit_us"] = (
        1e6 * median_of(20, lambda: compile_all(None)) / len(run.funs)
    )

    def disk_hit() -> float:
        runtime.clear_caches()  # memory layer only
        return timed(lambda: compile_all("disk"))

    m["runtime.compile_disk_hit_ms"] = (
        1e3 * statistics.median(disk_hit() for _ in range(5)) / len(run.funs)
    )

    def once(prog, request_inputs, **kwargs) -> float:
        return timed(lambda: prog.run(request_inputs, **kwargs))

    hit_us, miss_us = [], []
    for p, compiled in run.compiled.items():
        on = Program(compiled, memoize=True)
        off = Program(compiled, memoize=False)
        first = run.streams.ring[p][0].inputs
        on.run(first)
        off.run(first)
        hit_us.append(1e6 * statistics.median(once(on, first) for _ in range(20)))
        # a miss with the memo on (hash, execute, store) against the same
        # request with the memo off
        miss_us.append(
            1e6
            * statistics.median(
                once(on, q.inputs) - once(off, q.inputs)
                for q in run.streams.probes[p]
            )
        )
    m["runtime.memo_hit_us"] = statistics.mean(hit_us)
    m["runtime.memo_miss_overhead_us"] = statistics.mean(miss_us)

    pool = BufferPool()

    def lease() -> None:
        with pool.lease() as held:
            held.acquire(1024, "f32")

    m["runtime.lease_us"] = 1e6 * median_of(500, lease)

    penalty = 0.0
    for i, (p, prog) in enumerate(run.programs.items()):
        req = inputs.make_request(
            run.mods, p, run.wl.unseen[p], run.seed, 900 + i
        )
        first = once(prog, req.inputs, memoize=False)
        penalty += first - statistics.median(
            once(prog, req.inputs, memoize=False) for _ in range(3)
        )
    m["runtime.new_shape_penalty_ms"] = penalty * 1e3


# ----------------------------------------------------------------------
def opt_layer(run: Run) -> None:
    """What each optimisation bought, as exact counts at the table sizes:
    a compile-time saving bought by committing fewer sites shows here."""
    from repro.compiler import compile_fun
    from repro.mem.exec import MemExecutor
    from repro.reuse import estimate_peak

    m = run.metrics
    split = run.dry()
    m["exec.dry_unopt_s"] = split["unopt"]
    m["exec.dry_full_s"] = split["full"]

    dry_inputs = {
        p: run.mods[p].dry_inputs_for(*run.wl.table[p]) for p in run.wl.programs
    }
    presets = {
        name: {
            p: compile_fun(f, pipeline=name, cache=False)
            for p, f in run.funs.items()
        }
        for name in ("unopt", "sc", "sc+fuse")
    }
    presets["full"] = run.compiled
    traffic, peak = {}, {}
    for name, compiled in presets.items():
        stats = [
            MemExecutor(c.fun, mode="dry", loop_sample=4).run(
                **dict(dry_inputs[p])
            )[1]
            for p, c in compiled.items()
        ]
        traffic[name] = sum(st.bytes_total for st in stats)
        peak[name] = sum(st.peak_bytes for st in stats)
    full = run.compiled.values()
    m["opt.sc_committed"] = sum(c.sc_stats.committed for c in full)
    m["opt.sc_rejected"] = sum(
        sum(c.sc_stats.failures.values()) for c in full
    )
    m["opt.fuse_committed"] = sum(c.fuse_stats.committed for c in full)
    m["opt.fuse_rejected"] = sum(
        sum(c.fuse_stats.failures.values()) for c in full
    )
    m["opt.sc_traffic_ratio"] = traffic["unopt"] / traffic["sc"]
    m["opt.fuse_traffic_ratio"] = traffic["sc"] / traffic["sc+fuse"]
    m["reuse.merged_blocks"] = sum(len(c.reuse_stats.mapping) for c in full)
    m["reuse.peak_ratio"] = peak["sc+fuse"] / peak["full"]
    m["reuse.estimate_peak_ms"] = 1e3 * timed(
        lambda: [
            estimate_peak(c.fun, dry_inputs[p])
            for p, c in run.compiled.items()
        ]
    )


def analysis_layer(run: Run) -> None:
    """Verification is off in ``compile``; priced here so that a later
    "verify by default" change has a number to answer to."""
    from repro.analysis import verify_fun

    reports: list = []
    run.metrics["analysis.verify_ms"] = 1e3 * timed(
        lambda: reports.extend(
            verify_fun(c.fun) for c in run.compiled.values()
        )
    )
    findings = sum(len(r.errors) + len(r.warnings) for r in reports)
    run.metrics["analysis.findings"] = findings
    if findings:
        run.fail(f"verifier: {findings} findings on the full pipeline")


def shard_layer(run: Run) -> None:
    m = run.metrics
    m["shard.run2_s"] = m["shard.halo_bytes"] = m["shard.efficiency_2dev"] = 0.0
    if run.wl.shard is None:
        return
    from repro.shard import run_sharded

    name, sizes = run.wl.shard
    one = run_sharded(name, sizes, 1)
    t = time.perf_counter()
    two = run_sharded(name, sizes, 2)
    m["shard.run2_s"] = time.perf_counter() - t
    m["shard.halo_bytes"] = two.halo_bytes
    m["shard.efficiency_2dev"] = one.sim_time_s / (2 * two.sim_time_s)
