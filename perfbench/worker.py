"""One workload, one process, six phases.

``setup -> compile -> first_call -> warm -> dry -> check``.  The parent
(``python -m perfbench``) starts this module in a fresh subprocess whose
working directory and ``REPRO_NATIVE_CACHE`` are inside a scratch
directory, so neither on-disk cache of the program under test ever
touches the checkout.  Every timed region calls a public function of
``repro``; every check happens in ``check``, off every clock.

Every end-to-end time is reported *at reference machine speed*
(:class:`Pace`): the box this was sized on runs 10-70 % slower for seconds
to minutes at a time, and no statistic of wall-clock samples alone is
steady on it (README, "Noise").
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.spec import WORKLOADS, Reps, Workload, reps_for
from perfbench.trace import NullTracer, Tracer

#: Thread CPU seconds one :func:`tick` takes on the sizing box when it is
#: quiet.  Only fixes the scale of the reported times; never changes a
#: comparison between two commits.
REFERENCE_TICK_S = 3.3e-3


def tick() -> float:
    """How fast is this core right now: thread CPU seconds of a fixed
    pure-Python spin (CPU time, so that waiting for the GIL or for another
    process does not count; slowness of the core itself does)."""
    t = time.thread_time()
    s = 0
    for i in range(60_000):
        s += i * i
    return time.thread_time() - t


class Pace:
    """Wall-clock samples of one thread, brought to reference speed.

    A sample is divided by how much slower than the reference the thread's
    core was just before and just after it.  Ticks cost about 5 % of the
    sample they follow (at least one, at most eight), so a long sample,
    which few repetitions will average, gets a steadier factor.  The
    factor is independent of the program under test; the raw seconds are
    kept beside the normalised ones.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []  # at reference speed
        self.raw: List[float] = []
        self._last = tick()
        self._last_at = time.perf_counter()

    def add(self, raw: float) -> float:
        """Record a sample that ended just now; returns it normalised."""
        n = min(8, max(1, int(0.05 * raw / REFERENCE_TICK_S)))
        before, self._last = self._last, statistics.mean(
            tick() for _ in range(n)
        )
        self._last_at = time.perf_counter()
        slow = (before + self._last) / (2 * REFERENCE_TICK_S)
        self.raw.append(raw)
        self.seconds.append(raw / slow)
        return self.seconds[-1]

    def time(self, fn: Callable[..., object], *args) -> float:
        """Time ``fn(*args)``.  Untimed work since the last tick (preparing
        a repetition) makes that tick stale; take fresh ones then."""
        if time.perf_counter() - self._last_at > 0.02:
            self._last = statistics.mean(tick() for _ in range(3))
        t = time.perf_counter()
        fn(*args)
        return self.add(time.perf_counter() - t)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, -(-len(s) * q // 100) - 1))]


class Rounds:
    """What one closed-loop warm phase produced."""

    def __init__(self, clients: int, requests_per_round: int) -> None:
        #: per client, the latencies of its complete timed rounds
        self.clients = [Pace() for _ in range(clients)]
        self.requests_per_round = requests_per_round
        self.stats: list = []  # ExecStats of every timed request
        self.memo_hits = 0

    @property
    def latencies(self) -> List[float]:
        return [s for pace in self.clients for s in pace.seconds]

    @property
    def rps(self) -> float:
        """Requests per second of round time, summed over the clients (a
        client's ticks between rounds are not round time)."""
        return sum(
            len(p.seconds) * self.requests_per_round / sum(p.seconds)
            for p in self.clients
        )

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3

    @property
    def p90_ms(self) -> float:
        return percentile(self.latencies, 90) * 1e3


class Run:
    """State of one run of one workload, and its phases."""

    def __init__(
        self,
        wl: Workload,
        seed: int,
        reps: Reps,
        trace: bool,
        cache_dir: Path,
        inject_fault: bool = False,
    ) -> None:
        self.wl = wl
        self.seed = seed
        self.reps = reps
        self.trace = trace
        self.tracer = Tracer() if trace else NullTracer()
        self.cache_dir = cache_dir
        self.inject_fault = inject_fault
        #: thread count <= nproc
        self.clients = min(wl.clients, os.cpu_count() or 1)
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        #: every timed sample behind the metrics, as measured (seconds)
        self.raw: Dict[str, List[float]] = {}
        self.ops_attempted = 0
        self.ops_failed = 0
        self.failures: List[str] = []
        #: id(request) -> (request, outputs), the last response to each
        #: distinct request; compared with the references in ``check``.
        self.outputs: Dict[int, tuple] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def fail(self, what: str) -> None:
        with self._lock:
            self.ops_attempted += 1
            self.ops_failed += 1
            self.failures.append(what)

    def repeat(
        self,
        metric: str,
        n: int,
        piece: Callable[[object], None],
        keys: Sequence[object],
        prepare: Callable[[], None] = lambda: None,
    ) -> Pace:
        """``n`` repetitions of ``piece(key) for key in keys`` (each after
        an untimed ``prepare``); a repetition is the sum of its pieces,
        each brought to reference speed on its own, and ``metric`` is the
        median repetition.  Past 2 repetitions the phase stops early once
        it has run for ``reps.cap_s`` seconds (a guard on a machine much
        slower than the one sized on)."""
        pace = Pace()
        totals: List[float] = []
        t0 = time.perf_counter()
        for done in range(1, n + 1):
            prepare()
            totals.append(sum(pace.time(piece, key) for key in keys))
            if done >= 2 and time.perf_counter() - t0 > self.reps.cap_s:
                break
        if totals:
            k = len(keys)
            self.metrics[metric] = statistics.median(totals)
            self.raw[metric] = [
                sum(pace.raw[i:i + k]) for i in range(0, len(pace.raw), k)
            ]
            self.samples[metric + "_reps"] = len(totals)
        return pace

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def setup(self, t0: float) -> None:
        """Import ``repro``, build the ASTs, generate the seeded inputs
        and compute their NumPy references."""
        with self.tracer.span("phase.setup"):
            # Everything the timed phases use is imported here, so that no
            # later phase pays an import.
            import repro.backend  # noqa: F401
            import repro.gpu  # noqa: F401
            import repro.mem.exec  # noqa: F401
            import repro.runtime  # noqa: F401
            from repro.bench.programs import all_benchmarks

            from perfbench import inputs

            registry = all_benchmarks()
            self.mods = {p: registry[p] for p in self.wl.programs}
            with self.tracer.span("ir.build"):
                self.funs = {p: m.build() for p, m in self.mods.items()}
            with self.tracer.span("inputs"):
                self.streams = inputs.build_streams(
                    self.wl,
                    self.mods,
                    self.seed,
                    self.reps,
                    # a traced run also drives the other client count
                    clients=2 if self.trace else self.clients,
                    segments=3 if self.trace else 1,
                    probes=6 if self.trace else 0,
                )
        raw = time.perf_counter() - t0
        slow = statistics.mean(tick() for _ in range(8)) / REFERENCE_TICK_S
        self.metrics["setup_s"] = raw / slow
        self.raw["setup_s"] = [raw]
        if self.inject_fault:
            first = self.streams.ring[self.wl.programs[0]][0]
            first.expected = [e + 1 for e in first.expected]

    def segment(self, index: int, clients: int) -> List[List[list]]:
        """The rounds (warm-up first) of warm phase ``index``."""
        n = self.reps.warmup + self.reps.rounds
        return [
            self.streams.schedule[c][index * n:(index + 1) * n]
            for c in range(clients)
        ]

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    def compile(self, timed_reps: int) -> float:
        """Cold-compile every program ``1 + timed_reps`` times; returns
        the discarded first repetition's (raw) seconds."""
        from repro import runtime

        def compile_one(p: str) -> None:
            self.programs[p] = runtime.compile(
                self.funs[p], pipeline="full", cache=False,
                memoize=self.wl.memoize,
            )

        self.programs = {}
        with self.tracer.span("phase.compile"):
            runtime.clear_caches()
            t = time.perf_counter()
            for p in self.wl.programs:
                compile_one(p)
            first = time.perf_counter() - t
            self.repeat(
                "compile_cold_s", timed_reps, compile_one, self.wl.programs,
                prepare=runtime.clear_caches,
            )
        self.compiled = {p: prog.compiled for p, prog in self.programs.items()}
        return first

    # ------------------------------------------------------------------
    # first_call
    # ------------------------------------------------------------------
    def fresh_native_cache(self) -> None:
        from repro.backend import clear_memo

        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        clear_memo()

    def first_call(self) -> None:
        """New ``Program``s, empty native cache: C emission + ``cc`` +
        ``dlopen`` + run, once per program.  The first repetition also
        pays ``cc --version`` and a cold page cache, and is discarded."""
        from repro.runtime import Program

        def prepare() -> None:
            self.fresh_native_cache()
            self.programs = {
                p: Program(c, memoize=self.wl.memoize)
                for p, c in self.compiled.items()
            }

        def first_run(p: str) -> None:
            req = self.streams.ring[p][0]
            try:
                outs, _ = self.programs[p].run(req.inputs)
                self.outputs[id(req)] = (req, outs)
            except Exception as e:  # a failed op, not a crash
                self.fail(f"first_call {p}: {e!r}")

        with self.tracer.span("phase.first_call"):
            prepare()
            for p in self.wl.programs:
                first_run(p)
            self.metrics["generated_c_bytes"] = sum(
                f.stat().st_size for f in self.cache_dir.glob("*.c")
            )
            self.repeat(
                "first_call_s", self.reps.first_call, first_run,
                self.wl.programs, prepare,
            )

    # ------------------------------------------------------------------
    # warm
    # ------------------------------------------------------------------
    def run_rounds(
        self,
        per_client: List[List[list]],
        warmup: int,
        tracer,
        label: str,
    ) -> Rounds:
        """Closed loop: each client sends its next request only when the
        previous one returned.  A round's latency is the sum over its
        requests; a round with a failed request yields no sample."""
        n = len(per_client)
        res = Rounds(n, len(per_client[0][0]))
        progs = self.programs

        def snapshot() -> None:
            # Runs once, when every client has finished warming up.
            res.memo_hits = -sum(p.memo_hits for p in progs.values())

        start = threading.Barrier(n, action=snapshot)

        def client(c: int) -> None:
            pace = res.clients[c]
            for i, reqs in enumerate(per_client[c]):
                if i == warmup:
                    start.wait(timeout=120)
                complete = True
                with tracer.span("round", rid=f"{label}/c{c}/r{i}"):
                    t = time.perf_counter()
                    for req in reqs:
                        try:
                            with tracer.span("runtime.run"):
                                outs, st = progs[req.program].run(req.inputs)
                        except Exception as e:
                            self.fail(f"{label} {req.program}: {e!r}")
                            complete = False
                            continue
                        self.outputs[id(req)] = (req, outs)
                        if i >= warmup:
                            res.stats.append(st)
                    raw = time.perf_counter() - t
                pace.add(raw)  # warm-up rounds too: the ticks stay fresh
                if i < warmup or not complete:
                    del pace.seconds[-1], pace.raw[-1]

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(n)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        res.memo_hits += sum(p.memo_hits for p in progs.values())
        return res

    def warm(self) -> None:
        with self.tracer.span("phase.warm"):
            res = self.run_rounds(
                self.segment(0, self.clients),
                self.reps.warmup,
                self.tracer,
                "warm",
            )
        self.metrics["warm_round_p50_ms"] = res.p50_ms
        self.metrics["warm_round_p90_ms"] = res.p90_ms
        self.metrics["throughput_rps"] = res.rps
        self.raw["warm_round_s"] = [s for p in res.clients for s in p.raw]
        self.samples["warm_rounds"] = len(res.latencies)

    # ------------------------------------------------------------------
    # dry
    # ------------------------------------------------------------------
    def dry(self) -> Dict[str, float]:
        """The paper-table path: dry-mode executor on ``unopt`` and
        ``full`` at the table sizes, then the A100 cost model.  Returns
        the median (raw) seconds spent under each preset."""
        from repro.compiler import compile_fun
        from repro.gpu import A100, CostModel
        from repro.mem.exec import MemExecutor

        variants = {
            "unopt": {
                p: compile_fun(f, pipeline="unopt", cache=False)
                for p, f in self.funs.items()
            },
            "full": self.compiled,
        }
        dry_inputs = {
            p: self.mods[p].dry_inputs_for(*self.wl.table[p])
            for p in self.wl.programs
        }
        cost = CostModel(A100)
        sim: Dict[str, Dict[str, float]] = {"unopt": {}, "full": {}}
        stats = {}

        def dry_one(key) -> None:
            preset, p = key
            _, st = MemExecutor(
                variants[preset][p].fun, mode="dry", loop_sample=4
            ).run(**dict(dry_inputs[p]))
            sim[preset][p] = cost.total_time(st)
            stats[key] = st

        keys = [(preset, p) for preset in variants for p in self.wl.programs]
        with self.tracer.span("phase.dry"):
            pace = self.repeat("dry_run_s", self.reps.dry, dry_one, keys)
        progs = self.wl.programs
        self.metrics["sim_opt_ms"] = sum(sim["full"].values()) * 1e3
        self.metrics["sim_impact"] = statistics.geometric_mean(
            [sim["unopt"][p] / sim["full"][p] for p in progs]
        )
        self.metrics["sim_traffic_bytes"] = sum(
            stats["full", p].bytes_total for p in progs
        )
        self.metrics["peak_bytes"] = sum(
            stats["full", p].peak_bytes for p in progs
        )
        return {
            preset: statistics.median(
                sum(pace.raw[i + j] for j, key in enumerate(keys)
                    if key[0] == preset)
                for i in range(0, len(pace.raw), len(keys))
            )
            for preset in variants
        }

    # ------------------------------------------------------------------
    # check
    # ------------------------------------------------------------------
    def check(self) -> None:
        """Every distinct request's last response against its NumPy
        reference (``rtol = atol = 1e-3``, the harness's tolerance), and
        per program one native-vs-vectorized bit-identity and
        ``ExecStats.signature()`` equality check (on a small seeded input:
        the same kernels, at a size the vectorized tier finishes at once)."""
        import numpy as np

        from perfbench import inputs

        def close(got, want) -> bool:
            g = np.asarray(got, dtype=np.float64).reshape(-1)
            w = np.asarray(want, dtype=np.float64).reshape(-1)
            return g.shape == w.shape and np.allclose(
                g, w, rtol=1e-3, atol=1e-3
            )

        for req, outs in self.outputs.values():
            inputs.expect(self.mods, req)
            self.ops_attempted += 1
            if len(outs) != len(req.expected) or not all(
                close(g, w) for g, w in zip(outs, req.expected)
            ):
                self.ops_failed += 1
                self.failures.append(
                    f"{req.program}{req.args}: output differs from reference"
                )
        for p, prog in self.programs.items():
            small = inputs.make_request(
                self.mods, p, self.mods[p].TEST_DATASETS["small"], self.seed, 800
            ).inputs
            try:
                a, sa = prog.run(small, memoize=False)
                b, sb = prog.run(small, memoize=False, native=False)
            except Exception as e:
                self.fail(f"tier identity {p}: {e!r}")
                continue
            self.ops_attempted += 1
            same = len(a) == len(b) and all(
                np.array_equal(x, y) for x, y in zip(a, b)
            )
            if not (same and sa.signature() == sb.signature()):
                self.ops_failed += 1
                self.failures.append(
                    f"{p}: native and vectorized tiers disagree"
                )

    # ------------------------------------------------------------------
    def result(self, args) -> dict:
        self.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": self.trace,
            "ops_attempted": self.ops_attempted,
            "ops_failed": self.ops_failed,
            "failures": self.failures[:20],
            "samples": self.samples,
            "raw": self.raw,
            "metrics": self.metrics,
        }


def main(argv: Optional[List[str]] = None) -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", type=Path)
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run = Run(
        wl,
        args.seed,
        reps_for(wl, args.seconds, args.smoke, trace),
        trace,
        cache_dir=Path(os.environ["REPRO_NATIVE_CACHE"]),
        inject_fault=args.inject_fault,
    )
    run.setup(t0)
    if args.setup_only:
        print(json.dumps({"setup_s": run.metrics["setup_s"],
                          "raw": run.raw["setup_s"][0]}))
        return 0
    if trace:
        from perfbench import layers

        layers.traced_run(run)
        run.tracer.write_chrome(args.out / f"{wl.name}.trace.json")
    else:
        run.compile(run.reps.compile)
        run.first_call()
        run.warm()
        run.dry()
    run.check()
    args.result.write_text(json.dumps(run.result(args)))
    for line in run.failures[:20]:
        print("FAILED:", line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
