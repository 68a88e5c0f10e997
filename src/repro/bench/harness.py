"""The evaluation harness: regenerate the paper's tables I-VII.

For each benchmark and dataset the harness:

1. compiles the IR program twice (with and without short-circuiting);
2. validates both pipelines element-wise against the NumPy reference at a
   scaled-down size (real executor mode);
3. dry-runs both at the paper's dataset size, collecting exact traffic /
   flop / launch counts;
4. converts the counts to simulated time on the A100 and MI100 device
   models, and models the hand-written reference kernel analytically
   (each benchmark module's ``ref_traffic``);
5. renders a paper-style table: Ref. ms, Unopt./Opt. Futhark as
   ref-relative speed (ref_time / futhark_time, the paper's convention
   where >1x means faster than the reference), and Opt. Impact
   (unopt_time / opt_time -- the paper's headline column, which in this
   reproduction depends only on exactly-counted traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import CompiledFun, compile_fun
from repro.gpu import A100, MI100, CostModel, Device
from repro.mem.exec import MemExecutor
from repro.mem.stats import ExecStats
from repro.reuse import estimate_peak
from repro.runtime import materialize

#: Scaled-down datasets for --quick runs (same code paths, small sizes).
QUICK_DATASETS = {
    "nw": {"q64": (64, 16)},
    "lud": {"q32": (32, 16)},
    "hotspot": {"512": (512, 5)},
    "lbm": {"short": (128, 10)},
    "optionpricing": {"medium": (1024, 64)},
    "locvolcalib": {"small": (8, 128, 32)},
    "nn": {"855280": (855280,)},
}

#: Small real-mode datasets at which the gates take their exact counts
#: (footprint, traffic, native coverage) and the fusion differential
#: runs every executor tier.  Speed is not measured here: that is
#: ``python3 -m perfbench``.
PERF_DATASETS = {
    "nw": (16, 16),
    "lud": (8, 8),
    "hotspot": (24, 3),
    "lbm": (16, 4),
    "optionpricing": (128, 32),
    "locvolcalib": (4, 16, 4),
    "nn": (5000,),
}


@dataclass
class Row:
    """One table row on one device."""

    device: str
    dataset: str
    ref_ms: float
    unopt_rel: float  # ref_time / unopt_time  (paper's "Unopt. Futhark")
    opt_rel: float  # ref_time / opt_time    (paper's "Opt. Futhark")
    impact: float  # unopt_time / opt_time  (paper's "Opt. Impact")
    unopt_ms: float = 0.0
    opt_ms: float = 0.0


@dataclass
class BenchReport:
    """All rows of one paper table, plus compile/validation metadata."""

    name: str
    rows: List[Row] = field(default_factory=list)
    validated: bool = False
    #: False when validation was skipped (``do_validate=False``), so a
    #: False ``validated`` can be told apart from "never checked".
    validation_ran: bool = False
    sc_committed: int = 0
    sc_reused_copies: int = 0
    compile_seconds: Dict[str, float] = field(default_factory=dict)
    #: Table column ("unopt" / "opt") -> the compilation's structured
    #: :class:`repro.pipeline.PipelineTrace` (per-pass timings, IR
    #: deltas, declined candidates); rendered by ``--explain`` and
    #: serialized into the ``--json`` report.
    traces: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        head = (
            f"{'Dev':6s} {'Dataset':>10s} {'Ref.':>10s} "
            f"{'Unopt.':>8s} {'Opt.':>8s} {'Impact':>8s}"
        )
        lines = [f"== {self.name} ==", head, "-" * len(head)]
        for r in self.rows:
            lines.append(
                f"{r.device:6s} {r.dataset:>10s} {r.ref_ms:9.2f}ms "
                f"{r.unopt_rel:7.2f}x {r.opt_rel:7.2f}x {r.impact:7.2f}x"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def compile_both(module) -> Tuple[CompiledFun, CompiledFun]:
    """(unopt, opt) table columns for a benchmark module: the ``nosc``
    and ``full`` presets.

    The paper tables compare short-circuiting on otherwise identical
    programs, so both columns fuse and reuse; the fusion ablation is
    measured separately (:func:`measure_fusion`).
    """
    fun = module.build()
    return compile_fun(fun, pipeline="nosc"), compile_fun(fun)


def _fresh(inp: Dict[str, object]) -> Dict[str, object]:
    """A private copy of one input set (executors may write in place)."""
    return {k: (v.copy() if hasattr(v, "copy") else v) for k, v in inp.items()}


def validate(module, dataset: str = "small", compiled=None) -> bool:
    """Run both pipelines on real data; compare against the interpreter-
    independent NumPy reference via the module's ``check`` protocol."""
    unopt, opt = compiled if compiled is not None else compile_both(module)
    args = module.TEST_DATASETS[dataset]
    inp = module.inputs_for(*args)
    expected = _reference_of(module, args, inp)
    for c in (unopt, opt):
        ex = MemExecutor(c.fun)
        vals, _ = ex.run(**_fresh(inp))
        got = [materialize(ex, v) for v in vals]
        for g, e in zip(got, expected):
            if not np.allclose(np.asarray(g, dtype=np.float64),
                               np.asarray(e, dtype=np.float64),
                               rtol=1e-3, atol=1e-3):
                return False
    return True


def measure_engine(
    module, args: Sequence, compiled=None
) -> Optional[Dict[str, object]]:
    """Native-tier coverage of the optimized pipeline on one dataset.

    One vectorized run and one native run on identical inputs: the
    fraction (and number) of map launches compiled C served, and whether
    the native run's outputs, :meth:`ExecStats.signature` and peak
    footprint equal the vectorized run's -- and ``declined``, what the
    two runs' tiers said no to (the run-time layers of ``--explain``'s
    ``decisions`` table).  ``None`` when no C compiler is available.
    """
    from repro.backend import maybe_engine

    eng = maybe_engine(warn=False)
    if eng is None:
        return None
    _, opt = compiled if compiled is not None else compile_both(module)
    inp = module.inputs_for(*args)

    vec_plans: Dict[int, object] = {}

    def run(native):
        ex = MemExecutor(opt.fun, native=native, vec_plans=vec_plans)
        vals, stats = ex.run(**_fresh(inp))
        return [np.asarray(materialize(ex, v)) for v in vals], stats

    outs_v, st_v = run(None)
    outs_n, st_n = run(eng)
    return {
        "dataset": list(args),
        "native_hit_rate": st_n.native_hit_rate,
        "native_launches": st_n.native_launches,
        "outputs_equal": all(
            np.array_equal(a, b) for a, b in zip(outs_v, outs_n)
        ),
        "stats_equal": st_v.signature() == st_n.signature(),
        "footprint_equal": st_v.peak_bytes == st_n.peak_bytes,
        "declined": eng.declined.records
        + [p.declined for p in vec_plans.values() if p.declined],
    }


def measure_fusion(
    module,
    real_args: Sequence,
    compiled: Optional[CompiledFun] = None,
) -> Dict[str, object]:
    """Fuse-on / fuse-off differential for one benchmark.

    Compiles the ``full`` and ``nofuse`` presets, runs both on identical
    real data under *both* executor tiers and requires bit-identical
    outputs (fusion only changes where intermediate values live, never
    what is computed), then dry-runs both at the same dataset to
    measure the traffic the pass eliminated.  The
    vectorized tier's interpreted-launch count must not increase: a fused
    body that silently falls back to the interpreted path would trade
    traffic for wall clock.
    """
    fused = compiled if compiled is not None else compile_fun(module.build())
    unfused = compile_fun(module.build(), pipeline="nofuse")
    inp = module.inputs_for(*real_args)
    outs: Dict[Tuple[str, bool], List[np.ndarray]] = {}
    tier_stats: Dict[Tuple[str, bool], ExecStats] = {}
    for label, c in (("fused", fused), ("unfused", unfused)):
        for vec in (False, True):
            ex = MemExecutor(c.fun, vectorize=vec)
            vals, st = ex.run(**_fresh(inp))
            outs[(label, vec)] = [np.asarray(materialize(ex, v)) for v in vals]
            tier_stats[(label, vec)] = st
    outputs_equal = all(
        np.array_equal(a, b)
        for vec in (False, True)
        for a, b in zip(outs[("fused", vec)], outs[("unfused", vec)])
    )

    dinp = module.dry_inputs_for(*real_args)
    _, dry_f = MemExecutor(fused.fun, mode="dry").run(**dict(dinp))
    _, dry_u = MemExecutor(unfused.fun, mode="dry").run(**dict(dinp))

    committed = fused.fuse_stats.committed if fused.fuse_stats else 0
    interp_f = tier_stats[("fused", True)].interp_launches
    interp_u = tier_stats[("unfused", True)].interp_launches
    traffic_ok = (
        dry_f.bytes_total < dry_u.bytes_total
        if committed
        else dry_f.bytes_total == dry_u.bytes_total
    )
    return {
        "real_dataset": list(real_args),
        "dry_dataset": list(real_args),
        "committed": committed,
        "outputs_equal": outputs_equal,
        "fused_traffic": dry_f.bytes_total,
        "unfused_traffic": dry_u.bytes_total,
        "traffic_ok": traffic_ok,
        "fused_kernels": dry_f.fused_kernels,
        "bytes_elided": dry_f.bytes_elided_fusion,
        "interp_launches_fused": interp_f,
        "interp_launches_unfused": interp_u,
        "no_vec_fallback": interp_f <= interp_u,
        "ok": outputs_equal and traffic_ok and interp_f <= interp_u,
    }


def measure_footprint(module, args: Sequence, compiled=None) -> Dict[str, object]:
    """Peak-footprint estimates for both pipelines on one dataset.

    Uses :func:`repro.reuse.footprint.estimate_peak` only (an unsampled
    dry run: sizes, no data); ``tests/reuse`` checks it against every
    executor tier's high-water mark.
    """
    unopt, opt = compiled if compiled is not None else compile_both(module)
    inp = module.inputs_for(*args)
    out: Dict[str, object] = {"dataset": list(args)}
    for label, c in (("unopt", unopt), ("opt", opt)):
        est = estimate_peak(c.fun, inp)
        out[label] = {
            "peak_bytes": est.peak_bytes,
            "naive_bytes": est.naive_bytes,
            "param_bytes": est.param_bytes,
            "alloc_bytes": est.alloc_bytes,
            "alloc_count": est.alloc_count,
            "saving": est.saving,
            "space_peaks": dict(est.space_peaks),
        }
    return out


def _reference_of(module, args, inp) -> List[np.ndarray]:
    """Invoke the module's NumPy reference with the right signature."""
    name = module.__name__.rsplit(".", 1)[-1]
    if name == "nw":
        return [module.reference(inp["A"], inp["n"])]
    if name == "lud":
        return [module.reference(inp["A"], inp["n"])]
    if name == "hotspot":
        return [module.reference(inp["T"], inp["P"], inp["iters"])]
    if name == "lbm":
        return [module.reference(inp["f"], inp["n"], inp["steps"])]
    if name == "locvolcalib":
        return [module.reference(*args)]
    if name == "optionpricing":
        call, put = module.reference(*args)
        return [np.float32(call), np.float32(put)]
    if name == "nn":
        v, i = module.reference(inp["lat"], inp["lng"], inp["qlat"], inp["qlng"])
        return [v, i]
    raise KeyError(name)


# ----------------------------------------------------------------------
def measure_dataset(
    module,
    args: Sequence,
    compiled: Tuple[CompiledFun, CompiledFun],
    loop_sample: Optional[int] = None,
) -> Tuple[ExecStats, ExecStats]:
    """Dry-run both pipelines at one dataset size; returns (unopt, opt).

    ``loop_sample`` enables the executor's in-kernel loop sampling for
    paper-scale datasets (exact for the uniform/linear per-thread loops of
    these benchmarks; see tests/mem/test_exec.py for the equality check).
    """
    unopt, opt = compiled
    inputs = module.dry_inputs_for(*args)
    _, st_un = MemExecutor(unopt.fun, mode="dry", loop_sample=loop_sample).run(
        **dict(inputs)
    )
    _, st_op = MemExecutor(opt.fun, mode="dry", loop_sample=loop_sample).run(
        **dict(inputs)
    )
    return st_un, st_op


def row_for(
    module,
    label: str,
    args: Sequence,
    device: Device,
    stats: Tuple[ExecStats, ExecStats],
) -> Row:
    st_un, st_op = stats
    cm = CostModel(device)
    t_un = cm.total_time(st_un)
    t_op = cm.total_time(st_op)
    rt = module.ref_traffic(*args)
    seq = rt[2] if len(rt) > 2 else 0
    # The hand-written kernel does the same computation with about as many
    # launches as the optimized code and no redundant copies.
    t_ref = cm.time_of_traffic(
        rt[0],
        rt[1],
        flops=st_op.flops,
        launches=st_op.launches,
        sequential_elems=seq,
    )
    return Row(
        device=device.name,
        dataset=label,
        ref_ms=t_ref * 1e3,
        unopt_rel=t_ref / t_un,
        opt_rel=t_ref / t_op,
        impact=t_un / t_op,
        unopt_ms=t_un * 1e3,
        opt_ms=t_op * 1e3,
    )


def run_table(
    module,
    datasets: Optional[Dict[str, Sequence]] = None,
    devices: Sequence[Device] = (A100, MI100),
    do_validate: bool = True,
    loop_sample: Optional[int] = None,
    compiled: Optional[Tuple[CompiledFun, CompiledFun]] = None,
) -> BenchReport:
    """Regenerate one paper table for a benchmark module."""
    name = module.__name__.rsplit(".", 1)[-1]
    report = BenchReport(name=name)
    if compiled is None:
        compiled = compile_both(module)
    report.sc_committed = compiled[1].sc_stats.committed
    report.sc_reused_copies = compiled[1].sc_stats.reused_copies
    report.compile_seconds = {
        "unopt": compiled[0].compile_seconds,
        "opt": compiled[1].compile_seconds,
    }
    report.traces = {
        "unopt": compiled[0].trace,
        "opt": compiled[1].trace,
    }
    if do_validate:
        report.validated = validate(module, "small", compiled)
        report.validation_ran = True
    table = datasets if datasets is not None else module.PAPER_DATASETS
    for label, args in table.items():
        stats = measure_dataset(module, args, compiled, loop_sample=loop_sample)
        for device in devices:
            report.rows.append(row_for(module, label, args, device, stats))
    return report
