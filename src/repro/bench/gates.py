"""The regression gates of ``python -m repro.bench``: one table.

Each gate compares one measurement of a benchmark against the row a
committed baseline file under ``benchmarks/results/`` records for it.
A :class:`Gate` is the whole of that: where the baseline lives, which
fields of the measurement it records (``row``, the write side) and which
messages a measurement earns against a recorded row (``check``, the
read side).  ``check`` takes the *measurement*, not its row -- several
messages quote fields the baseline does not store -- and ``recorded``
is ``None`` when the baseline has no row for the benchmark, which never
fails.  Regenerate a baseline with ``--write-baseline NAME``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

_RESULTS = Path("benchmarks") / "results"


@dataclass(frozen=True)
class Gate:
    name: str
    path: Path
    #: When the measurement is taken: "always", only under "json", or only
    #: under "devices" (``--devices N``); writing the baseline forces it.
    needs: str
    #: Measurement -> the row recorded for it.
    row: Callable[[dict], dict]
    #: (measurement, recorded row or None) -> stderr messages, in order.
    check: Callable[[dict, Optional[dict]], List[str]]
    #: Label of the run's closing "<label>: <benchmarks>" line.
    failed: str


def load_baseline(gate: Gate) -> dict:
    return json.loads(gate.path.read_text()) if gate.path.exists() else {}


def write_baseline(gate: Gate, payload: dict) -> None:
    gate.path.parent.mkdir(parents=True, exist_ok=True)
    gate.path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {gate.path}")


# -- footprint: the optimized pipeline's peak (dry-mode estimate at the
# PERF_DATASETS size) must not exceed the recorded value.
def _footprint_row(fp: dict) -> dict:
    return {
        "dataset": fp["dataset"],
        "opt_peak_bytes": fp["opt"]["peak_bytes"],
        "opt_naive_bytes": fp["opt"]["naive_bytes"],
        "unopt_peak_bytes": fp["unopt"]["peak_bytes"],
    }


def _footprint_check(fp: dict, recorded: Optional[dict]) -> List[str]:
    rec = (recorded or {}).get("opt_peak_bytes")
    peak = fp["opt"]["peak_bytes"]
    if rec is not None and peak > rec:
        return [f"FOOTPRINT REGRESSION: peak {peak:,} exceeds baseline {rec:,}"]
    return []


# -- traffic: the optimized pipeline's dry-run traffic (bytes read +
# written at the PERF_DATASETS size) must not exceed the recorded value
# -- e.g. when a fusion or short-circuit opportunity is lost.
def _traffic_row(fusion: dict) -> dict:
    return {
        "dataset": fusion["dry_dataset"],
        "opt_traffic_bytes": fusion["fused_traffic"],
        "unfused_traffic_bytes": fusion["unfused_traffic"],
    }


def _traffic_check(fusion: dict, recorded: Optional[dict]) -> List[str]:
    rec = (recorded or {}).get("opt_traffic_bytes")
    rec_unfused = (recorded or {}).get("unfused_traffic_bytes")
    fused, unfused = fusion["fused_traffic"], fusion["unfused_traffic"]
    if rec is not None and fused > rec:
        return [f"TRAFFIC REGRESSION: {fused:,} bytes exceeds baseline {rec:,}"]
    if (rec is not None and rec_unfused is not None and rec < rec_unfused
            and fused >= unfused):
        # Tighter than the absolute ceiling: where the baseline records
        # a strict fusion win, losing it (fusion silently no longer
        # committing) fails even if traffic stays under the ceiling.
        return [f"TRAFFIC REGRESSION: fusion win lost ({fused:,} >= "
                f"{unfused:,} unfused; baseline won {rec_unfused - rec:,} "
                f"bytes)"]
    return []


# -- prover: the optimized pipeline must not *decide* (structural +
# polyhedral) fewer disjointness/size queries than recorded, nor leave
# more undecided -- e.g. when a prover change silently demotes
# polyhedral recoveries back to ``unknown``.
def _prover_check(tiers: dict, recorded: Optional[dict]) -> List[str]:
    if recorded is None:
        return []
    decided = tiers["structural"] + tiers["polyhedral"]
    rec_decided = recorded["structural"] + recorded["polyhedral"]
    if decided < rec_decided or tiers["unknown"] > recorded["unknown"]:
        return [f"PROVER TIER REGRESSION: decided {decided} (baseline "
                f"{rec_decided}), unknown {tiers['unknown']} (baseline "
                f"{recorded['unknown']})"]
    return []


# -- native: the compiled-C tier must agree with the vectorized one, and
# its kernel coverage (fraction of real-mode map dispatches served by
# compiled C) must not fall below the recorded value.  Without a C
# compiler there is no measurement, and the gate is not consulted.
def _native_row(native: dict) -> dict:
    return {k: native[k] for k in ("dataset", "native_hit_rate", "native_launches")}


def _native_check(native: dict, recorded: Optional[dict]) -> List[str]:
    msgs = []
    if not (native["outputs_equal"] and native["stats_equal"]
            and native["footprint_equal"]):
        msgs.append(f"NATIVE DIFFERENTIAL FAILED: {native}")
    rec = (recorded or {}).get("native_hit_rate")
    if rec is not None and native["native_hit_rate"] < rec:
        msgs.append(f"NATIVE COVERAGE REGRESSION: hit rate "
                    f"{native['native_hit_rate']:.2f} below baseline "
                    f"{rec:.2f}")
    return msgs


# -- shard: an N-device run must stay bit-identical to the 1-device run
# and exchange halos, and at the recorded device count its scaling
# efficiency must not fall below the recorded value.
def _shard_row(rep: dict) -> dict:
    return {
        "dataset": rep["dataset"],
        "devices": rep["devices"],
        "halo_bytes": rep["halo_bytes"],
        "halo_exchanges": rep["halo_exchanges"],
        "efficiency": round(rep["efficiency"], 4),
    }


def _shard_check(rep: dict, recorded: Optional[dict]) -> List[str]:
    name, devices = rep["benchmark"], rep["devices"]
    msgs = []
    if not rep["outputs_identical"]:
        msgs.append(f"SHARD DIFFERENTIAL FAILED: {name} x{devices} output "
                    f"differs from the 1-device run")
    elif rep["halo_bytes"] <= 0:
        msgs.append(f"SHARD HALO CHECK FAILED: {name} x{devices} exchanged "
                    f"no cross-device bytes")
    # Deterministic simulation: 0.02 slack only absorbs deliberate
    # cost-model retuning, not lost overlap.
    if (recorded is not None and devices == recorded.get("devices")
            and rep["efficiency"] < recorded["efficiency"] - 0.02):
        msgs.append(f"SHARD SCALING REGRESSION: {name} efficiency "
                    f"{rep['efficiency']:.3f} below baseline "
                    f"{recorded['efficiency']:.3f}")
    return msgs


GATES: Dict[str, Gate] = {
    g.name: g
    for g in (
        Gate("footprint", _RESULTS / "footprint_baseline.json", "always",
             _footprint_row, _footprint_check, "FOOTPRINT REGRESSION"),
        Gate("traffic", _RESULTS / "traffic_baseline.json", "always",
             _traffic_row, _traffic_check, "TRAFFIC REGRESSION"),
        Gate("prover", _RESULTS / "prover_tier_baseline.json", "always",
             dict, _prover_check, "PROVER TIER REGRESSION"),
        Gate("native", _RESULTS / "native_baseline.json", "json",
             _native_row, _native_check, "NATIVE TIER REGRESSION"),
        Gate("shard", _RESULTS / "shard_baseline.json", "devices",
             _shard_row, _shard_check, "SHARD CHECK FAILED"),
    )
}
