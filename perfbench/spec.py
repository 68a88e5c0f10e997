"""What is measured: the metric registry and the four workloads.

``BENCHMARK.json`` at the checkout root is the registry of metric names,
units, directions and bounds (the driver reads it); this module loads it
rather than repeating it, and adds what the driver has no field for: the
programs, sizes and repetition counts of each workload.  Why each program
and size sits where it does is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: name -> {"unit", "better", "bound"}; insertion order is print order.
END_TO_END: Dict[str, dict] = {m["name"]: m for m in _BENCH["end_to_end"]}
#: name -> {"unit", "better"}.
PER_LAYER: Dict[str, dict] = {m["name"]: m for m in _BENCH["per_layer"]}
#: The seconds every repetition count below was sized for.
NOMINAL_SECONDS: int = _BENCH["run_seconds"]

#: Counts made by the compiler: they must repeat exactly on one commit
#: (``compare`` reports any difference as ``exact-mismatch``).
EXACT = (
    "sim_opt_ms",
    "sim_impact",
    "sim_traffic_bytes",
    "peak_bytes",
    "generated_c_bytes",
)

Sizes = Tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    """One named workload: programs, sizes and how much of each phase."""

    name: str
    #: program -> the size arguments of each input-ring entry.  Programs
    #: that take arrays repeat one size (the ring varies the seeded
    #: contents); the two size-only programs list distinct shape classes.
    ring: Dict[str, List[Sizes]]
    #: program -> dry-run ("paper table") size.
    table: Dict[str, Sizes]
    #: program -> a size no request uses (``runtime.new_shape_penalty_ms``).
    unseen: Dict[str, Sizes]
    rounds: int  # timed warm rounds per client at NOMINAL_SECONDS
    compile_reps: int
    dry_reps: int
    clients: int = 1
    memoize: bool = False
    #: serve-mix: each round also sends one never-seen input per program.
    misses: bool = False
    #: Replay the prover query log through both tiers (slow on nw/lud).
    audit: bool = True
    #: (benchmark, sizes) for the 2-device sharding probe, if any.
    shard: Optional[Tuple[str, Sizes]] = None
    #: Untimed warm-up rounds per client (one full ring pass where the
    #: ring holds distinct shape classes, so plans exist before timing).
    warmup: int = 2

    @property
    def programs(self) -> Tuple[str, ...]:
        return tuple(self.ring)


def _same(sizes: Sizes, n: int = 8) -> List[Sizes]:
    return [sizes] * n


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wavefront",
            ring={"nw": _same((32, 16)), "lud": _same((16, 8))},
            table={"nw": (64, 16), "lud": (32, 16)},
            unseen={"nw": (30, 16), "lud": (15, 8)},
            rounds=200,
            compile_reps=3,
            dry_reps=3,
        ),
        Workload(
            name="stencil",
            ring={
                "hotspot": _same((1024, 5)),
                "lbm": _same((128, 10)),
                "nn": _same((855280,)),
            },
            table={
                "hotspot": (8192, 10),
                "lbm": (1470, 100),
                "nn": (855280,),
            },
            unseen={"hotspot": (1000, 5), "lbm": (120, 10), "nn": (800000,)},
            rounds=100,
            compile_reps=20,
            dry_reps=10,
            shard=("hotspot", (1024, 5)),
        ),
        Workload(
            name="fallback",
            ring={
                "locvolcalib": [(4, 32 + 4 * i, 8) for i in range(8)],
                "optionpricing": [(3072 + 256 * i, 64) for i in range(8)],
            },
            table={
                "locvolcalib": (16, 256, 256),
                "optionpricing": (32768, 256),
            },
            unseen={"locvolcalib": (4, 66, 8), "optionpricing": (5200, 64)},
            rounds=100,
            compile_reps=30,
            dry_reps=60,
            warmup=8,
        ),
        Workload(
            name="serve-mix",
            # The ring is the 2-entry hot set; misses come on top.
            ring={
                "nw": _same((16, 16), 2),
                "lud": _same((8, 8), 2),
                "hotspot": _same((128, 5), 2),
                "lbm": _same((64, 10), 2),
                "optionpricing": [(1024, 64), (1000, 64)],
                "locvolcalib": [(4, 16, 4), (3, 16, 4)],
                "nn": _same((100000,), 2),
            },
            table={
                "nw": (16, 16),
                "lud": (8, 8),
                "hotspot": (128, 5),
                "lbm": (64, 10),
                "optionpricing": (1024, 64),
                "locvolcalib": (4, 16, 4),
                "nn": (100000,),
            },
            unseen={
                "nw": (15, 16),
                "lud": (7, 8),
                "hotspot": (120, 5),
                "lbm": (60, 10),
                "optionpricing": (900, 64),
                "locvolcalib": (4, 15, 4),
                "nn": (90000,),
            },
            rounds=50,
            compile_reps=3,
            dry_reps=3,
            clients=2,
            memoize=True,
            misses=True,
            audit=False,
        ),
    )
}

assert list(WORKLOADS) == [w["name"] for w in _BENCH["workloads"]]


#: Fresh processes that time ``setup`` in one run, and timed first calls,
#: at NOMINAL_SECONDS.
SETUP_REPS = 3
FIRST_CALL_REPS = 3


@dataclass(frozen=True)
class Reps:
    """Repetition counts of one run, fixed before anything is timed so
    that two runs with equal arguments do equal work."""

    setup: int
    compile: int
    first_call: int
    warmup: int
    rounds: int
    dry: int
    #: Safety cap in seconds on any one phase (a phase past two
    #: repetitions stops early on a machine much slower than the one
    #: sized on).
    cap_s: float


def reps_for(wl: Workload, seconds: float, smoke: bool, trace: bool) -> Reps:
    """Scale the nominal counts by ``seconds``; a traced run keeps a
    quarter of the rounds; ``smoke`` cuts everything to the minimum."""
    if smoke:
        return Reps(1, 1, 0 if trace else 1, min(wl.warmup, 2), 4, 1, cap_s=60.0)
    k = seconds / NOMINAL_SECONDS
    quarter = 0.25 if trace else 1.0

    def scaled(n: int) -> int:
        return max(2, round(n * k * quarter))

    return Reps(
        setup=1 if trace else scaled(SETUP_REPS),
        compile=scaled(wl.compile_reps),
        first_call=0 if trace else scaled(FIRST_CALL_REPS),
        warmup=wl.warmup,
        rounds=max(
            # never fewer than 100 timed rounds in an untraced run
            20 if trace else -(-100 // wl.clients),
            round(wl.rounds * k * quarter),
        ),
        dry=scaled(wl.dry_reps),
        cap_s=0.6 * seconds,
    )
