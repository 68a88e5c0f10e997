"""Seeded request generators, each paired with its NumPy reference.

The benchmark modules cannot supply distinct requests themselves:
``nw.make_input`` ignores its seed, and optionpricing / locvolcalib take
only sizes.  So the requests come from here -- seeded boundary scores for
nw, seeded matrices/grids for lud, hotspot, lbm and nn, and rings of
distinct *shape classes* for the two size-only programs -- and the program
under test only ever sees the generated inputs.  The expected output of
every request is ``module.reference`` (hand-written NumPy, independent of
the compiler under test).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench.spec import Reps, Workload


@dataclass(eq=False)
class Request:
    """One request: a program, its inputs and the expected outputs."""

    program: str
    args: tuple
    inputs: Dict[str, object]
    #: ``None`` until :func:`expect` fills it (miss streams are filled in
    #: the ``check`` phase, off every clock, ring entries in ``setup``).
    expected: Optional[List[object]] = None


def _rng(seed: int, program: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(program.encode()), index])


def _nw(rng, mod, q: int, b: int, base=None) -> Dict[str, object]:
    n = q * b + 1
    A = np.zeros((n, n), dtype=np.float32)
    # Seeded gap scores: strictly decreasing boundary row and column.
    A[0, 1:] = -np.cumsum(rng.uniform(0.5, 1.5, n - 1))
    A[1:, 0] = -np.cumsum(rng.uniform(0.5, 1.5, n - 1))
    return {"q": q, "b": b, "n": n, "A": A.reshape(-1)}


def _lud(rng, mod, q: int, b: int, base=None) -> Dict[str, object]:
    n = q * b
    # Diagonally dominant, so LU without pivoting is stable.
    A = rng.random((n, n), dtype=np.float32) + np.eye(n, dtype=np.float32) * n
    return {"q": q, "b": b, "n": n, "A": A.reshape(-1)}


def _hotspot(rng, mod, n: int, iters: int, base=None) -> Dict[str, object]:
    return {
        "n": n,
        "iters": iters,
        "T": (300 + 10 * rng.random((n, n))).astype(np.float32),
        "P": rng.random((n, n), dtype=np.float32),
    }


def _lbm(rng, mod, n: int, steps: int, base=None) -> Dict[str, object]:
    rho = (1.0 + 0.01 * rng.random((n * n, 1))).astype(np.float32)
    return {
        "n": n,
        "steps": steps,
        "f": (mod.WEIGHTS[None, :] * rho).astype(np.float32),
        "dirs": mod.DIRS.copy(),
        "w": mod.WEIGHTS.copy(),
    }


def _nn(rng, mod, n: int, base=None) -> Dict[str, object]:
    # A miss stream shares the record arrays of ``base`` and varies only
    # the query point: still a distinct request (the memo key hashes every
    # input) at a fraction of the memory.
    if base is not None:
        lat, lng = base["lat"], base["lng"]
    else:
        lat = (rng.random(n) * 90).astype(np.float32)
        lng = (rng.random(n) * 180).astype(np.float32)
    return {
        "n": n,
        "lat": lat,
        "lng": lng,
        "qlat": np.float32(rng.uniform(30, 60)),
        "qlng": np.float32(rng.uniform(60, 120)),
    }


def _sizes_only(rng, mod, *args, base=None) -> Dict[str, object]:
    return dict(mod.inputs_for(*args))


GENERATORS = {
    "nw": _nw,
    "lud": _lud,
    "hotspot": _hotspot,
    "lbm": _lbm,
    "nn": _nn,
    "optionpricing": _sizes_only,
    "locvolcalib": _sizes_only,
}


def reference(mod, program: str, args: Sequence[int], inp) -> List[object]:
    """``module.reference`` with each module's own calling convention."""
    if program in ("nw", "lud"):
        return [mod.reference(inp["A"], inp["n"])]
    if program == "hotspot":
        return [mod.reference(inp["T"], inp["P"], inp["iters"])]
    if program == "lbm":
        return [mod.reference(inp["f"], inp["n"], inp["steps"])]
    if program == "nn":
        return list(
            mod.reference(inp["lat"], inp["lng"], inp["qlat"], inp["qlng"])
        )
    if program == "optionpricing":
        return [np.float32(v) for v in mod.reference(*args)]
    if program == "locvolcalib":
        return [mod.reference(*args)]
    raise KeyError(program)


def make_request(mods, program, args, seed, index, base=None) -> Request:
    mod = mods[program]
    inp = GENERATORS[program](_rng(seed, program, index), mod, *args, base=base)
    return Request(program, tuple(args), inp)


def expect(mods, req: Request) -> None:
    if req.expected is None:
        req.expected = reference(
            mods[req.program], req.program, req.args, req.inputs
        )


def _miss_sizes(program: str, hot: Sequence[tuple], k: int) -> tuple:
    """The k-th never-seen size of a size-only program: the map width
    grows by one per request, so every miss is a new shape class of
    nearly the same cost."""
    widest = max(h[0] for h in hot)
    return (widest + 1 + k,) + tuple(hot[0][1:])


@dataclass
class Streams:
    """Everything ``setup`` generates for one run of one workload."""

    #: program -> input ring (with expected outputs).
    ring: Dict[str, List[Request]]
    #: schedule[client][round] -> the requests of that round, in order.
    #: A client's rounds come in ``segments`` of ``warmup + rounds``, one
    #: segment per warm phase of the run, so that a never-seen input is
    #: never seen twice.
    schedule: List[List[List[Request]]]
    #: program -> distinct requests no round sends (layer probes).
    probes: Dict[str, List[Request]]


def _fresh(wl: Workload, mods, ring, p: str, seed: int, k: int) -> Request:
    """A request for program ``p`` that differs from every ring entry and
    from every other ``k``."""
    hot = wl.ring[p]
    sizes_only = GENERATORS[p] is _sizes_only
    args = _miss_sizes(p, hot, k) if sizes_only else hot[0]
    return make_request(mods, p, args, seed, 1000 + k, base=ring[p][0].inputs)


def build_streams(
    wl: Workload,
    mods,
    seed: int,
    reps: Reps,
    clients: int,
    segments: int = 1,
    probes: int = 0,
) -> Streams:
    ring = {
        p: [make_request(mods, p, a, seed, i) for i, a in enumerate(sizes)]
        for p, sizes in wl.ring.items()
    }
    for reqs in ring.values():
        for r in reqs:
            expect(mods, r)

    per_client = segments * (reps.warmup + reps.rounds)
    order = np.random.default_rng([seed, 0x5EED])
    schedule: List[List[List[Request]]] = []
    for c in range(clients):
        rounds = []
        for r in range(per_client):
            reqs = [ring[p][r % len(ring[p])] for p in wl.programs]
            if wl.misses:
                k = c * per_client + r
                reqs += [
                    _fresh(wl, mods, ring, p, seed, k)
                    for p in wl.programs
                ]
                reqs = [reqs[i] for i in order.permutation(len(reqs))]
            rounds.append(reqs)
        schedule.append(rounds)
    extra = {
        p: [
            _fresh(wl, mods, ring, p, seed, clients * per_client + i)
            for i in range(probes)
        ]
        for p in wl.programs
    }
    return Streams(ring, schedule, extra)
