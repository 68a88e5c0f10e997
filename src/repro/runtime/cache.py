"""The persistent compile cache: repeat compiles are O(lookup).

Every optimization in this reproduction assumes a compile step whose
cost is amortized over many executions; this module supplies the
amortization.  A compilation is identified by a :class:`CacheKey` of

* the **program hash** -- SHA-256 of the pretty-printed source IR (name,
  params, body), which is a canonical rendering: two structurally
  identical ``Fun`` objects built independently hash equal;
* the **pipeline** -- the preset name (:data:`repro.pipeline.PRESETS`);
* the **symbolic-shape class** -- the parameter type row (e.g.
  ``[n][n]f32, i64``); compiles are fully symbolic in shapes, so this is
  the granularity at which a compiled artifact is reusable;
* the **assumptions** -- the function's dataset invariants, rendered
  canonically.  They are a *separate* key component on purpose: two
  compiles of the same body under different :class:`~repro.symbolic`
  assumption sets produce different proofs (and potentially different
  IR), and the pre-runtime pipeline only kept them apart by the
  ``id()``-keyed :class:`~repro.lmad.ProverPool` entry of each fresh
  compile.  Keying the cache on assumptions makes the separation
  explicit and structural;
* the **option fingerprint** -- ``enable_splitting`` / ``verify``, each
  of which changes observable compile behavior.

:class:`ProgramCache` layers an in-process LRU over an on-disk store
(default ``benchmarks/results/.progcache/``).  Disk entries embed
:data:`CACHE_VERSION` and the package version; bumping either silently
invalidates every stale entry.  A disk hit deserializes the compiled
memory IR and rebuilds a :class:`~repro.compiler.CompiledFun` whose
trace contains a single ``progcache`` record -- every pass skipped --
while the IR pretty-print is byte-identical to a cold compile's.

The in-process layer is always safe to enable; the disk layer is opt-in
(``REPRO_PROGCACHE=disk`` or ``cache="disk"``) because test suites that
monkeypatch pass internals need compilations to be re-runnable.  A
caller's ``cache=`` is ``None`` (the environment's choice), ``False``
(no cache) or ``"disk"``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.compiler import CompiledFun
    from repro.ir import ast as A

#: Bump to invalidate every on-disk entry (IR/pickle format changes).
CACHE_VERSION = 6

#: Package version baked into disk entries (a version bump invalidates).
REPRO_VERSION = "0.1.0"

#: Default on-disk location, relative to the working directory.
DEFAULT_DISK_DIR = Path("benchmarks") / "results" / ".progcache"

#: Environment override: ``0``/``off`` disables caching entirely,
#: ``mem`` (default) enables the in-process LRU, ``disk`` adds the
#: on-disk layer.
CACHE_ENV = "REPRO_PROGCACHE"

#: Cache states reported by :meth:`ProgramCache.get_or_compile`.
COLD, MEM_HIT, DISK_HIT = "cold", "memory", "disk"


# ----------------------------------------------------------------------
# Key construction
# ----------------------------------------------------------------------
def source_fingerprint(fun: "A.Fun") -> str:
    """SHA-256 of the canonical source rendering (name, params, body)."""
    from repro.ir.pretty import pretty_fun

    return hashlib.sha256(pretty_fun(fun).encode()).hexdigest()


def shape_class(fun: "A.Fun") -> str:
    """The symbolic-shape class: the parameter type row."""
    return ", ".join(str(p.type) for p in fun.params)


def assumptions_fingerprint(fun: "A.Fun") -> str:
    """Canonical rendering of the function's assumption set."""
    return "; ".join(
        f"{kind} {var} {expr}" for kind, var, expr in fun.assumptions
    )


@dataclass(frozen=True)
class CacheKey:
    """Identity of one compilation (see module docstring)."""

    source: str  # program hash (pretty-printed source IR)
    pipeline: str  # preset name
    shapes: str  # symbolic-shape class
    assumptions: str  # dataset invariants, canonical text
    options: str  # enable_splitting / verify
    version: int = CACHE_VERSION

    def digest(self) -> str:
        blob = "\x00".join(
            (
                self.source,
                self.pipeline,
                self.shapes,
                self.assumptions,
                self.options,
                str(self.version),
                REPRO_VERSION,
            )
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def make_key(
    fun: "A.Fun",
    pipeline: str,
    enable_splitting: bool,
    verify: bool,
) -> CacheKey:
    return CacheKey(
        source=source_fingerprint(fun),
        pipeline=pipeline,
        shapes=shape_class(fun),
        assumptions=assumptions_fingerprint(fun),
        options=f"splitting={enable_splitting},verify={verify}",
    )


def cache_mode(requested=None) -> str:
    """Resolve a ``cache=`` argument against the environment default.

    ``None`` defers to :data:`CACHE_ENV` (in-process only unless it
    says otherwise); ``False`` disables; ``"disk"`` adds the disk layer.
    """
    if requested is None:
        raw = os.environ.get(CACHE_ENV, "mem").strip().lower()
        if raw in ("0", "off", "false", "no"):
            return "off"
        return "disk" if raw == "disk" else "mem"
    if requested is False:
        return "off"
    if requested == "disk":
        return "disk"
    raise ValueError(f"unknown cache mode {requested!r}")


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class ProgramCache:
    """In-process LRU + optional on-disk layer of compiled programs."""

    #: Compiled programs the in-process layer retains.
    MAX_ENTRIES = 128

    def __init__(self, disk_dir: Optional[Path] = None) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, CompiledFun]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_errors = 0

    # ------------------------------------------------------------------
    def get_or_compile(
        self,
        key: CacheKey,
        thunk: Callable[[], "CompiledFun"],
        disk: bool = False,
    ) -> Tuple["CompiledFun", str]:
        """Return ``(compiled, state)``; ``state`` is ``"memory"``,
        ``"disk"`` or ``"cold"``."""
        digest = key.digest()
        with self._lock:
            compiled = self._mem.get(digest)
            if compiled is not None:
                self._mem.move_to_end(digest)
                self.hits += 1
                return compiled, MEM_HIT
            self.misses += 1
        if disk:
            compiled = self._disk_load(digest)
            if compiled is not None:
                with self._lock:
                    self._remember(digest, compiled)
                return compiled, DISK_HIT
        compiled = thunk()
        with self._lock:
            self._remember(digest, compiled)
        if disk:
            self._disk_store(digest, key, compiled)
        return compiled, COLD

    def _remember(self, digest, compiled) -> None:
        self._mem[digest] = compiled
        self._mem.move_to_end(digest)
        while len(self._mem) > self.MAX_ENTRIES:
            self._mem.popitem(last=False)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, digest: str) -> Path:
        base = self.disk_dir if self.disk_dir is not None else DEFAULT_DISK_DIR
        return base / f"{digest}.pkl"

    def _disk_load(self, digest: str):
        path = self._disk_path(digest)
        try:
            if not path.exists():
                return None
            t0 = time.perf_counter()
            payload = pickle.loads(path.read_bytes())
            if (
                payload.get("cache_version") != CACHE_VERSION
                or payload.get("repro_version") != REPRO_VERSION
            ):
                return None
            load_seconds = time.perf_counter() - t0
        except Exception:
            self.disk_errors += 1
            return None
        self.disk_hits += 1
        return _rebuild_compiled(payload, digest, load_seconds)

    def _disk_store(self, digest, key, compiled) -> None:
        path = self._disk_path(digest)
        try:
            payload = {
                "cache_version": CACHE_VERSION,
                "repro_version": REPRO_VERSION,
                "key": key,
                "fun": compiled.fun,
                "pipeline": compiled.pipeline,
                "short_circuited": compiled.short_circuited,
                "sc_stats": compiled.sc_stats,
                "reuse_stats": compiled.reuse_stats,
                "fuse_stats": compiled.fuse_stats,
                "verify_reports": compiled.verify_reports,
                "cold_stage_seconds": dict(compiled.stage_seconds),
            }
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            path.parent.mkdir(parents=True, exist_ok=True)
            from repro.backend.build import atomic_write

            atomic_write(path, blob)
            self.disk_stores += 1
        except Exception:
            # A compiled payload that cannot be pickled (or a read-only
            # results directory) degrades to memory-only caching.
            self.disk_errors += 1

    # ------------------------------------------------------------------
    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._mem.clear()
            self.hits = self.misses = 0
            self.disk_hits = self.disk_stores = self.disk_errors = 0
        if disk:
            base = (
                self.disk_dir if self.disk_dir is not None else DEFAULT_DISK_DIR
            )
            if base.exists():
                for p in base.glob("*.pkl"):
                    try:
                        p.unlink()
                    except OSError:
                        pass


def _rebuild_compiled(payload, digest: str, load_seconds: float):
    """A :class:`CompiledFun` from a disk entry: one-record trace."""
    from repro.compiler import CompiledFun
    from repro.pipeline.trace import PassRecord, PipelineTrace

    fun = payload["fun"]
    trace = PipelineTrace(pipeline=payload["pipeline"], fun_name=fun.name)
    trace.records.append(
        PassRecord(
            kind="cache",
            name="progcache",
            key="progcache",
            seconds=load_seconds,
            detail={
                "state": DISK_HIT,
                "key": digest[:12],
                "passes_skipped": len(payload.get("cold_stage_seconds", {})),
            },
        )
    )
    return CompiledFun(
        fun,
        payload["short_circuited"],
        payload["sc_stats"],
        reuse_stats=payload["reuse_stats"],
        fuse_stats=payload["fuse_stats"],
        stage_seconds=trace.stage_seconds(),
        verify_reports=payload.get("verify_reports", {}),
        trace=trace,
        pipeline=payload["pipeline"],
    )


#: The process-wide cache instance (see :func:`program_cache`).
_GLOBAL = ProgramCache()


def program_cache() -> ProgramCache:
    return _GLOBAL
