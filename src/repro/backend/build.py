"""Compile emitted C kernels into cached shared objects.

The cache key is the SHA-256 of the *generated C source* (which is
itself a pure function of the post-pipeline memory IR, the launch
structure, and the element dtypes), the C compiler's version banner,
the flags it is run with (:data:`CC_FLAGS`) and the ABI version -- so a
toolchain upgrade, a flag change or an ABI change cold-rebuilds instead
of loading stale objects.  Artifacts live next to the
program cache under ``benchmarks/results/.nativecache/`` (override with
``REPRO_NATIVE_CACHE``); writes are atomic (a temp file no other
thread or process writes, then ``os.replace``) so concurrent builders --
of one source, too -- never observe a torn ``.so``, and a cache entry
that fails to load (truncated, wrong architecture, hand-edited) is
unlinked and rebuilt cold -- mirroring the program cache's corruption
semantics.  An object that fails to load *right after* ``cc`` wrote it
is a toolchain fault like a nonzero exit status: :class:`BuildError`,
no retry.  :func:`compile_kernels` builds many sources at once, one
``cc`` per source, and a fault is the faulty source's alone.
"""

from __future__ import annotations

import _ctypes
import contextlib
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.backend.cemit import ABI_VERSION
from repro.mem.kernel import RULES

#: Flags chosen for bit-identity with NumPy: no fast-math, and FP
#: contraction off -- a fused multiply-add changes f32 rounding versus
#: the interpreter's separate multiply and add.  The dynamic cost model
#: (GCC's -O3 default; clang warns and ignores it) lets the vectoriser
#: test at run time whether bufs[i] and bufs[j] overlap; it reorders no
#: arithmetic.  No -march: machines may share the cache directory.
CC_FLAGS = [
    "-O2", "-shared", "-fPIC", "-ffp-contract=off",
    "-fvect-cost-model=dynamic",
]

_CACHE_ENV = "REPRO_NATIVE_CACHE"
_DEFAULT_DIR = Path("benchmarks") / "results" / ".nativecache"


class BuildError(RuntimeError):
    """The toolchain failed -- a fault, not an unsupported construct.
    ``rule`` says how (``no-cc``, ``cc-failed``, ``so-unloadable``),
    ``detail`` what it said."""

    def __init__(self, rule: str, detail: str):
        assert rule in RULES, rule
        super().__init__(f"{rule}: {detail}")
        self.rule = rule
        self.detail = detail


# -- toolchain detection ------------------------------------------------
_cc_info: Optional[Tuple[Optional[str], str]] = None
_warned = False


def find_cc() -> Tuple[Optional[str], str]:
    """Locate a C compiler and its version fingerprint (cached).

    Honors ``REPRO_CC``; otherwise tries ``cc``, ``gcc``, ``clang``.
    Returns ``(None, "")`` when no working compiler is found.
    """
    global _cc_info
    if _cc_info is not None:
        return _cc_info
    candidates = []
    env = os.environ.get("REPRO_CC")
    if env:
        candidates.append(env)
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        path = shutil.which(cand)
        if path is None:
            continue
        try:
            out = subprocess.run(
                [path, "--version"], capture_output=True, text=True,
                timeout=30,
            )
        except OSError:
            continue
        if out.returncode == 0:
            banner = (out.stdout or out.stderr).splitlines()
            _cc_info = (path, banner[0] if banner else "")
            return _cc_info
    _cc_info = (None, "")
    return _cc_info


def warn_unavailable_once() -> None:
    """One-line stderr notice the first time native execution is wanted
    but no C compiler exists; all later requests degrade silently."""
    global _warned
    if not _warned:
        _warned = True
        print(
            "repro: no C compiler found (cc/gcc/clang); "
            "native tier disabled, falling back to vectorized",
            file=sys.stderr,
        )


def cache_dir() -> Path:
    return Path(os.environ.get(_CACHE_ENV) or _DEFAULT_DIR)


def source_digest(source: str) -> str:
    _, fingerprint = find_cc()
    h = hashlib.sha256()
    h.update(
        f"abi={ABI_VERSION}\ncc={fingerprint}\nflags={CC_FLAGS}\n".encode()
    )
    h.update(source.encode())
    return h.hexdigest()


# -- compilation --------------------------------------------------------
#: In-process library memo: digest -> (CDLL, entry point).  The CDLL
#: reference keeps the object mapped; entries survive for the process
#: lifetime (kernels are tiny).
_memo: Dict[str, Tuple[ctypes.CDLL, object]] = {}


def clear_memo() -> None:
    _memo.clear()


def _writer_tmp(path: Path) -> Path:
    """A sibling of ``path`` only the calling thread writes: processes
    that share the directory differ in pid, the threads of one (two
    ``Program``s of one function, each with its own engine lock) in
    thread id."""
    who = f"{os.getpid()}.{threading.get_ident()}"
    return path.with_name(f".{path.name}.{who}.tmp")


def atomic_write(path: Path, data: bytes) -> None:
    """``path`` holds ``data`` or what it held before, whoever else is
    writing it; no temp file outlives the call."""
    tmp = _writer_tmp(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load(so: Path):
    lib = ctypes.CDLL(str(so), mode=ctypes.RTLD_LOCAL)
    try:
        fn = lib.repro_kernel
    except AttributeError:
        # Unmap it, or the loader answers the next open of this path --
        # the rebuilt file -- with this same symbol-less object.
        _ctypes.dlclose(lib._handle)
        raise
    # (T0, W, ia, fa, bufs, C): the pointers are integer addresses, so
    # a caller passes an offset into a larger block without a ctypes
    # object per launch.
    fn.argtypes = [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 4
    fn.restype = None
    return lib, fn


def compile_kernels(sources, jobs: int = 1):
    """Per source its ``(entry point, digest)``, or the
    :class:`BuildError` that says why it has none.  A source not loaded
    yet nor on disk gets a ``cc`` of its own, at most ``jobs`` at once;
    every child is reaped before this returns, also when it raises."""
    cc, _ = find_cc()
    if cc is None:
        return [BuildError("no-cc", "no C compiler available")] * len(sources)
    digests = [source_digest(s) for s in sources]
    cold = {}
    for source, digest in zip(sources, digests):
        if digest not in _memo and digest not in cold and not _load_cached(digest):
            cold[digest] = source
    failed = _cc_all(cc, cold, jobs) if cold else {}
    return [failed.get(d) or (_memo[d][1], d) for d in digests]


def compile_kernel(source: str):
    """:func:`compile_kernels` of one source, raising its BuildError."""
    (got,) = compile_kernels([source])
    if isinstance(got, BuildError):
        raise got
    return got


def _load_cached(digest: str) -> bool:
    """Load ``digest``'s cached object; unlink a corrupt or stale one."""
    so = cache_dir() / f"{digest}.so"
    if not so.exists():
        return False
    try:
        _memo[digest] = _load(so)
        return True
    except (OSError, AttributeError):
        so.unlink(missing_ok=True)
        return False


def _cc_all(cc: str, cold: Dict[str, str], jobs: int) -> Dict[str, BuildError]:
    """Build ``cold``'s ``digest -> source`` entries; why some failed."""
    d = cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    todo = list(cold.items())
    running = []  # (digest, temp object, child), oldest first
    failed = {}
    try:
        while todo or running:
            while todo and len(running) < jobs:
                digest, source = todo.pop(0)
                csrc = d / f"{digest}.c"
                atomic_write(csrc, source.encode())
                tmp = _writer_tmp(d / f"{digest}.so")
                running.append((digest, tmp, subprocess.Popen(
                    [cc, *CC_FLAGS, "-o", str(tmp), str(csrc), "-lm"],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True, start_new_session=True,
                )))
            digest, tmp, proc = running[0]
            _, err = proc.communicate()
            del running[0]
            try:
                _install(digest, tmp, proc.returncode, err)
            except BuildError as e:
                failed[digest] = e
            finally:
                tmp.unlink(missing_ok=True)
    finally:
        for _, tmp, proc in running:
            # The whole group: a compiler driver's own children would
            # write on after it died.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            tmp.unlink(missing_ok=True)
    return failed


def _install(digest: str, tmp: Path, status: int, stderr: str) -> None:
    """Move what ``cc`` wrote into place and load it (:data:`_memo`)."""
    if status != 0:
        said = stderr.strip().splitlines()
        raise BuildError(
            "cc-failed", f"exit status {status}: {said[0] if said else ''}"
        )
    so = tmp.with_name(f"{digest}.so")
    try:
        os.replace(tmp, so)
        _memo[digest] = _load(so)
    except (OSError, AttributeError) as e:
        # What cc just wrote does not load.  Building it again would
        # give the same object: unlink it and let the caller degrade.
        so.unlink(missing_ok=True)
        raise BuildError("so-unloadable", str(e)) from None
