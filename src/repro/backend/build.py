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
no retry.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.backend.cemit import ABI_VERSION

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


def compile_kernel(source: str):
    """Return the native entry point for ``source``, building at most
    once per (source, toolchain, flags, ABI) across processes."""
    cc, _ = find_cc()
    if cc is None:
        raise BuildError("no-cc", "no C compiler available")
    digest = source_digest(source)
    hit = _memo.get(digest)
    if hit is not None:
        return hit[1], digest
    d = cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    so = d / f"{digest}.so"
    csrc = d / f"{digest}.c"
    lib_fn = None
    if so.exists():
        try:
            lib_fn = _load(so)
        except (OSError, AttributeError):
            # Corrupt/stale entry (unloadable, or loadable without the
            # entry point): degrade to a cold rebuild.
            try:
                so.unlink()
            except OSError:
                pass
    if lib_fn is None:
        atomic_write(csrc, source.encode())
        tmp = _writer_tmp(so)
        try:
            cmd = [cc, *CC_FLAGS, "-o", str(tmp), str(csrc), "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                said = proc.stderr.strip().splitlines()
                raise BuildError(
                    "cc-failed",
                    f"exit status {proc.returncode}: {said[0] if said else ''}",
                )
            try:
                os.replace(tmp, so)
                lib_fn = _load(so)
            except (OSError, AttributeError) as e:
                # What cc just wrote does not load.  Building it again
                # would give the same object: unlink it and let the
                # caller degrade.
                so.unlink(missing_ok=True)
                raise BuildError("so-unloadable", str(e)) from None
        finally:
            tmp.unlink(missing_ok=True)
    _memo[digest] = lib_fn
    return lib_fn[1], digest
