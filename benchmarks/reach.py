"""Which functions under ``src/repro`` does no product entry point call?

    python benchmarks/reach.py

Run it from the checkout root.  Every command in :data:`PRODUCT` -- the
ones CI runs, the paper tables and the perfbench smoke -- runs with a
call recorder in each of its Python processes.  An ``ast`` walk of
``src/repro`` then lists every function that no process ever entered;
a nested function is folded into the function that encloses it.  The
report goes to ``benchmarks/results/reach.txt``.

The recorder is a ``sitecustomize.py`` put first on ``PYTHONPATH``, so
subprocesses (perfbench workers, ``cc`` probes, forked children)
inherit it.  It hooks ``sys.setprofile`` and ``threading.setprofile``
and keeps the code object of every ``call`` event; tracing line events
would cost far more.  Each process writes the ``(co_filename,
co_firstlineno)`` pairs under the source root to one file per pid, at
``atexit`` and from ``os._exit`` (forked children and multiprocessing
workers leave through it).

Reaching a function from a test is not a reason to keep it in the
source, so the tests do not run here: an unreached function carries the
reason :data:`KEPT` gives it, or the label ``UNLABELED`` -- move it into
``tests/``, give it a product caller, or delete it.

The recorder slows Python calls down several-fold: on a two-core x86
box the run takes about 25 minutes, so this is not a CI step.  ``pytest benchmarks`` and ``--write-baseline`` rewrite
files in ``benchmarks/results/``; every file there is restored after
the run.  The exit status is 1 when any entry point failed or any row
is ``UNLABELED``; the header lists each entry point's status, and under
it the tests pytest reported as failed.  A test that fails on an
assertion after its last call into the source still counts in full; one
that fails earlier hides what it would have reached.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PRODUCT: List[List[str]] = [
    ["-m", "perfbench", "--smoke"],
    ["-m", "perfbench", "--smoke", "--trace", "1", "--workload", "stencil",
     "--workload", "fallback", "--workload", "serve-mix"],
    ["-m", "repro.analysis", "--all"],
    ["-m", "repro.analysis", "--all", "--overlap-audit"],
    ["-m", "repro.bench", "--quick", "--json", "--write-baseline", "all"],
    ["-m", "repro.bench", "nw", "locvolcalib", "--quick", "--explain",
     "--no-validate"],
    ["-m", "repro.bench", "hotspot", "--quick", "--devices", "2"],
    *[[str(p.relative_to(ROOT))] for p in sorted((ROOT / "examples").glob("*.py"))],
    # pytest-benchmark pauses every profiler while it times a target;
    # disabled, it calls each target once, unpaused.
    ["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
     "--benchmark-disable"],
]

#: A command still running after this long is stopped and reported.
TIMEOUT_S = 3600

#: The reasons an unreached function may stay, one line each: the
#: report's header.
NOTES: Dict[str, str] = {
    "oracle": "ir/interp.py, the reference interpreter the tests check "
    "every tier against",
    "safety": "error and fork paths a correct run never takes, and "
    "base-class defaults every subclass overrides",
    "debug-mode": "MemExecutor(debug=True)'s checks and the reprs a "
    "debugger prints",
    "cli": "what the verifier CLI runs on a .py argument",
    "language": "IR forms and assumption kinds no benchmark uses that "
    "every tier handles, and their builder entry points",
    "item 7": "the kernel-local allocations locvolcalib's kernels need "
    "(ROADMAP item 7)",
    "item 12": "the verifier's fallback for composed index functions, "
    "waiting for ROADMAP item 12",
}

#: Unreached on purpose: (path under the source root, qualified-name
#: prefix) -> a reason of :data:`NOTES`.  The empty prefix covers a
#: whole module.
KEPT: Dict[Tuple[str, str], str] = {
    ("ir/interp.py", ""): "oracle",
    ("analysis/bounds.py", "_all_empty"): "safety",
    ("analysis/diagnostics.py", "Diagnostic.cause"): "safety",
    ("analysis/diagnostics.py", "Diagnostic.render"): "safety",
    ("analysis/diagnostics.py", "Report.add"): "safety",
    ("analysis/diagnostics.py", "VerificationError.__init__"): "safety",
    ("analysis/facts.py", "ScopeWalker.on_stmt"): "safety",
    ("analysis/liveness.py", "_LastUseValidator._all_uses"): "safety",
    ("analysis/races.py", "Event.describe"): "safety",
    ("analysis/races.py", "RaceChecker._flag_unknown"): "safety",
    ("backend/build.py", "BuildError.__init__"): "safety",
    ("backend/build.py", "warn_unavailable_once"): "safety",
    ("backend/engine.py", "_forget_helpers"): "safety",
    ("backend/engine.py", "_eval_int"): "safety",
    ("pipeline/passes.py", "Pass.run"): "safety",
    ("symbolic/expr.py", "SymExpr.__bool__"): "safety",
    ("mem/exec.py", "MemExecutor._check_"): "debug-mode",
    ("mem/exec.py", "MemExecutor._point_"): "debug-mode",
    ("mem/exec.py", "_region_bounds"): "debug-mode",
    ("analysis/diagnostics.py", "Severity.__str__"): "debug-mode",
    ("ir/pretty.py", "_fused_str"): "debug-mode",
    ("opt/summaries.py", "AccessSet.__str__"): "debug-mode",
    ("pipeline/passes.py", "Pass.__repr__"): "debug-mode",
    ("symbolic/assumptions.py", "Context.__repr__"): "debug-mode",
    ("symbolic/expr.py", "SymExpr.__repr__"): "debug-mode",
    ("analysis/__main__.py", "_load_file"): "cli",
    ("ir/ast.py", "Iota."): "language",
    ("ir/builder.py", "BlockBuilder.iota"): "language",
    ("ir/builder.py", "BlockBuilder.rearrange"): "language",
    ("ir/builder.py", "BlockBuilder.transpose"): "language",
    ("ir/builder.py", "BlockBuilder.flatten"): "language",
    ("ir/builder.py", "FunBuilder.assume_upper"): "language",
    ("symbolic/assumptions.py", "Context.assume_upper"): "language",
    ("lmad/ixfun.py", "IndexFn.permute"): "language",
    ("lmad/lmad.py", "Lmad.permute"): "language",
    ("mem/vectorize.py", "_alias"): "language",
    ("backend/cemit.py", "_Emitter._emit_alloc"): "item 7",
    ("isl/terms.py", ""): "item 12",
    ("isl/bridge.py", ""): "item 12",
    ("analysis/races.py", "RaceChecker._composed_disjoint"): "item 12",
}

RECORDER = '''\
import atexit, os, sys, threading

_ROOT = {root!r}
_OUT = {out!r}
_codes = set()
_add = _codes.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    hits, real = set(), {{}}
    for code in list(_codes):
        name = code.co_filename
        path = real.get(name) or real.setdefault(name, os.path.realpath(name))
        if path.startswith(_ROOT):
            hits.add("%s\\t%d" % (path, code.co_firstlineno))
    with open(os.path.join(_OUT, "%d.txt" % os.getpid()), "w") as f:
        f.write("\\n".join(sorted(hits)))


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


@dataclass(frozen=True)
class Func:
    path: str  # relative to the source root
    qualname: str
    first: int  # co_firstlineno: the first decorator's line, else the def
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(src_root: pathlib.Path) -> List[Func]:
    """Every outermost function (module level or in a class body)."""
    out: List[Func] = []

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append(Func(rel, prefix + child.name, first, child.end_lineno))
            elif not isinstance(child, ast.Lambda):
                walk(child, rel, prefix)

    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root).as_posix()
        walk(ast.parse(path.read_text(), str(path)), rel, "")
    return out


def record(
    commands: Sequence[Sequence[str]],
    src_root: pathlib.Path,
    cwd: pathlib.Path,
    pythonpath: Sequence[pathlib.Path] = (),
) -> Tuple[Set[Tuple[str, int]], List[Tuple[str, int, List[str]]]]:
    """Run each command (``python`` arguments) under the recorder.

    Returns the ``(path relative to src_root, first line)`` of every code
    object entered in any process, and each command's exit status with
    the pytest tests it failed."""
    src_root = src_root.resolve()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        site, out = pathlib.Path(tmp, "site"), pathlib.Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            RECORDER.format(root=str(src_root) + os.sep, out=str(out))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site)] + [str(p) for p in pythonpath]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        status = []
        for cmd in commands:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, *cmd], cwd=cwd, env=env, timeout=TIMEOUT_S,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                )
                rc, out_lines = proc.returncode, proc.stdout.splitlines()
            except subprocess.TimeoutExpired:
                rc, out_lines = -1, ["timed out"]
            print(f"  [{time.monotonic() - t0:6.0f} s] exit {rc}: "
                  f"python {' '.join(cmd)}", file=sys.stderr, flush=True)
            if rc:
                print("\n".join("    " + t for t in out_lines[-20:]),
                      file=sys.stderr)
            # pytest's short summary: "FAILED <node id> - <message>".
            failed = [t.split(" - ")[0] for t in out_lines if t.startswith("FAILED ")]
            status.append((" ".join(cmd), rc, failed))
        seen = set()
        for f in out.iterdir():
            for line in f.read_text().splitlines():
                path, first = line.split("\t")
                seen.add((pathlib.Path(path).relative_to(src_root).as_posix(),
                          int(first)))
    return seen, status


def unreached(funcs: Iterable[Func], seen: Set[Tuple[str, int]]) -> List[Func]:
    return [f for f in funcs if (f.path, f.first) not in seen]


def label(f: Func) -> str:
    """Why an unreached function stays, or ``UNLABELED``."""
    for (path, prefix), why in KEPT.items():
        if f.path == path and f.qualname.startswith(prefix):
            return why
    return "UNLABELED"


def report(
    funcs: List[Func],
    product: Set[Tuple[str, int]],
    status: List[Tuple[str, int, List[str]]],
) -> str:
    missed = unreached(funcs, product)
    total = sum(f.lines for f in funcs)
    lines = [
        "# Functions under src/repro that no product entry point calls.",
        "# Regenerate from the checkout root: python benchmarks/reach.py",
        "#",
        "# entry points (python ..., exit status):",
    ]
    for cmd, rc, failed in status:
        lines.append(f"#   {rc:3d}  {cmd}")
        lines += [f"#          {t}" for t in failed]
    lines += [
        "#",
        f"# src/repro: {len(funcs)} functions, {total} lines",
        f"# unreached by the product: {len(missed)} functions, "
        f"{sum(f.lines for f in missed)} lines",
    ]
    lines += ["#", "# kept, and why:"]
    lines += [f"#   {why}: {note}" for why, note in NOTES.items()]
    lines += ["#", "# label       lines  function"]
    lines += [
        f"{label(f):<12}{f.lines:6d}  {f.path}:{f.first} {f.qualname}"
        for f in missed
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    src_root = ROOT / "src" / "repro"
    path = [ROOT / "src", ROOT]
    saved = {p: p.read_bytes() for p in RESULTS.iterdir() if p.is_file()}
    try:
        print("product entry points:", file=sys.stderr)
        product, status = record(PRODUCT, src_root, ROOT, path)
    finally:
        for p in RESULTS.iterdir():
            if p.is_file() and p not in saved:
                p.unlink()
        for p, data in saved.items():
            p.write_bytes(data)
    funcs = functions(src_root)
    text = report(funcs, product, status)
    (RESULTS / "reach.txt").write_text(text)
    print(text.split("# kept")[0], end="")
    unlabeled = [f for f in unreached(funcs, product) if label(f) == "UNLABELED"]
    for f in unlabeled:
        print(f"UNLABELED: {f.path}:{f.first} {f.qualname}", file=sys.stderr)
    return 1 if unlabeled or any(rc for _, rc, _ in status) else 0


if __name__ == "__main__":
    sys.exit(main())
