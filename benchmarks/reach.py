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
``atexit`` and from ``os._exit`` (forked children, multiprocessing
workers and the tests' fork probes leave through it).

The tier-1 suite then runs under a second recorder, and an unreached
function it reaches is labelled ``tests``.  Functions kept on purpose
carry the label of :data:`KEPT`; anything else is ``UNLABELED`` and is
a candidate to move, reach or delete.

The recorder slows Python calls down several-fold: on a two-core x86
box the product run takes about 25 minutes and tier-1 another 15, so
this is not a CI step.  ``pytest benchmarks`` and ``--write-baseline`` rewrite
files in ``benchmarks/results/``; every file there is restored after
the run.  The exit status is 1 when any entry point failed; the header
lists each one's, and under it the tests pytest reported as failed.  A
test that fails on an assertion after its last call into the source
still counts in full; one that fails earlier hides what it would have
reached.
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

TESTS: List[List[str]] = [["-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"]]

#: A command still running after this long is stopped and reported.
TIMEOUT_S = 3600

#: Unreached on purpose: (path under the source root, qualified-name
#: prefix) -> why it stays.  The empty prefix covers a whole module.
KEPT: Dict[Tuple[str, str], str] = {
    ("ir/interp.py", ""): "oracle",
    ("mem/exec.py", "MemExecutor._check_"): "debug-mode",
    ("analysis/diagnostics.py", "Severity.__str__"): "debug-mode",
    ("opt/summaries.py", "AccessSet.__str__"): "debug-mode",
    ("pipeline/passes.py", "Pass.__repr__"): "debug-mode",
    ("analysis/bounds.py", "_all_empty"): "safety",
    ("analysis/facts.py", "ScopeWalker.on_stmt"): "safety",
    ("pipeline/passes.py", "Pass.run"): "safety",
    ("isl/terms.py", ""): "item 12",
    ("isl/bridge.py", ""): "item 12",
    ("analysis/races.py", "RaceChecker._composed_disjoint"): "item 12",
}

#: Why functions an earlier count listed as never called stay: the
#: report's header.
NOTES = [
    "shard.scaling_report: called by the shard gate (repro.bench --devices)",
    "analysis.facts.sample_env, analysis.bounds._concrete_check: reached by "
    "examples/pipelines.py",
    "isl.emptiness._splinter, isl.engine.lmad_injective: reached by the product",
    "MemExecutor._check_*: debug-mode safety checks, reached by tests",
    "debug-mode also: the __str__/__repr__ of Severity, AccessSet, Pass",
    "safety: bounds._all_empty (B01's empty-region proof), the base-class "
    "defaults ScopeWalker.on_stmt and Pass.run that every subclass overrides",
    "ir/interp.py: the tests' reference oracle",
    "isl/terms.py, isl/bridge.py, races._composed_disjoint: the verifier's "
    "fallback for composed index functions, waiting for ROADMAP item 12",
]

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


def label(f: Func, by_tests: Set[Tuple[str, int]]) -> str:
    for (path, prefix), why in KEPT.items():
        if f.path == path and f.qualname.startswith(prefix):
            return why
    if (f.path, f.first) in by_tests:
        return "tests"
    return "UNLABELED"


def report(
    funcs: List[Func],
    product: Set[Tuple[str, int]],
    tests: Set[Tuple[str, int]],
    status: List[Tuple[str, int, List[str]]],
) -> str:
    missed = unreached(funcs, product)
    nowhere = [f for f in missed if (f.path, f.first) not in tests]
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
        f"# unreached by the product and tier-1: {len(nowhere)} functions, "
        f"{sum(f.lines for f in nowhere)} lines",
    ]
    lines += ["#", "# kept, and why:"] + [f"#   {n}" for n in NOTES]
    lines += ["#", "# label       lines  function"]
    lines += [
        f"{label(f, tests):<12}{f.lines:6d}  {f.path}:{f.first} {f.qualname}"
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
        print("tier-1:", file=sys.stderr)
        tests, more = record(TESTS, src_root, ROOT, path)
        status += more
    finally:
        for p in RESULTS.iterdir():
            if p.is_file() and p not in saved:
                p.unlink()
        for p, data in saved.items():
            p.write_bytes(data)
    text = report(functions(src_root), product, tests, status)
    (RESULTS / "reach.txt").write_text(text)
    print(text.split("# kept")[0], end="")
    return 1 if any(rc for _, rc, _ in status) else 0


if __name__ == "__main__":
    sys.exit(main())
