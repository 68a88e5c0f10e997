"""Command-line verifier: check compiler output for memory-safety.

    python -m repro.analysis nw           # verify one benchmark
    python -m repro.analysis --all        # all seven benchmarks
    python -m repro.analysis --list       # available benchmarks
    python -m repro.analysis prog.py      # a file with a build() -> Fun
    python -m repro.analysis --all --pipeline sc+fuse
                                          # one pipeline preset only

Each program is compiled under the named pipeline presets (default: all
six -- ``unopt``, ``sc``, ``sc+fuse``, ``full``, ``nosc``, ``nofuse``;
see :mod:`repro.pipeline.presets`) and the final IR of every preset is
verified: well-formedness of the memory annotations, index-function
bounds, last-use/ordering consistency, read/write race-freedom, fusion
provenance and frees annotations.  Exit status is nonzero when any
report has errors or warnings.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List

from repro.analysis.verifier import verify_fun
from repro.compiler import compile_fun
from repro.pipeline import PRESETS


def _load_file(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not hasattr(module, "build"):
        raise SystemExit(f"{path} does not define build() -> Fun")
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "programs", nargs="*",
        help="benchmark names and/or .py files defining build()",
    )
    parser.add_argument("--all", action="store_true",
                        help="verify every registered benchmark")
    parser.add_argument("--list", action="store_true",
                        help="list available benchmarks")
    parser.add_argument("--pipeline", action="append", choices=list(PRESETS),
                        metavar="PRESET",
                        help="pipeline preset(s) to verify "
                             f"({', '.join(PRESETS)}; default: all)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also show NOTE-level findings")
    parser.add_argument("--overlap-audit", action="store_true",
                        help="replay every logged disjointness query "
                             "through both prover tiers and fail on any "
                             "disagreement")
    args = parser.parse_args(argv)

    from repro.bench.programs import all_benchmarks

    registry = all_benchmarks()
    if args.list:
        for name in registry:
            print(name)
        return 0

    names: List[str] = list(args.programs)
    if args.all:
        names.extend(n for n in registry if n not in names)
    if not names:
        parser.error("no programs given (try --all or --list)")

    presets: List[str] = args.pipeline or list(PRESETS)

    failed = False
    for name in names:
        if name in registry:
            fun = registry[name].build()
        elif name.endswith(".py"):
            fun = _load_file(Path(name)).build()
        else:
            print(f"unknown benchmark or file: {name}", file=sys.stderr)
            return 2
        for preset in presets:
            if args.overlap_audit:
                from repro.analysis.audit import audit_compilation

                result = audit_compilation(fun, name, preset)
                print(result.render())
                if not result.ok():
                    failed = True
                continue
            compiled = compile_fun(fun, pipeline=preset)
            report = verify_fun(compiled.fun, stage=preset)
            print(report.render(show_notes=args.verbose))
            if not report.ok():
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
