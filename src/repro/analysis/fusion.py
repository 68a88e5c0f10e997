"""Fusion provenance validation (FU rules): cross-checks ``Let.fused``.

Producer-consumer fusion (:mod:`repro.opt.fuse`) deletes an intermediate
array and records what it did in a :class:`repro.ir.ast.FusedRecord` on
the consumer statement.  This checker re-derives the two obligations the
record asserts, from the program alone (it never imports the pass --
the same translation-validation stance as the rest of the package):

* FU01 -- the elided intermediate's memory block must be *gone*: no
  binding (of a pattern element or loop parameter), allocation or
  existential block result may still reference it.  A surviving
  reference means the fusion was not actually total (the round trip it
  claims to have elided still happens) or the dead-allocation sweep was
  skipped.
* FU02 -- the fused kernel's write set must equal the union of the
  original pair's write sets minus the elided intermediate.  Fusion is a
  pure read-path transformation; if the consumer's destinations drifted
  from the recorded ``write_mems`` (minus the elided blocks), either the
  pass rewrote destinations it had no business touching, or a later pass
  re-homed the consumer without rewriting the provenance record
  (:func:`repro.mem.hoist.rewrite_mem_bindings` handles coalescing).
* FU03 -- duplicated producer bodies must be bit-equivalent at every
  site.  Records claiming the same (producer, mem) intermediate form a
  *group*: exactly one record may be primary (``duplicated=False`` -- it
  alone claims the elided write, so two primaries would double-count),
  all records must agree on the intermediate's width / element size /
  rank / recompute cost, and every per-site body hash in the group must
  be identical.  The hashes are alpha-normalized digests of the
  statements the pass *actually spliced* at each read site (computed at
  inline time, not from the record), so agreement certifies the splices
  are copies of one body rather than drifted rewrites.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.diagnostics import Report, Severity
from repro.analysis.facts import stmt_location
from repro.ir import ast as A
from repro.mem.memir import array_bindings, binding_of, iter_stmts


class FusionChecker:
    def __init__(self, fun: A.Fun, report: Report):
        self.fun = fun
        self.report = report
        self.bindings = array_bindings(fun)
        # Every way a memory block can still be live in the program.
        self.referenced: Set[str] = {b.mem for b in self.bindings.values()}
        for stmt in iter_stmts(fun.body):
            if isinstance(stmt.exp, A.Alloc):
                self.referenced.add(stmt.names[0])
            for blk in A.sub_blocks(stmt.exp):
                # Existential memory flows through block results by name.
                self.referenced.update(
                    r for r in blk.result if r not in self.bindings
                )

    # ------------------------------------------------------------------
    def run(self) -> None:
        #: (producer, mem) -> [(record, location)] across the whole fun.
        self.groups: Dict[
            Tuple[str, str], List[Tuple[A.FusedRecord, str]]
        ] = {}
        self._block(self.fun.body, "body")
        self._check_groups()

    def _block(self, block: A.Block, path: str) -> None:
        for i, stmt in enumerate(block.stmts):
            if stmt.fused:
                loc = stmt_location(f"{path}[{i}]", stmt)
                self._check_stmt(stmt, loc)
                for rec in stmt.fused:
                    self.groups.setdefault(
                        (rec.producer, rec.mem), []
                    ).append((rec, loc))
            for k, blk in enumerate(A.sub_blocks(stmt.exp)):
                self._block(blk, f"{path}[{i}].sub[{k}]")

    def _check_groups(self) -> None:
        """FU03: duplication groups are consistent and bit-equivalent."""
        for (producer, mem), entries in self.groups.items():
            self.report.count()
            loc = entries[0][1]
            primaries = [r for r, _ in entries if not r.duplicated]
            if len(primaries) != 1:
                self.report.add(
                    "FU03", Severity.ERROR, loc,
                    f"fused producer {producer!r} ({mem!r}) has "
                    f"{len(primaries)} primary records; duplication "
                    "requires exactly one (the write is elided once)",
                )
                continue
            keys = {
                (str(r.width), r.elem_bytes, r.rank, r.recompute_stmts)
                for r, _ in entries
            }
            if len(keys) != 1:
                self.report.add(
                    "FU03", Severity.ERROR, loc,
                    f"records for fused producer {producer!r} disagree "
                    f"on the intermediate's geometry/cost: {sorted(keys)}",
                )
                continue
            hashes = {h for r, _ in entries for h in r.site_hashes}
            sites = sum(r.reads for r, _ in entries)
            hashed = sum(len(r.site_hashes) for r, _ in entries)
            if sites != hashed or len(hashes) > 1:
                self.report.add(
                    "FU03", Severity.ERROR, loc,
                    f"fused producer {producer!r} bodies are not "
                    f"bit-equivalent at every site: {hashed}/{sites} "
                    f"sites hashed, {len(hashes)} distinct hashes",
                )

    def _check_stmt(self, stmt: A.Let, loc: str) -> None:
        elided = {rec.mem for rec in stmt.fused}
        for rec in stmt.fused:
            self.report.count()
            if rec.mem in self.referenced:
                self.report.add(
                    "FU01", Severity.ERROR, loc,
                    f"fused producer {rec.producer!r} claims block "
                    f"{rec.mem!r} was elided, but it is still referenced",
                )
        expected: Set[str] = set()
        for rec in stmt.fused:
            expected.update(rec.write_mems)
        expected -= elided
        actual = {
            binding_of(pe).mem
            for pe in stmt.pattern
            if pe.is_array() and pe.mem is not None
        }
        self.report.count()
        if expected != actual:
            self.report.add(
                "FU02", Severity.ERROR, loc,
                f"fused kernel writes blocks {sorted(actual)} but its "
                f"records promise {sorted(expected)} (original write "
                f"sets minus elided {sorted(elided)})",
            )


def check_fusion(fun: A.Fun, report: Report) -> None:
    FusionChecker(fun, report).run()
