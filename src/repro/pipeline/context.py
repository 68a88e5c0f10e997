"""The shared per-compilation state: :class:`CompileContext`.

One :class:`CompileContext` lives for exactly one :func:`~repro.compiler.
compile_fun` invocation.  It owns

* the source function and the memory-annotated function being grown;
* the **shared prover pool** (:class:`repro.lmad.ProverPool`) and the
  **shared root assumption context**, handed to every pass (short-
  circuiting, fusion, reuse) so Prover/NonOverlapChecker memo tables and
  normalization work amortize across the whole pipeline instead of being
  rebuilt per pass;
* the accumulated pass payloads (``ShortCircuitStats``, ``FuseStats``,
  ``ReuseStats``) and verifier reports.

Passes receive the whole context; the ``opt``/``reuse`` passes also
accept it directly as their ``shared=`` parameter (duck-typed: they only
touch :attr:`provers` and :meth:`root_context`), keeping those modules
importable without :mod:`repro.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.lmad import ProverPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.analysis.diagnostics import Report
    from repro.ir import ast as A
    from repro.symbolic import Context


@dataclass
class CompileContext:
    """Shared state threaded through one pipeline run."""

    #: The (never mutated) source function handed to ``compile_fun``.
    source: "A.Fun"
    #: The memory-annotated function the passes transform in place
    #: (``None`` until memory introduction has run).
    mfun: Optional["A.Fun"] = None
    #: Run the :mod:`repro.analysis` verifier at the declared checkpoints.
    verify: bool = False
    #: Plumbed into every NonOverlapChecker the pipeline creates.
    enable_splitting: bool = True

    #: Shared Prover/NonOverlapChecker memos (see ProverPool).
    provers: ProverPool = field(default_factory=ProverPool)

    #: Pass payloads by pass name (e.g. ``"short_circuit"`` ->
    #: ShortCircuitStats).  A pass that runs multiple times keeps its
    #: latest payload.
    results: Dict[str, object] = field(default_factory=dict)
    #: Verify label -> :class:`repro.analysis.Report`.
    verify_reports: Dict[str, "Report"] = field(default_factory=dict)

    _root_ctx: Optional["Context"] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Shared symbolic state
    # ------------------------------------------------------------------
    def root_context(self) -> "Context":
        """The compilation's shared root assumption context.

        Built once from the function's declared assumptions and shapes,
        so the pooled root prover's memo table survives from
        short-circuiting through fusion into reuse.  The function body's
        scalar equalities (:func:`repro.ir.ast.block_facts` -- true
        everywhere, names being bound once) are defined on this object
        itself, here and on every call, so a pass that asks after an
        earlier one rewrote the body sees the body as it is now; nothing
        else ever mutates it.  Every nested block gets a child of it
        from :func:`repro.ir.ast.scope_context`.
        """
        from repro.ir.ast import add_block_facts

        fun = self.mfun if self.mfun is not None else self.source
        if self._root_ctx is None:
            self._root_ctx = fun.build_context()
        add_block_facts(self._root_ctx, fun.body)
        return self._root_ctx

    # ------------------------------------------------------------------
    # Payload conveniences (typed accessors for the common stats)
    # ------------------------------------------------------------------
    @property
    def sc_stats(self):
        return self.results.get("short_circuit")

    @property
    def fuse_stats(self):
        return self.results.get("fuse")

    @property
    def reuse_stats(self):
        return self.results.get("reuse")
