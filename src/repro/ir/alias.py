"""Alias analysis: which IR names may refer to the same underlying array.

Change-of-layout operations (slices, rearrange, reshape, reverse) alias
their source; ``Update`` results alias the consumed source (same memory);
``if``/``loop`` results alias whatever the branches/body return.  Fresh
constructors (``iota``, ``scratch``, ``copy``, ``concat``, ``replicate``,
``map``) alias nothing.

The short-circuiting pass needs the *closure*: when rebasing a candidate
``bs``, every alias of ``bs`` must receive a translated index function
(paper section V, property 3), and the last-use analysis must treat an
access to any alias as an access to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

from repro.ir import ast as A


@dataclass
class AliasInfo:
    """Symmetric alias relation over variable names."""

    edges: Dict[str, Set[str]] = field(default_factory=dict)

    def add(self, a: str, b: str) -> None:
        self.edges.setdefault(a, set()).add(b)
        self.edges.setdefault(b, set()).add(a)

    def closure(self, name: str) -> FrozenSet[str]:
        """All names transitively aliased with ``name`` (including itself)."""
        seen = {name}
        frontier = [name]
        while frontier:
            cur = frontier.pop()
            for nxt in self.edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)


_LAYOUT_OPS = (A.SliceT, A.LmadSlice, A.Rearrange, A.Reshape, A.Reverse)


def analyze_aliases(fun: A.Fun) -> AliasInfo:
    """Compute the alias relation for a whole function."""
    info = AliasInfo()

    def walk(block: A.Block) -> None:
        for stmt in block.stmts:
            exp = stmt.exp
            if isinstance(exp, A.VarRef):
                info.add(stmt.names[0], exp.name)
            elif isinstance(exp, _LAYOUT_OPS):
                info.add(stmt.names[0], exp.src)
            elif isinstance(exp, A.Update):
                # The update result occupies the memory of the consumed src.
                info.add(stmt.names[0], exp.src)
            elif isinstance(exp, A.If):
                walk(exp.then_block)
                walk(exp.else_block)
                for name, tres, eres in zip(
                    stmt.names, exp.then_block.result, exp.else_block.result
                ):
                    info.add(name, tres)
                    info.add(name, eres)
            elif isinstance(exp, A.Loop):
                walk(exp.body)
                for (p, init), name, bres in zip(
                    exp.carried, stmt.names, exp.body.result
                ):
                    info.add(p.name, init)
                    info.add(name, bres)
                    # Note: no param <-> body-result edge.  The buffer a
                    # body result passes to the next iteration's parameter
                    # is already kept live by block-result liveness, and
                    # the extra edge would merge every iteration's values
                    # into one alias class, destroying last-use precision
                    # (e.g. the NN benchmark's dead-copy reuse).
            elif isinstance(exp, A.Map):
                walk(exp.lam.body)
                # Map results are fresh; body-internal aliases were recorded.
        # Block results carry no new aliasing by themselves.

    walk(fun.body)
    return info
