"""Last-use analysis: the ``b^lu`` annotations of paper section V.

A variable is *lastly used* at a statement when neither it nor any alias of
it can be used on any execution path after that statement.  The analysis is
a backward walk per block:

* block results (and anything live after the block) are live;
* inside ``loop``/``map`` bodies, variables free in the body but defined
  outside are never lastly used there -- the next iteration/thread will use
  them again;
* loop parameters and locally-bound names *can* be lastly used inside the
  body (this is what lets the NW update inside the loop be a circuit point).

Results are stored in-place in each :class:`repro.ir.ast.Let`'s
``last_uses`` field; the returned :class:`LastUseInfo` carries the alias
analysis the walk was based on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.ir import ast as A
from repro.ir.alias import AliasInfo, analyze_aliases


@dataclass
class LastUseInfo:
    """What the analysis computed besides the in-place annotations."""

    aliases: AliasInfo


def analyze_last_uses(fun: A.Fun) -> LastUseInfo:
    """Annotate every statement of ``fun`` with its last-used variables."""
    aliases = analyze_aliases(fun)

    def closure_of(names) -> Set[str]:
        out: Set[str] = set()
        for v in names:
            out |= aliases.closure(v)
        return out

    def walk(block: A.Block, live_after: Set[str]) -> None:
        live = set(live_after) | closure_of(block.result)
        for stmt in reversed(block.stmts):
            uses = A.exp_uses(stmt.exp)
            lu = frozenset(
                v for v in uses if not (aliases.closure(v) & live)
            )
            stmt.last_uses = lu
            if isinstance(stmt.exp, (A.Loop, A.Map)):
                # Free variables of the body are re-used by later
                # iterations/threads, so they stay live inside.  Loop
                # initializers are exempt: they are *consumed* by the loop
                # (uniqueness), so nothing after the loop can read them,
                # and within the body their buffer is reachable only
                # through the (separately tracked) parameter.
                keep = set(uses)
                if isinstance(stmt.exp, A.Loop):
                    keep -= {init for _, init in stmt.exp.carried}
                inner_live = live | closure_of(keep)
                for blk in A.sub_blocks(stmt.exp):
                    walk(blk, inner_live)
            elif isinstance(stmt.exp, A.If):
                for blk in A.sub_blocks(stmt.exp):
                    walk(blk, set(live))
            live |= closure_of(uses)
        # (Definitions do not make names live before their binding.)

    walk(fun.body, set())
    return LastUseInfo(aliases)
