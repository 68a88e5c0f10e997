"""Pretty-printer for IR programs (with optional memory annotations).

The output mimics the paper's notation:

    let (X : [q][b][b]f32 @ mem_1 -> i*b+n+1 + {(i+1 : n*b-b), ...}) =
      map (j < q) { ... }

Every annotation the compiler adds is printed, so two programs that print
alike *are* alike: binders (pattern elements and loop parameters) carry
``@ mem -> ixfn``, and a statement's
``last_uses`` / ``mem_frees`` / ``fused`` records trail it as ``--``
comments.  :mod:`repro.ir.parser` discards all of them.
"""

from __future__ import annotations

from dataclasses import fields
from typing import List

from repro.ir import ast as A


def pretty_fun(fun: A.Fun) -> str:
    lines: List[str] = []
    params = ", ".join(f"{p.name} : {p.type}" for p in fun.params)
    lines.append(f"fun {fun.name}({params}) =")
    _pretty_block(fun.body, lines, indent=1)
    return "\n".join(lines)


def _pretty_block(block: A.Block, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    for stmt in block.stmts:
        pat = ", ".join(str(pe) for pe in stmt.pattern)
        lu = ""
        if stmt.last_uses:
            lu += "  -- last use: " + ", ".join(sorted(stmt.last_uses))
        if stmt.mem_frees:
            lu += "  -- frees: " + ", ".join(stmt.mem_frees)
        if stmt.fused:
            lu += "  -- fused: " + "; ".join(map(_fused_str, stmt.fused))
        head = f"{pad}let ({pat}) ="
        exp = stmt.exp
        if isinstance(exp, (A.Map, A.Loop, A.If)):
            lines.append(head + lu)
            _pretty_compound(exp, lines, indent + 1)
        else:
            lines.append(f"{head} {_pretty_exp(exp)}{lu}")
    lines.append(f"{pad}in ({', '.join(block.result)})")


def _pretty_compound(exp: A.Exp, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(exp, A.Map):
        lines.append(f"{pad}map ({exp.lam.params[0]} < {exp.width}) {{")
        _pretty_block(exp.lam.body, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(exp, A.Loop):
        carried = ", ".join(
            f"{p.name} = {init}" if p.mem is None
            else f"{p.name} @ {p.mem} = {init}"
            for p, init in exp.carried
        )
        lines.append(f"{pad}loop ({carried}) for {exp.index} < {exp.count} do {{")
        _pretty_block(exp.body, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(exp, A.If):
        lines.append(f"{pad}if {_operand_str(exp.cond)} then {{")
        _pretty_block(exp.then_block, lines, indent + 1)
        lines.append(f"{pad}}} else {{")
        _pretty_block(exp.else_block, lines, indent + 1)
        lines.append(f"{pad}}}")


def _fused_str(rec: A.FusedRecord) -> str:
    """Every field of a fusion record, ``name=value`` (tuples as ``a|b``)."""
    vals = ((f.name, getattr(rec, f.name)) for f in fields(rec))
    return " ".join(
        f"{k}={'|'.join(v) if isinstance(v, tuple) else v}" for k, v in vals
    )


def _operand_str(op: A.Operand) -> str:
    return str(op)


def _triplets_str(triplets) -> str:
    return ", ".join(f"{a}:{b}:{c}" for a, b, c in triplets)


def _pretty_exp(exp: A.Exp) -> str:
    if isinstance(exp, A.VarRef):
        return exp.name
    if isinstance(exp, A.Lit):
        if exp.dtype == "bool":
            return f"{'true' if exp.value else 'false'}{exp.dtype}"
        return f"{exp.value}{exp.dtype}"
    if isinstance(exp, A.ScalarE):
        return str(exp.expr)
    if isinstance(exp, A.BinOp):
        return f"{_operand_str(exp.x)} {exp.op} {_operand_str(exp.y)}"
    if isinstance(exp, A.UnOp):
        return f"{exp.op} {_operand_str(exp.x)}"
    if isinstance(exp, A.Iota):
        return f"iota {exp.n}"
    if isinstance(exp, A.Scratch):
        dims = ", ".join(str(s) for s in exp.shape)
        return f"scratch [{dims}] {exp.dtype}"
    if isinstance(exp, A.Replicate):
        dims = ", ".join(str(s) for s in exp.shape)
        return f"replicate [{dims}] {_operand_str(exp.value)}"
    if isinstance(exp, A.Copy):
        return f"copy {exp.src}"
    if isinstance(exp, A.Concat):
        return "concat " + " ".join(exp.srcs)
    if isinstance(exp, A.Index):
        return f"{exp.src}[{', '.join(str(i) for i in exp.indices)}]"
    if isinstance(exp, A.SliceT):
        return f"{exp.src}[{_triplets_str(exp.triplets)}]"
    if isinstance(exp, A.LmadSlice):
        return f"{exp.src}[{exp.lmad}]"
    if isinstance(exp, A.Rearrange):
        return f"rearrange {exp.perm} {exp.src}"
    if isinstance(exp, A.Reshape):
        dims = ", ".join(str(s) for s in exp.shape)
        return f"reshape [{dims}] {exp.src}"
    if isinstance(exp, A.Reverse):
        return f"reverse@{exp.dim} {exp.src}"
    if isinstance(exp, A.Update):
        if isinstance(exp.spec, A.PointSpec):
            w = ", ".join(str(i) for i in exp.spec.indices)
        elif isinstance(exp.spec, A.TripletSpec):
            w = _triplets_str(exp.spec.triplets)
        else:
            w = str(exp.spec.lmad)
        return f"{exp.src} with [{w}] = {_operand_str(exp.value)}"
    if isinstance(exp, A.Reduce):
        return f"reduce ({exp.op}) {exp.src}"
    if isinstance(exp, A.ArgMin):
        return f"argmin {exp.src}"
    if isinstance(exp, A.Alloc):
        return f"alloc ({exp.size} x {exp.dtype})"
    return f"<{type(exp).__name__}>"
