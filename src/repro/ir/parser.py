"""A textual front end for the core language.

Parses the surface syntax that :mod:`repro.ir.pretty` emits -- so programs
can be written as text, pretty-printed IR can be re-read, and the test
suite can assert the round-trip property ``parse . pretty == id`` (up to
the memory/last-use annotations, which the parser deliberately discards:
they are compiler-introduced add-ons, not part of the language).

Grammar sketch (statement-oriented, ANF):

    fun     ::= 'fun' NAME '(' params ')' '=' block
    block   ::= stmt* 'in' '(' names ')'
    stmt    ::= 'let' '(' pat (',' pat)* ')' '=' exp
    pat     ::= NAME ':' type binding?
    binding ::= '@' ...               (a memory annotation; discarded)
    type    ::= '*'? ('[' poly ']')* dtype
    exp     ::= compound | simple
    compound::= 'map' '(' NAME '<' poly ')' '{' block '}'
              | 'loop' '(' NAME binding? '=' NAME (',' ...)* ')'
                    'for' NAME '<' poly 'do' '{' block '}'
              | 'if' operand 'then' '{' block '}' 'else' '{' block '}'
    simple  ::= 'iota' poly | 'scratch' poly* dtype | 'copy' NAME
              | 'concat' NAME+ | 'replicate' poly* operand
              | 'rearrange' '(' INT,* ')' NAME | 'reshape' '[' poly* ']' NAME
              | 'reverse' '@' INT NAME | 'reduce' '(' op ')' NAME
              | 'argmin' NAME
              | NAME '[' indices | triplets | lmad ']'        (reads)
              | NAME 'with' '[' spec ']' '=' operand          (updates)
              | operand (op operand)?                         (scalars)

Scalar expressions are type-directed: an arithmetic expression whose
operands are all ``i64`` parses to a :class:`repro.ir.ast.ScalarE`
polynomial (semantically identical to the chain of BinOps it came from);
anything involving floats parses to a single BinOp/UnOp as printed.

A text that rebinds a name in scope (the IR binds a name once) is renamed
as it is read: the new binder gets a fresh name (``i`` -> ``i_1``) that
the rest of its scope reads.
"""

from __future__ import annotations

import contextlib
import re
from typing import Dict, List, Optional, Tuple

from repro.lmad.lmad import Lmad, LmadDim
from repro.symbolic import SymExpr, sym

from repro.ir import ast as A
from repro.ir.scalar import BINARY, UNARY
from repro.ir.types import ArrayType, DTYPES, ScalarType, Type


class ParseError(Exception):
    """Syntax error with position information."""


_TOKEN_RE = re.compile(
    r"""
      (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<sym>->|<=|>=|==|!=|&&|\|\||//|[-+*/%^<>=(){}\[\],:@])
    """,
    re.VERBOSE,
)

_COMMENT_RE = re.compile(r"--.*$", re.MULTILINE)


class _Lexer:
    def __init__(self, text: str):
        clean = _COMMENT_RE.sub("", text)
        self.tokens: List[Tuple[str, str]] = []
        pos = 0
        while pos < len(clean):
            if clean[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(clean, pos)
            if not m:
                raise ParseError(f"bad character {clean[pos]!r} at {pos}")
            kind = m.lastgroup
            assert kind is not None
            self.tokens.append((kind, m.group()))
            pos = m.end()
        self.i = 0
        #: Every name the text spells (fresh names avoid them all).
        self.names = {tok for kind, tok in self.tokens if kind == "name"}
        #: Name in the text -> the name it reads in the current scope.
        self.rename: Dict[str, str] = {}

    def peek(self, ahead: int = 0) -> Tuple[str, str]:
        j = self.i + ahead
        if j >= len(self.tokens):
            return ("eof", "")
        kind, tok = self.tokens[j]
        return kind, (self.rename.get(tok, tok) if kind == "name" else tok)

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        self.i += 1
        return tok

    def binder(self) -> str:
        """The next token as the text spells it: a name being bound."""
        j, self.i = self.i, self.i + 1
        return self.tokens[j][1] if j < len(self.tokens) else ""

    def expect(self, value: str) -> str:
        kind, tok = self.next()
        if tok != value:
            raise ParseError(f"expected {value!r}, got {tok!r}")
        return tok

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.i += 1
            return True
        return False


class _Parser:
    def __init__(self, text: str):
        self.lx = _Lexer(text)
        #: The names in scope and their types.
        self.types: Dict[str, Type] = {}

    @contextlib.contextmanager
    def _scope(self):
        """A nested block: what it binds and renames ends with it."""
        saved = dict(self.types), dict(self.lx.rename)
        try:
            yield
        finally:
            self.types, self.lx.rename = saved

    def _bind(self, name: str, t: Type) -> str:
        """Bind ``name`` in the current scope; returns the name the IR
        gets -- a fresh one where ``name`` is already in scope."""
        fresh, k = name, 0
        while fresh in self.types or (k and fresh in self.lx.names):
            k += 1
            fresh = f"{name}_{k}"
        if k:
            self.lx.names.add(fresh)
            self.lx.rename[name] = fresh
        self.types[fresh] = t
        return fresh

    # ------------------------------------------------------------------
    def parse_fun(self) -> A.Fun:
        self.lx.expect("fun")
        _, name = self.lx.next()
        self.lx.expect("(")
        params: List[A.Param] = []
        if not self.lx.accept(")"):
            while True:
                pname = self.lx.binder()
                self.lx.expect(":")
                t = self.parse_type()
                params.append(A.Param(pname, t))
                self.types[pname] = t
                if isinstance(t, ArrayType):
                    for s in t.shape:
                        for v in s.free_vars():
                            self.types.setdefault(v, ScalarType("i64"))
                if self.lx.accept(")"):
                    break
                self.lx.expect(",")
        self.lx.expect("=")
        body = self.parse_block(end=None)
        return A.Fun(name, params, body)

    # ------------------------------------------------------------------
    def parse_type(self) -> Type:
        unique = self.lx.accept("*")
        dims: List[SymExpr] = []
        while self.lx.accept("["):
            dims.append(self.parse_poly(stop={"]"}))
            self.lx.expect("]")
        kind, tok = self.lx.next()
        if tok not in DTYPES:
            raise ParseError(f"unknown dtype {tok!r}")
        if dims:
            return ArrayType(tok, tuple(dims), unique)
        return ScalarType(tok)

    # ------------------------------------------------------------------
    def parse_block(self, end: Optional[str] = "}") -> A.Block:
        stmts: List[A.Let] = []
        while True:
            kind, tok = self.lx.peek()
            if tok == "let":
                stmts.append(self.parse_stmt())
            elif tok == "in":
                self.lx.next()
                self.lx.expect("(")
                names: List[str] = []
                if not self.lx.accept(")"):
                    while True:
                        names.append(self.lx.next()[1])
                        if self.lx.accept(")"):
                            break
                        self.lx.expect(",")
                if end is not None:
                    self.lx.expect(end)
                return A.Block(stmts, tuple(names))
            else:
                raise ParseError(f"expected 'let' or 'in', got {tok!r}")

    def parse_stmt(self) -> A.Let:
        self.lx.expect("let")
        self.lx.expect("(")
        spelled: List[Tuple[str, Type]] = []
        while True:
            pname = self.lx.binder()
            self.lx.expect(":")
            t = self.parse_type()
            self._skip_annotation()
            spelled.append((pname, t))
            if self.lx.accept(")"):
                break
            self.lx.expect(",")
        self.lx.expect("=")
        exp = self.parse_exp()  # reads the names bound before this let
        return A.Let([A.PatElem(self._bind(p, t), t) for p, t in spelled], exp)

    def _skip_annotation(self) -> None:
        """Discard a ``@ mem -> ixfn`` memory annotation, if present (it
        ends at the ``,``/``)`` of a pattern or the ``=`` of a loop
        parameter)."""
        if not self.lx.accept("@"):
            return
        depth = 0
        while True:
            kind, tok = self.lx.peek()
            if kind == "eof":
                return
            if depth == 0 and tok in (",", ")", "="):
                return
            if tok in "([{":
                depth += 1
            elif tok in ")]}":
                depth -= 1
            self.lx.next()

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_exp(self) -> A.Exp:
        kind, tok = self.lx.peek()
        if tok == "map":
            return self.parse_map()
        if tok == "loop":
            return self.parse_loop()
        if tok == "if":
            return self.parse_if()
        if tok == "iota":
            self.lx.next()
            return A.Iota(self.parse_poly(stop={"let", "in"}))
        if tok == "scratch":
            self.lx.next()
            return self._parse_scratch()
        if tok == "replicate":
            self.lx.next()
            return self._parse_replicate()
        if tok == "copy":
            self.lx.next()
            return A.Copy(self.lx.next()[1])
        if tok == "concat":
            self.lx.next()
            srcs = []
            while self.lx.peek()[0] == "name" and self.lx.peek()[1] not in (
                "let",
                "in",
            ):
                srcs.append(self.lx.next()[1])
            return A.Concat(tuple(srcs))
        if tok == "rearrange":
            self.lx.next()
            self.lx.expect("(")
            perm = []
            while True:
                perm.append(int(self.lx.next()[1]))
                if self.lx.accept(")"):
                    break
                self.lx.expect(",")
            return A.Rearrange(self.lx.next()[1], tuple(perm))
        if tok == "reshape":
            self.lx.next()
            dims = self._parse_dim_list()
            return A.Reshape(self.lx.next()[1], tuple(dims))
        if tok == "reverse":
            self.lx.next()
            self.lx.expect("@")
            dim = int(self.lx.next()[1])
            return A.Reverse(self.lx.next()[1], dim)
        if tok == "reduce":
            self.lx.next()
            self.lx.expect("(")
            op = self.lx.next()[1]
            self.lx.expect(")")
            return A.Reduce(op, self.lx.next()[1])
        if tok == "argmin":
            self.lx.next()
            return A.ArgMin(self.lx.next()[1])
        if tok == "alloc":
            self.lx.next()
            self.lx.expect("(")
            size = self.parse_poly(stop={"x"})
            self.lx.expect("x")
            dtype = self.lx.next()[1]
            space = "hbm"
            if self.lx.peek()[1] == "@":
                self.lx.next()
                space = self.lx.next()[1]
            self.lx.expect(")")
            return A.Alloc(size, dtype, space)
        if kind == "name" and tok in UNARY and self.lx.peek(1)[1] != "with":
            # Unary op applied to one operand.
            self.lx.next()
            return A.UnOp(tok, self._parse_operand())
        return self.parse_scalar_or_access()

    def _parse_dim_list(self) -> List[SymExpr]:
        self.lx.expect("[")
        dims: List[SymExpr] = []
        if self.lx.accept("]"):
            return dims
        while True:
            dims.append(self.parse_poly(stop={",", "]"}))
            if self.lx.accept("]"):
                return dims
            self.lx.expect(",")

    def _parse_scratch(self) -> A.Exp:
        dims = self._parse_dim_list()
        dtype = self.lx.next()[1]
        if dtype not in DTYPES:
            raise ParseError(f"unknown dtype {dtype!r} in scratch")
        return A.Scratch(dtype, tuple(dims))

    def _parse_replicate(self) -> A.Exp:
        dims = self._parse_dim_list()
        return A.Replicate(tuple(dims), self._parse_operand())

    # ------------------------------------------------------------------
    def parse_map(self) -> A.Map:
        self.lx.expect("map")
        self.lx.expect("(")
        ivar = self.lx.binder()
        self.lx.expect("<")
        width = self.parse_poly(stop={")"})
        self.lx.expect(")")
        self.lx.expect("{")
        with self._scope():
            ivar = self._bind(ivar, ScalarType("i64"))
            body = self.parse_block("}")
        return A.Map(width, A.Lambda((ivar,), body))

    def parse_loop(self) -> A.Loop:
        self.lx.expect("loop")
        self.lx.expect("(")
        carried: List[Tuple[str, str]] = []
        while True:
            pname = self.lx.binder()
            self._skip_annotation()
            self.lx.expect("=")
            _, init = self.lx.next()
            carried.append((pname, init))
            if self.lx.accept(")"):
                break
            self.lx.expect(",")
        self.lx.expect("for")
        ivar = self.lx.binder()
        self.lx.expect("<")
        count = self.parse_poly(stop={"do"})
        self.lx.expect("do")
        self.lx.expect("{")
        with self._scope():
            params = []
            for pname, init in carried:
                t = self.types.get(init, ScalarType("f32"))
                params.append((A.PatElem(self._bind(pname, t), t), init))
            ivar = self._bind(ivar, ScalarType("i64"))
            body = self.parse_block("}")
        return A.Loop(tuple(params), ivar, count, body)

    def parse_if(self) -> A.If:
        self.lx.expect("if")
        cond = self._parse_operand()
        self.lx.expect("then")
        self.lx.expect("{")
        with self._scope():
            then_block = self.parse_block("}")
        self.lx.expect("else")
        self.lx.expect("{")
        with self._scope():
            else_block = self.parse_block("}")
        return A.If(cond, then_block, else_block)

    # ------------------------------------------------------------------
    # Scalars, reads and updates
    # ------------------------------------------------------------------
    def _is_i64(self, op: A.Operand) -> bool:
        if isinstance(op, str):
            t = self.types.get(op)
            return isinstance(t, ScalarType) and t.dtype == "i64"
        if isinstance(op, SymExpr):
            return True
        return isinstance(op, int) and not isinstance(op, bool)

    def _parse_operand(self) -> A.Operand:
        kind, tok = self.lx.peek()
        if kind == "float":
            self.lx.next()
            return float(tok)
        if tok == "-" and self.lx.peek(1)[0] == "float":
            self.lx.next()
            return -float(self.lx.next()[1])
        if tok == "true":
            self.lx.next()
            return True
        if tok == "false":
            self.lx.next()
            return False
        if kind == "int" or tok == "-":
            return self.parse_poly(single_term=False, stop=_STOPWORDS)
        if kind == "name":
            # An i64 variable followed by arithmetic is a polynomial
            # operand (e.g. the `n - 1` in `c == n - 1`).
            t = self.types.get(tok)
            if (
                isinstance(t, ScalarType)
                and t.dtype == "i64"
                and self.lx.peek(1)[1] in ("+", "-", "*", "^")
            ):
                return self.parse_poly(stop=_STOPWORDS)
            self.lx.next()
            return tok
        raise ParseError(f"expected operand, got {tok!r}")

    def parse_scalar_or_access(self) -> A.Exp:
        """Names, literals, indexing, slicing, updates, infix arithmetic."""
        kind, tok = self.lx.peek()

        # Literal with dtype suffix: 2.0f32 lexes as FLOAT NAME;
        # truebool / falsebool lex as one name.
        if kind in ("float", "int") and self.lx.peek(1)[1] in DTYPES:
            self.lx.next()
            dtype = self.lx.next()[1]
            value = float(tok) if "." in tok or "e" in tok else int(tok)
            return A.Lit(value, dtype)
        if tok in ("truebool", "falsebool"):
            self.lx.next()
            return A.Lit(tok == "truebool", "bool")

        # Array access / update: NAME '[' ... or NAME 'with' ...
        if kind == "name" and self.lx.peek(1)[1] == "[":
            return self._parse_access(self.lx.next()[1])
        if kind == "name" and self.lx.peek(1)[1] == "with":
            src = self.lx.next()[1]
            self.lx.expect("with")
            self.lx.expect("[")
            spec = self._parse_spec()
            self.lx.expect("=")
            return A.Update(src, spec, self._parse_operand())

        # Infix scalar expression or plain rebinding.
        left = self._parse_operand()
        op = self.lx.peek()[1]
        if op in BINARY:
            self.lx.next()
            right = self._parse_operand()
            return A.BinOp(op, left, right)
        if op not in ("let", "in"):  # all that may follow a whole statement
            unknown = left if isinstance(left, str) and left not in self.types else op
            raise ParseError(
                f"unknown operator {unknown!r} (binary: {' '.join(sorted(BINARY))}; "
                f"unary: {' '.join(sorted(UNARY))})"
            )
        if isinstance(left, str):
            t = self.types.get(left)
            if isinstance(t, ArrayType):
                return A.VarRef(left)
            if self._is_i64(left):
                return A.ScalarE(SymExpr.var(left))
            return A.VarRef(left)
        if isinstance(left, SymExpr):
            return A.ScalarE(left)
        if isinstance(left, float):
            return A.Lit(left, "f32")
        if isinstance(left, bool):
            return A.Lit(left, "bool")
        return A.ScalarE(sym(left))

    def _parse_access(self, src: str) -> A.Exp:
        self.lx.expect("[")
        spec = self._parse_spec()
        if isinstance(spec, A.PointSpec):
            return A.Index(src, spec.indices)
        if isinstance(spec, A.TripletSpec):
            return A.SliceT(src, spec.triplets)
        return A.LmadSlice(src, spec.lmad)

    def _parse_spec(self) -> A.IndexSpec:
        """Parse the inside of ``[...]`` up to and including the ']'."""
        # Lookahead: an LMAD spec contains '{'; a triplet spec contains ':'
        # before the closing bracket at depth 0.
        depth = 0
        is_lmad = False
        is_triplet = False
        j = 0
        while True:
            kind, tok = self.lx.peek(j)
            if kind == "eof":
                break
            if tok == "[":
                depth += 1
            elif tok == "]":
                if depth == 0:
                    break
                depth -= 1
            elif tok == "{" and depth == 0:
                is_lmad = True
                break
            elif tok == ":" and depth == 0:
                is_triplet = True
                break
            j += 1

        if is_lmad:
            lmad = self._parse_lmad()
            self.lx.expect("]")
            return A.LmadSpec(lmad)
        if is_triplet:
            triplets = []
            while True:
                a = self.parse_poly(stop={":"})
                self.lx.expect(":")
                b = self.parse_poly(stop={":"})
                self.lx.expect(":")
                c = self.parse_poly(stop={",", "]"})
                triplets.append((a, b, c))
                if self.lx.accept("]"):
                    break
                self.lx.expect(",")
            return A.TripletSpec(tuple(triplets))
        indices = []
        while True:
            indices.append(self.parse_poly(stop={",", "]"}))
            if self.lx.accept("]"):
                break
            self.lx.expect(",")
        return A.PointSpec(tuple(indices))

    def _parse_lmad(self) -> Lmad:
        offset = self.parse_poly(stop={"{"})
        self.lx.accept("+")  # the separator of `offset + {(n : s), ...}`
        self.lx.expect("{")
        dims: List[LmadDim] = []
        while True:
            self.lx.expect("(")
            shape = self.parse_poly(stop={":"})
            self.lx.expect(":")
            stride = self.parse_poly(stop={")"})
            self.lx.expect(")")
            dims.append(LmadDim(shape, stride))
            if self.lx.accept("}"):
                break
            self.lx.expect(",")
        return Lmad(offset, tuple(dims))

    # ------------------------------------------------------------------
    # Polynomial expressions (SymExpr)
    # ------------------------------------------------------------------
    def parse_poly(
        self,
        stop: Optional[set] = None,
        single_term: bool = False,
    ) -> SymExpr:
        """Parse ``2*a^2*b - c + 1``-style integer polynomials.

        ``single_term`` parses exactly one additive term (used where terms
        are juxtaposed, e.g. ``scratch n m f32``).
        """
        stop = stop or set()
        total = self._parse_poly_term(stop)
        if single_term:
            return total
        while True:
            kind, tok = self.lx.peek()
            if tok in stop or kind == "eof":
                return total
            # Do not swallow a '+'/'-' whose operand is a stop token, e.g.
            # the '+' of an LMAD's `offset + {(n : s)}`.
            if tok in ("+", "-") and self.lx.peek(1)[1] in stop:
                return total
            if tok == "+":
                self.lx.next()
                total = total + self._parse_poly_term(stop)
            elif tok == "-":
                self.lx.next()
                total = total - self._parse_poly_term(stop)
            else:
                return total

    def _parse_poly_term(self, stop: set) -> SymExpr:
        neg = self.lx.accept("-")
        factor = self._parse_poly_factor()
        while self.lx.peek()[1] == "*":
            self.lx.next()
            factor = factor * self._parse_poly_factor()
        return -factor if neg else factor

    def _parse_poly_factor(self) -> SymExpr:
        kind, tok = self.lx.next()
        if tok == "(":
            inner = self.parse_poly(stop={")"})
            self.lx.expect(")")
            base = inner
        elif kind == "int":
            base = sym(int(tok))
        elif kind == "name":
            base = SymExpr.var(tok)
            self.types.setdefault(tok, ScalarType("i64"))
        else:
            raise ParseError(f"expected polynomial factor, got {tok!r}")
        if self.lx.accept("^"):
            power = int(self.lx.next()[1])
            base = base**power
        return base


_STOPWORDS = {"let", "in", "then", "do", "with"}


def parse_fun(text: str) -> A.Fun:
    """Parse a whole function from the pretty-printed surface syntax."""
    return _Parser(text).parse_fun()

