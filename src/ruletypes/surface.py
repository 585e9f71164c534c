"""Surface syntax: a line-oriented declaration format for signatures and
rules, with positioned parse errors, a canonical pretty-printer (the
round-trip surface the golden tests pin), and resolution of parsed rules
against a context.

One regular-expression scan turns the whole file into a flat token list,
lines broken where :meth:`str.splitlines` breaks them; the parser walks it
with an integer cursor and works out a position only for a declaration head
or an error.  It yields core values: ranks, ground types, matches and terms.
It cannot tell a variadic operator from a syntactic one, so every
application is parsed as a syntactic one; :func:`resolve_rule` reads the
applications against the context's ranks.

The format, one declaration per line, ``//`` comments::

    sort S            sort S <: T
    op f : S1 S2 -> S op c : -> S
    vop l : S* -> S
    var x : S^g       var x : S      var x : ?
    svar x* : S^l     svar x* : ?
    rule p << [S] s /\\ p2 << [?] s2 -> (e1, e2)
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from .context import Context, SynRank, VariadicRank
from .core import (
    Cond,
    Conj,
    DecoratedSort,
    Decoration,
    GroundType,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    SynApp,
    Term,
    Value,
    Var,
)


class Pos(Value):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ParseError(Exception):
    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.message = message
        self.pos = pos


# ---------------------------------------------------------------------------
# Declarations (positions excluded from equality for round-trip tests)

class SortDecl(Value, uncompared=("pos",)):
    name: str
    supersort: str | None = None
    pos: Pos = Pos(0, 0)


class OpDecl(Value, uncompared=("pos",)):
    rank: SynRank
    pos: Pos = Pos(0, 0)


class VopDecl(Value, uncompared=("pos",)):
    rank: VariadicRank
    pos: Pos = Pos(0, 0)


# A typing or match annotation is None for the fresh marker `?`.

class VarDecl(Value, uncompared=("pos",)):
    name: str
    ann: GroundType | None
    pos: Pos = Pos(0, 0)


class SvarDecl(Value, uncompared=("pos",)):
    name: str
    ann: GroundType | None
    pos: Pos = Pos(0, 0)


class RuleDecl(Value, uncompared=("pos",)):
    """A rule as parsed: every application is still a :class:`SynApp`."""

    conds: tuple[Match, ...]
    actions: tuple[Term, ...]
    pos: Pos = Pos(0, 0)


Decl = Union[SortDecl, OpDecl, VopDecl, VarDecl, SvarDecl, RuleDecl]


class SourceFile(Value):
    decls: tuple[Decl, ...]

    @property
    def rules(self) -> tuple[RuleDecl, ...]:
        return tuple(d for d in self.decls if isinstance(d, RuleDecl))

    @property
    def fresh_marked(self) -> tuple[VarDecl | SvarDecl, ...]:
        """Variable declarations whose typing is the fresh marker ``?``."""
        return tuple(d for d in self.decls
                     if isinstance(d, (VarDecl, SvarDecl)) and d.ann is None)


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = frozenset(["<<", "<:", "->", "/\\", ":", "(", ")", "[", "]", ",", "^", "*", "?"])

# One scan of the whole file.  Each match pairs the blanks and comment skipped
# before a token with the token: a line break, an identifier, a symbol (longest
# first), or else the rest of the file from an unexpected character on.
_TOKEN_RE = re.compile(
    r"([^\S\n]*(?://[^\n]*)?)(\n|[A-Za-z_][A-Za-z0-9_]*(?:\+|-(?!>))?|"
    + "|".join(map(re.escape, sorted(_SYMBOLS, key=lambda s: (-len(s), s)))) + r"|[\s\S]+)")


class _Cursor:
    """An integer cursor over the scanned tokens; every line ends in a
    ``"\\n"`` token, and positions count the skipped text and tokens."""

    def __init__(self, gaps: tuple[str, ...], tokens: tuple[str, ...]):
        self.gaps = gaps
        self.tokens = tokens
        self.i = 0
        self.line = 1
        self.start = 0  # index of the line's first token

    def pos(self, i: int) -> Pos:
        col = (1 + sum(map(len, self.gaps[self.start:i + 1]))
               + sum(map(len, self.tokens[self.start:i])))
        return Pos(self.line, col)

    def peek(self) -> str:
        return self.tokens[self.i]

    def take(self, expected: str | None = None) -> str:
        tok = self.tokens[self.i]
        if tok == "\n":
            raise ParseError(
                f"unexpected end of line{f', expected {expected!r}' if expected else ''}",
                self.pos(self.i))
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", self.pos(self.i))
        self.i += 1
        return tok

    def take_ident(self, what: str) -> str:
        tok = self.take(None)
        if tok in _SYMBOLS:
            raise ParseError(f"expected {what}, found {tok!r}", self.pos(self.i - 1))
        return tok

    def done(self) -> None:
        """Step over the end of the line, which must come next."""
        if self.tokens[self.i] != "\n":
            raise ParseError(f"trailing input {self.tokens[self.i]!r}", self.pos(self.i))
        self.i += 1
        self.line += 1
        self.start = self.i


# ---------------------------------------------------------------------------
# Parser

def _parse_type_ann(cur: _Cursor) -> GroundType | None:
    if cur.peek() == "?":
        cur.take()
        return None
    sort = cur.take_ident("a sort name")
    deco = None
    if cur.peek() == "^":
        cur.take()
        if cur.peek() == "?":
            cur.take()
        else:
            deco = cur.take_ident("a decoration")
    return GroundType(DecoratedSort(Sort(sort), Decoration(deco)))


def _parse_term(cur: _Cursor, star_ok: bool) -> Term:
    name = cur.take_ident("a term")
    if cur.peek() == "*":
        cur.take()
        if not star_ok:
            raise ParseError(
                f"star variable {name}* may only appear inside a list application",
                cur.pos(cur.i - 2))
        return StarVar(name)
    if cur.peek() == "(":
        cur.take()
        args: list[Term] = []
        if cur.peek() != ")":
            args.append(_parse_term(cur, star_ok=True))
            while cur.peek() == ",":
                cur.take()
                args.append(_parse_term(cur, star_ok=True))
        cur.take(")")
        return SynApp(name, tuple(args))
    return Var(name)


def _parse_rule(cur: _Cursor, pos: Pos) -> RuleDecl:
    conds: list[Match] = []
    while True:
        pattern = _parse_term(cur, star_ok=False)
        cur.take("<<")
        cur.take("[")
        ann = _parse_type_ann(cur)
        cur.take("]")
        subject = _parse_term(cur, star_ok=False)
        conds.append(Match(pattern, subject, ann))
        if cur.peek() == "/\\":
            cur.take()
            continue
        break
    cur.take("->")
    cur.take("(")
    actions: list[Term] = []
    if cur.peek() != ")":
        actions.append(_parse_term(cur, star_ok=False))
        while cur.peek() == ",":
            cur.take()
            actions.append(_parse_term(cur, star_ok=False))
    cur.take(")")
    return RuleDecl(tuple(conds), tuple(actions), pos)


def parse(source: str) -> SourceFile:
    """Parse a source file; raises :class:`ParseError` with a position on the
    first defect.  Unknown symbols are not resolved here; that is deferred to
    validation and checking."""
    # Lines break where str.splitlines breaks them; the scan sees only "\n".
    gaps, tokens = zip(*_TOKEN_RE.findall("\n".join(source.splitlines()) + "\n"))
    end = len(tokens)
    if tokens[-1] != "\n":
        # The scan stopped at an unexpected character: parse the lines before its line.
        end -= 1
        while end and tokens[end - 1] != "\n":
            end -= 1
    cur = _Cursor(gaps, tokens)
    decls: list[Decl] = []
    while cur.i < end:
        if cur.peek() == "\n":
            cur.done()
            continue
        pos = cur.pos(cur.i)
        head = cur.take()
        if head == "sort":
            name = cur.take_ident("a sort name")
            supersort = None
            if cur.peek() == "<:":
                cur.take()
                supersort = cur.take_ident("a sort name")
            decls.append(SortDecl(name, supersort, pos))
        elif head == "op":
            name = cur.take_ident("an operator name")
            cur.take(":")
            domain: list[Sort] = []
            while cur.peek() != "->":
                domain.append(Sort(cur.take_ident("a sort name")))
            cur.take("->")
            codomain = Sort(cur.take_ident("a sort name"))
            decls.append(OpDecl(SynRank.make(name, domain, codomain), pos))
        elif head == "vop":
            name = cur.take_ident("an operator name")
            cur.take(":")
            elem = Sort(cur.take_ident("a sort name"))
            cur.take("*")
            cur.take("->")
            codomain = Sort(cur.take_ident("a sort name"))
            decls.append(VopDecl(VariadicRank.make(name, elem, codomain), pos))
        elif head == "var":
            name = cur.take_ident("a variable name")
            cur.take(":")
            decls.append(VarDecl(name, _parse_type_ann(cur), pos))
        elif head == "svar":
            name = cur.take_ident("a variable name")
            cur.take("*")
            cur.take(":")
            decls.append(SvarDecl(name, _parse_type_ann(cur), pos))
        elif head == "rule":
            try:
                decls.append(_parse_rule(cur, pos))
            except RecursionError:
                # Terms are parsed recursively, one call per nesting level.
                # Where the stack ran out depends on the interpreter and the
                # caller's depth, so the error points at the rule itself.
                raise ParseError("term nests too deeply to parse", pos) from None
        else:
            raise ParseError(f"unknown declaration {head!r}", pos)
        cur.done()
    if end < len(tokens):
        raise ParseError(f"unexpected character {tokens[-1][0]!r}", cur.pos(len(tokens) - 1))
    return SourceFile(tuple(decls))


# ---------------------------------------------------------------------------
# Pretty-printing (canonical form; parse . pretty . parse is the identity)

def pretty(sf: SourceFile) -> str:
    lines = []
    for d in sf.decls:
        if isinstance(d, SortDecl):
            lines.append(f"sort {d.name}" + (f" <: {d.supersort}" if d.supersort else ""))
        elif isinstance(d, OpDecl):
            lines.append(f"op {d.rank}")
        elif isinstance(d, VopDecl):
            lines.append(f"vop {d.rank}")
        elif isinstance(d, VarDecl):
            lines.append(f"var {d.name} : {d.ann or '?'}")
        elif isinstance(d, SvarDecl):
            lines.append(f"svar {d.name}* : {d.ann or '?'}")
        else:
            conds = " /\\ ".join(str(m) for m in d.conds)
            lines.append(f"rule {conds} -> ({', '.join(str(a) for a in d.actions)})")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Building contexts and resolving rules

def build_context(sf: SourceFile) -> Context:
    """Assemble the declared signature and ground typings into a context;
    well-formedness and unknown-symbol defects are reported by
    :func:`ruletypes.context.validate`, not here."""
    sorts = [Sort(d.name) for d in sf.decls if isinstance(d, SortDecl)]
    edges = [(Sort(d.name), Sort(d.supersort))
             for d in sf.decls if isinstance(d, SortDecl) and d.supersort]
    ranks = [d.rank for d in sf.decls if isinstance(d, (OpDecl, VopDecl))]
    var_types = [(d.name, d.ann) for d in sf.decls if isinstance(d, VarDecl) and d.ann]
    star_types = [(d.name, d.ann) for d in sf.decls if isinstance(d, SvarDecl) and d.ann]
    return Context(sorts, edges, ranks, var_types, star_types)


def resolve_term(t: Term, ctx: Context) -> Term:
    """Read the parsed applications against the context's rank tables: one
    whose operator has a variadic rank becomes a list application; any other
    stays syntactic, so the checker reports an operator with no rank."""
    if not isinstance(t, SynApp):
        return t
    args = tuple(resolve_term(a, ctx) for a in t.args)
    if t.op in ctx.var_ranks:
        return ListApp(t.op, args)
    return SynApp(t.op, args)


def resolve_rule(decl: RuleDecl, ctx: Context) -> Rule:
    conds: list[Cond] = [Match(resolve_term(m.pattern, ctx), resolve_term(m.subject, ctx), m.at)
                         for m in decl.conds]
    cond: Cond = conds[0] if len(conds) == 1 else Conj(tuple(conds))
    return Rule(cond, tuple(resolve_term(a, ctx) for a in decl.actions))


def render_instance(ctx: Context, rules: Rule | Iterable[Rule]) -> str:
    """Serialize a context and rule(s) back to the file format; used for the
    generated corpus fixtures."""
    parents = {child: parent for child, parent in ctx.subsort_decls}
    lines = []
    for s in ctx.sorts:
        parent = parents.get(s)
        lines.append(f"sort {s}" + (f" <: {parent}" if parent else ""))
    for rank in ctx.syn_ranks.values():
        lines.append(f"op {rank}")
    for rank in ctx.var_ranks.values():
        lines.append(f"vop {rank}")
    for name, tt in ctx.var_types.items():
        lines.append(f"var {name} : {tt}")
    for name, tt in ctx.star_types.items():
        lines.append(f"svar {name}* : {tt}")
    for rule in ([rules] if isinstance(rules, Rule) else rules):
        lines.append(f"rule {rule}")
    return "\n".join(lines) + "\n"
