"""Surface syntax: a line-oriented declaration format for signatures and
rules, with positioned parse errors, a canonical pretty-printer (the
round-trip surface the golden tests pin), and resolution of parsed rules
into core terms against a context.

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
from dataclasses import dataclass, field
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
    TypeTerm,
    Var,
)


@dataclass(frozen=True)
class Pos:
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

@dataclass(frozen=True)
class SortDecl:
    name: str
    supersort: str | None = None
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class OpDecl:
    name: str
    domain: tuple[str, ...]
    codomain: str
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class VopDecl:
    name: str
    elem: str
    codomain: str
    pos: Pos = field(default=Pos(0, 0), compare=False)


# A type annotation: None for a fresh `?`, else (sort, decoration-or-None).
TypeAnn = Union[None, tuple[str, Union[str, None]]]


@dataclass(frozen=True)
class VarDecl:
    name: str
    ann: TypeAnn
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class SvarDecl:
    name: str
    ann: TypeAnn
    pos: Pos = field(default=Pos(0, 0), compare=False)


@dataclass(frozen=True)
class RawApp:
    op: str
    args: tuple["RawTerm", ...]


RawTerm = Union[Var, StarVar, RawApp]


@dataclass(frozen=True)
class RawMatch:
    pattern: RawTerm
    ann: TypeAnn
    subject: RawTerm


@dataclass(frozen=True)
class RuleDecl:
    conds: tuple[RawMatch, ...]
    actions: tuple[RawTerm, ...]
    pos: Pos = field(default=Pos(0, 0), compare=False)


Decl = Union[SortDecl, OpDecl, VopDecl, VarDecl, SvarDecl, RuleDecl]


@dataclass(frozen=True)
class SourceFile:
    decls: tuple[Decl, ...]

    @property
    def rules(self) -> tuple[RuleDecl, ...]:
        return tuple(d for d in self.decls if isinstance(d, RuleDecl))

    @property
    def fresh_marked(self) -> tuple[Decl, ...]:
        """Variable declarations whose typing is the fresh marker ``?``."""
        return tuple(d for d in self.decls
                     if isinstance(d, (VarDecl, SvarDecl)) and d.ann is None)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\+|-(?!>))?)
      | (?P<sym><<|<:|->|/\\|[:()\[\],^*?])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    text: str
    pos: Pos


def _tokenize(line: str, lineno: int) -> list[_Token]:
    cut = line.find("//")
    if cut >= 0:
        line = line[:cut]
    tokens = []
    i = 0
    while i < len(line):
        m = _TOKEN_RE.match(line, i)
        if m is None:
            raise ParseError(f"unexpected character {line[i]!r}", Pos(lineno, i + 1))
        if m.lastgroup != "ws":
            tokens.append(_Token(m.group(), Pos(lineno, i + 1)))
        i = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.i = 0
        self.end_pos = Pos(lineno, line_len + 1)

    def peek(self) -> str | None:
        return self.tokens[self.i].text if self.i < len(self.tokens) else None

    def pos(self) -> Pos:
        return self.tokens[self.i].pos if self.i < len(self.tokens) else self.end_pos

    def take(self, expected: str | None = None) -> _Token:
        if self.i >= len(self.tokens):
            raise ParseError(
                f"unexpected end of line{f', expected {expected!r}' if expected else ''}",
                self.end_pos)
        tok = self.tokens[self.i]
        if expected is not None and tok.text != expected:
            raise ParseError(f"expected {expected!r}, found {tok.text!r}", tok.pos)
        self.i += 1
        return tok

    def take_ident(self, what: str) -> _Token:
        tok = self.take(None)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*[+\-]?", tok.text):
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.pos)
        return tok

    def done(self) -> None:
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)


# ---------------------------------------------------------------------------
# Parser

def _parse_type_ann(cur: _Cursor) -> TypeAnn:
    if cur.peek() == "?":
        cur.take()
        return None
    sort = cur.take_ident("a sort name").text
    if cur.peek() == "^":
        cur.take()
        if cur.peek() == "?":
            cur.take()
            return (sort, None)
        deco = cur.take_ident("a decoration").text
        return (sort, deco)
    return (sort, None)


def _parse_term(cur: _Cursor, star_ok: bool) -> RawTerm:
    tok = cur.take_ident("a term")
    if cur.peek() == "*":
        cur.take()
        if not star_ok:
            raise ParseError(
                f"star variable {tok.text}* may only appear inside a list application", tok.pos)
        return StarVar(tok.text)
    if cur.peek() == "(":
        cur.take()
        args: list[RawTerm] = []
        if cur.peek() != ")":
            args.append(_parse_term(cur, star_ok=True))
            while cur.peek() == ",":
                cur.take()
                args.append(_parse_term(cur, star_ok=True))
        cur.take(")")
        return RawApp(tok.text, tuple(args))
    return Var(tok.text)


def _parse_rule(cur: _Cursor, pos: Pos) -> RuleDecl:
    conds: list[RawMatch] = []
    while True:
        pattern = _parse_term(cur, star_ok=False)
        cur.take("<<")
        cur.take("[")
        ann = _parse_type_ann(cur)
        cur.take("]")
        subject = _parse_term(cur, star_ok=False)
        conds.append(RawMatch(pattern, ann, subject))
        if cur.peek() == "/\\":
            cur.take()
            continue
        break
    cur.take("->")
    cur.take("(")
    actions: list[RawTerm] = []
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
    decls: list[Decl] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(line))
        head = cur.take()
        pos = head.pos
        if head.text == "sort":
            name = cur.take_ident("a sort name").text
            supersort = None
            if cur.peek() == "<:":
                cur.take()
                supersort = cur.take_ident("a sort name").text
            decls.append(SortDecl(name, supersort, pos))
        elif head.text == "op":
            name = cur.take_ident("an operator name").text
            cur.take(":")
            domain: list[str] = []
            while cur.peek() != "->":
                domain.append(cur.take_ident("a sort name").text)
            cur.take("->")
            codomain = cur.take_ident("a sort name").text
            decls.append(OpDecl(name, tuple(domain), codomain, pos))
        elif head.text == "vop":
            name = cur.take_ident("an operator name").text
            cur.take(":")
            elem = cur.take_ident("a sort name").text
            cur.take("*")
            cur.take("->")
            codomain = cur.take_ident("a sort name").text
            decls.append(VopDecl(name, elem, codomain, pos))
        elif head.text == "var":
            name = cur.take_ident("a variable name").text
            cur.take(":")
            decls.append(VarDecl(name, _parse_type_ann(cur), pos))
        elif head.text == "svar":
            name = cur.take_ident("a variable name").text
            cur.take("*")
            cur.take(":")
            decls.append(SvarDecl(name, _parse_type_ann(cur), pos))
        elif head.text == "rule":
            try:
                decls.append(_parse_rule(cur, pos))
            except RecursionError:
                # Terms are parsed recursively, one call per nesting level.
                raise ParseError("term nests too deeply to parse", cur.pos()) from None
        else:
            raise ParseError(f"unknown declaration {head.text!r}", pos)
        cur.done()
    return SourceFile(tuple(decls))


# ---------------------------------------------------------------------------
# Pretty-printing (canonical form; parse . pretty . parse is the identity)

def _ann_str(ann: TypeAnn) -> str:
    if ann is None:
        return "?"
    sort, deco = ann
    return f"{sort}^{deco if deco is not None else '?'}"


def _raw_term_str(t: RawTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, StarVar):
        return f"{t.name}*"
    return f"{t.op}({','.join(_raw_term_str(a) for a in t.args)})"


def pretty(sf: SourceFile) -> str:
    lines = []
    for d in sf.decls:
        if isinstance(d, SortDecl):
            lines.append(f"sort {d.name}" + (f" <: {d.supersort}" if d.supersort else ""))
        elif isinstance(d, OpDecl):
            doms = " ".join(d.domain)
            lines.append(f"op {d.name} : {doms}{' ' if doms else ''}-> {d.codomain}")
        elif isinstance(d, VopDecl):
            lines.append(f"vop {d.name} : {d.elem}* -> {d.codomain}")
        elif isinstance(d, VarDecl):
            lines.append(f"var {d.name} : {_ann_str(d.ann)}")
        elif isinstance(d, SvarDecl):
            lines.append(f"svar {d.name}* : {_ann_str(d.ann)}")
        else:
            conds = " /\\ ".join(
                f"{_raw_term_str(m.pattern)} << [{_ann_str(m.ann)}] {_raw_term_str(m.subject)}"
                for m in d.conds)
            actions = ", ".join(_raw_term_str(a) for a in d.actions)
            lines.append(f"rule {conds} -> ({actions})")
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
    ranks: list[SynRank | VariadicRank] = []
    for d in sf.decls:
        if isinstance(d, OpDecl):
            ranks.append(SynRank.make(d.name, [Sort(s) for s in d.domain], Sort(d.codomain)))
        elif isinstance(d, VopDecl):
            ranks.append(VariadicRank.make(d.name, Sort(d.elem), Sort(d.codomain)))

    def to_type(ann: TypeAnn) -> TypeTerm | None:
        if ann is None:
            return None
        sort, deco = ann
        return GroundType(DecoratedSort(Sort(sort), Decoration(deco)))

    var_types = []
    star_types = []
    for d in sf.decls:
        if isinstance(d, VarDecl):
            tt = to_type(d.ann)
            if tt is not None:
                var_types.append((d.name, tt))
        elif isinstance(d, SvarDecl):
            tt = to_type(d.ann)
            if tt is not None:
                star_types.append((d.name, tt))
    return Context(sorts, edges, ranks, var_types, star_types)


def resolve_term(t: RawTerm, ctx: Context) -> Term:
    """Resolve parsed applications against the context's rank tables; an
    operator with no rank resolves to a syntactic application so the checker
    reports it."""
    if isinstance(t, (Var, StarVar)):
        return t
    args = tuple(resolve_term(a, ctx) for a in t.args)
    if t.op in ctx.var_ranks:
        return ListApp(t.op, args)
    return SynApp(t.op, args)


def resolve_rule(decl: RuleDecl, ctx: Context) -> Rule:
    conds: list[Cond] = []
    for m in decl.conds:
        if m.ann is None:
            at: TypeTerm | None = None
        else:
            sort, deco = m.ann
            at = GroundType(DecoratedSort(Sort(sort), Decoration(deco)))
        conds.append(Match(resolve_term(m.pattern, ctx), resolve_term(m.subject, ctx), at))
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
