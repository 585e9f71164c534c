"""Surface syntax: a line-oriented declaration format for signatures and
rules, with positioned parse errors and a canonical pretty-printer (the
round-trip surface the golden tests pin, and the one printer of the format).

One regular-expression scan turns the whole file into a flat token list,
lines broken where :meth:`str.splitlines` breaks them; the parser walks it
with an integer cursor and works out a position only for a declaration head
or an error.  A parsed file holds the values it declares: the rank of an
``op`` or ``vop`` line, and the core rule of a ``rule`` line.
Before parsing, one pass over the tokens collects the names that a ``vop``
declaration heads, wherever in the file it stands; an application of such a
name is parsed as a list application, and any other as a syntactic one.

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
from typing import Union

from .context import Context, SynRank, VariadicRank
from .core import (
    Conj,
    DecoratedSort,
    Decoration,
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
# Declarations besides ranks (positions excluded from equality for round-trip tests)

class SortDecl(Value):
    name: str
    supersort: str | None = None


# A typing or match annotation is None for the fresh marker `?`.

class VarDecl(Value, uncompared=("pos",)):
    name: str
    ann: DecoratedSort | None
    pos: Pos = Pos(0, 0)


class SvarDecl(Value, uncompared=("pos",)):
    name: str
    ann: DecoratedSort | None
    pos: Pos = Pos(0, 0)


class RuleDecl(Value, uncompared=("pos",)):
    """A parsed rule, its matches conjoined if there are several."""

    rule: Rule
    pos: Pos = Pos(0, 0)


Decl = Union[SortDecl, SynRank, VariadicRank, VarDecl, SvarDecl, RuleDecl]


class SourceFile(Value):
    """A file's declarations, in order."""

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

# One scan of the whole file.  Each match skips blanks and a comment, and
# captures a token: a line break, an identifier, a symbol (longest first), or
# else the rest of the file from an unexpected character on.  A column is
# worked out only when asked, from its source line (_Cursor.pos).
_GAP = r"[^\S\n]*(?://[^\n]*)?"
_TOKEN = (r"(\n|[A-Za-z_][A-Za-z0-9_]*(?:\+|-(?!>))?|"
          + "|".join(map(re.escape, sorted(_SYMBOLS, key=lambda s: (-len(s), s)))) + r"|[\s\S]+)")
_TOKEN_RE = re.compile(_GAP + _TOKEN)
_GAP_TOKEN_RE = re.compile(f"({_GAP}){_TOKEN}")


class _Cursor:
    """An integer cursor over the scanned tokens; every line ends in a
    ``"\\n"`` token, and positions count the skipped text and tokens of
    the source ``lines``.  ``lists`` holds the names declared by a ``vop``
    line anywhere in the file."""

    def __init__(self, lines: list[str], tokens: list[str]):
        self.lines = lines
        self.tokens = tokens
        self.lists = {name for before, tok, name in zip(["\n", *tokens], tokens, tokens[1:])
                      if tok == "vop" and before == "\n"}
        self.i = 0
        self.line = 1
        self.start = 0  # index of the line's first token

    def pos(self, i: int) -> Pos:
        text = self.lines[self.line - 1]
        if i == self.start:  # only blanks come before a line's first token
            return Pos(self.line, 1 + len(text) - len(text.lstrip()))
        pairs = _GAP_TOKEN_RE.findall(text + "\n")[:i - self.start + 1]
        return Pos(self.line, 1 + sum(len(gap) + len(tok) for gap, tok in pairs) - len(pairs[-1][1]))

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

def _parse_type_ann(cur: _Cursor) -> DecoratedSort | None:
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
    return DecoratedSort(Sort(sort), Decoration(deco))


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
        return (ListApp if name in cur.lists else SynApp)(name, tuple(args))
    return Var(name)


def _parse_rule(cur: _Cursor, pos: Pos) -> RuleDecl:
    matches: list[Match] = []
    while True:
        pattern = _parse_term(cur, star_ok=False)
        cur.take("<<")
        cur.take("[")
        ann = _parse_type_ann(cur)
        cur.take("]")
        subject = _parse_term(cur, star_ok=False)
        matches.append(Match(pattern, subject, ann))
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
    return RuleDecl(Rule(matches[0] if len(matches) == 1 else Conj(matches), actions), pos)


def parse(source: str) -> SourceFile:
    """Parse a source file; raises :class:`ParseError` with a position on the
    first defect.  Unknown symbols are not resolved here; that is deferred to
    validation and checking."""
    # Lines break where str.splitlines breaks them; the scan sees only "\n".
    lines = source.splitlines()
    tokens = _TOKEN_RE.findall("\n".join(lines) + "\n")
    end = len(tokens)
    if tokens[-1] != "\n":
        # The scan stopped at an unexpected character: parse the lines before its line.
        end -= 1
        while end and tokens[end - 1] != "\n":
            end -= 1
    cur = _Cursor(lines, tokens)
    decls: list[Decl] = []
    while cur.i < end:
        if cur.peek() == "\n":
            cur.done()
            continue
        start = cur.i
        head = cur.take()
        if head == "sort":
            name = cur.take_ident("a sort name")
            supersort = None
            if cur.peek() == "<:":
                cur.take()
                supersort = cur.take_ident("a sort name")
            decls.append(SortDecl(name, supersort))
        elif head == "op":
            name = cur.take_ident("an operator name")
            cur.take(":")
            domain: list[Sort] = []
            while cur.peek() != "->":
                domain.append(Sort(cur.take_ident("a sort name")))
            cur.take("->")
            codomain = Sort(cur.take_ident("a sort name"))
            decls.append(SynRank.make(name, domain, codomain))
        elif head == "vop":
            name = cur.take_ident("an operator name")
            cur.take(":")
            elem = Sort(cur.take_ident("a sort name"))
            cur.take("*")
            cur.take("->")
            codomain = Sort(cur.take_ident("a sort name"))
            decls.append(VariadicRank.make(name, elem, codomain))
        elif head == "var":
            name = cur.take_ident("a variable name")
            cur.take(":")
            decls.append(VarDecl(name, _parse_type_ann(cur), cur.pos(start)))
        elif head == "svar":
            name = cur.take_ident("a variable name")
            cur.take("*")
            cur.take(":")
            decls.append(SvarDecl(name, _parse_type_ann(cur), cur.pos(start)))
        elif head == "rule":
            pos = cur.pos(start)
            try:
                decls.append(_parse_rule(cur, pos))
            except RecursionError:
                # Terms are parsed recursively, one call per nesting level.
                # Where the stack ran out depends on the interpreter and the
                # caller's depth, so the error points at the rule itself.
                raise ParseError("term nests too deeply to parse", pos) from None
        else:
            raise ParseError(f"unknown declaration {head!r}", cur.pos(start))
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
        elif isinstance(d, SynRank):
            lines.append(f"op {d}")
        elif isinstance(d, VariadicRank):
            lines.append(f"vop {d}")
        elif isinstance(d, VarDecl):
            lines.append(f"var {d.name} : {d.ann or '?'}")
        elif isinstance(d, SvarDecl):
            lines.append(f"svar {d.name}* : {d.ann or '?'}")
        else:
            lines.append(f"rule {d.rule}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Building contexts and rules

def build_context(sf: SourceFile) -> Context:
    """Assemble the declared signature and ground typings into a context;
    well-formedness and unknown-symbol defects are reported by
    :func:`ruletypes.context.validate`, not here."""
    sorts = [Sort(d.name) for d in sf.decls if isinstance(d, SortDecl)]
    edges = [(Sort(d.name), Sort(d.supersort))
             for d in sf.decls if isinstance(d, SortDecl) and d.supersort]
    ranks = [d for d in sf.decls if isinstance(d, (SynRank, VariadicRank))]
    var_types = [(d.name, d.ann) for d in sf.decls if isinstance(d, VarDecl) and d.ann]
    star_types = [(d.name, d.ann) for d in sf.decls if isinstance(d, SvarDecl) and d.ann]
    return Context(sorts, edges, ranks, var_types, star_types)


def resolve_rule(decl: RuleDecl, ctx: Context) -> Rule:
    """``decl.rule``, for the benchmark's workers, which still call this;
    ``ctx`` is not read.  Other code reads ``decl.rule``."""
    return decl.rule


def render_instance(ctx: Context, rule: Rule) -> str:
    """A context and one rule in the file format, printed by :func:`pretty`:
    a ``sort`` line per declared edge (none for an undeclared child) or bare,
    then operators, variadic operators, variable and star typings, all in the
    context's order, then the rule; used for the generated corpus fixtures."""
    return pretty(SourceFile((
        *(SortDecl(str(s), parent) for s in ctx.sorts
          for parent in [str(p) for c, p in ctx.subsort_decls if c == s] or [None]),
        *ctx.syn_ranks.values(),
        *ctx.var_ranks.values(),
        *(VarDecl(name, tt) for name, tt in ctx.var_types.items()),
        *(SvarDecl(name, tt) for name, tt in ctx.star_types.items()),
        RuleDecl(rule))))
