"""Surface syntax: a line-oriented declaration format for signatures and
rules, with positioned parse errors and a canonical pretty-printer (the
round-trip surface the golden tests pin, and the one printer of the format).

One regular-expression scan turns the whole file into a flat token list,
lines broken where :meth:`str.splitlines` breaks them.  The parser walks it
by a local index, comparing each token in place, and works out a message and
a position only for an error or a declaration that stores its position.  A
parsed file holds the values it declares: the rank of an ``op`` or ``vop``
line, and the core rule of a ``rule`` line.  Before parsing, a search of the
tokens for ``vop`` collects the names that a ``vop`` declaration heads,
wherever in the file it stands; an application of such a name is parsed as
a list application, and any other as a syntactic one.

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
from functools import cached_property
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
    interned,
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

    @cached_property  # computed on first read; ==, hash, copy and pickle follow ``decls`` alone
    def rules(self) -> tuple[RuleDecl, ...]:
        return tuple(d for d in self.decls if isinstance(d, RuleDecl))

    @cached_property
    def fresh_marked(self) -> tuple[VarDecl | SvarDecl, ...]:
        """Variable declarations whose typing is the fresh marker ``?``."""
        return tuple(d for d in self.decls
                     if isinstance(d, (VarDecl, SvarDecl)) and d.ann is None)


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = frozenset(["<<", "<:", "->", "/\\", ":", "(", ")", "[", "]", ",", "^", "*", "?"])
_NOT_NAME = _SYMBOLS | {"\n"}  # the tokens that cannot stand for a name

# One scan of the whole file.  Each match skips blanks and a comment, and
# captures a token: a line break, an identifier, a symbol (longest first), or
# else the rest of the file from an unexpected character on.  A column is
# worked out only when asked, from its source line (_pos).
_GAP = r"[^\S\n]*(?://[^\n]*)?"
_TOKEN = (r"(\n|[A-Za-z_][A-Za-z0-9_]*(?:\+|-(?!>))?|"
          + "|".join(map(re.escape, sorted(_SYMBOLS, key=lambda s: (-len(s), s)))) + r"|[\s\S]+)")
_TOKEN_RE = re.compile(_GAP + _TOKEN)

_sorts, _decorations, _decorated = interned(Sort), interned(Decoration), interned(DecoratedSort)
_new, _set = object.__new__, object.__setattr__


class _Stop(Exception):
    """Where the walk stopped, as a token index, and why; :func:`parse` positions it."""


def _unexpected(tokens: list[str], i: int, expected: str) -> _Stop:
    """The stop at token ``i``, where ``expected``, a symbol or a kind of name, should stand."""
    tok = tokens[i]
    if tok == "\n":
        return _Stop(i, "unexpected end of line" + (f", expected {expected!r}" if expected in _SYMBOLS else ""))
    return _Stop(i, f"expected {repr(expected) if expected in _SYMBOLS else expected}, found {tok!r}")


def _pos(lines: list[str], line: int, start: int, i: int) -> Pos:
    """The position of token ``i`` on line ``line``, whose first token is ``start``."""
    text = lines[line - 1]
    if i == start:  # only blanks come before a line's first token
        return Pos(line, 1 + len(text) - len(text.lstrip()))
    return Pos(line, 1 + [*_TOKEN_RE.finditer(text + "\n")][i - start].start(1))


# ---------------------------------------------------------------------------
# Parser.  Each function takes the token list and the index of its first
# token, and returns what it read with the index after it.  Every line ends
# in a "\n" token, and a token is read only once the one before it is known
# not to be that end, so the walk never runs past a line.

def _type_ann(tokens: list[str], i: int) -> tuple[DecoratedSort | None, int]:
    name = tokens[i]
    if name == "?":
        return None, i + 1
    if name in _NOT_NAME:
        raise _unexpected(tokens, i, "a sort name")
    deco = None
    if tokens[i + 1] == "^":
        i += 2
        if (deco := tokens[i]) == "?":
            deco = None
        elif deco in _NOT_NAME:
            raise _unexpected(tokens, i, "a decoration")
    return _decorated[_sorts[(name,)], _decorations[(deco,)]], i + 1


def _term(tokens: list[str], i: int, lists: set[str], star_ok: bool) -> tuple[Term, int]:
    # One call per nesting level: the arguments are read here, not by a helper.
    name = tokens[i]
    if name in _NOT_NAME:
        raise _unexpected(tokens, i, "a term")
    after = tokens[i + 1]
    if after == "*":
        if not star_ok:
            raise _Stop(i, f"star variable {name}* may only appear inside a list application")
        return StarVar(name), i + 2
    if after != "(":
        _set(e := _new(Var), "name", name)  # a value's fields, without its constructor's frame
        return e, i + 1
    args: list[Term] = []
    i += 2
    if tokens[i] != ")":
        while True:
            arg, i = _term(tokens, i, lists, True)
            args.append(arg)
            if tokens[i] != ",":
                break
            i += 1
        if tokens[i] != ")":
            raise _unexpected(tokens, i, ")")
    _set(e := _new(ListApp if name in lists else SynApp), "op", name)
    _set(e, "args", tuple(args))
    return e, i + 1


def _rule(tokens: list[str], i: int, lists: set[str]) -> tuple[Rule, int]:
    matches: list[Match] = []
    while True:
        pattern, i = _term(tokens, i, lists, False)
        if tokens[i] != "<<":
            raise _unexpected(tokens, i, "<<")
        if tokens[i + 1] != "[":
            raise _unexpected(tokens, i + 1, "[")
        ann, i = _type_ann(tokens, i + 2)
        if tokens[i] != "]":
            raise _unexpected(tokens, i, "]")
        subject, i = _term(tokens, i + 1, lists, False)
        matches.append(Match(pattern, subject, ann))
        if tokens[i] != "/\\":
            break
        i += 1
    if tokens[i] != "->":
        raise _unexpected(tokens, i, "->")
    if tokens[i + 1] != "(":
        raise _unexpected(tokens, i + 1, "(")
    actions: list[Term] = []
    i += 2
    if tokens[i] != ")":
        while True:
            action, i = _term(tokens, i, lists, False)
            actions.append(action)
            if tokens[i] != ",":
                break
            i += 1
        if tokens[i] != ")":
            raise _unexpected(tokens, i, ")")
    return Rule(matches[0] if len(matches) == 1 else Conj(matches), tuple(actions)), i + 1


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
    # The names that heads of `vop` lines declare, anywhere in the file.
    lists, k = set(), -1
    for _ in range(tokens.count("vop")):
        if (k := tokens.index("vop", k + 1)) == 0 or tokens[k - 1] == "\n":
            lists.add(tokens[k + 1])
    decls: list[Decl] = []
    i = start = 0  # the index of the token read next, and of its line's first token
    line = 1
    try:
        while i < end:
            head = tokens[i]
            if head == "sort":
                if (name := tokens[i + 1]) in _NOT_NAME:
                    raise _unexpected(tokens, i + 1, "a sort name")
                supersort = None
                i += 2
                if tokens[i] == "<:":
                    if (supersort := tokens[i + 1]) in _NOT_NAME:
                        raise _unexpected(tokens, i + 1, "a sort name")
                    i += 2
                decls.append(SortDecl(name, supersort))
            elif head == "op" or head == "vop":
                if (name := tokens[i + 1]) in _NOT_NAME:
                    raise _unexpected(tokens, i + 1, "an operator name")
                if tokens[i + 2] != ":":
                    raise _unexpected(tokens, i + 2, ":")
                i += 3
                domain: list[Sort] = []  # of a `vop`, its element sort, then a "*"
                while tokens[i] != "->" or head == "vop" and not domain:
                    if (sort := tokens[i]) in _NOT_NAME:
                        raise _unexpected(tokens, i, "a sort name")
                    domain.append(_sorts[(sort,)])
                    i += 1
                    if head == "vop":
                        if tokens[i] != "*":
                            raise _unexpected(tokens, i, "*")
                        i += 1
                        break
                if tokens[i] != "->":
                    raise _unexpected(tokens, i, "->")
                if (sort := tokens[i + 1]) in _NOT_NAME:
                    raise _unexpected(tokens, i + 1, "a sort name")
                i += 2
                decls.append(SynRank.make(name, domain, _sorts[(sort,)]) if head == "op"
                             else VariadicRank.make(name, domain[0], _sorts[(sort,)]))
            elif head == "var" or head == "svar":
                if (name := tokens[i + 1]) in _NOT_NAME:
                    raise _unexpected(tokens, i + 1, "a variable name")
                i += 2
                if head == "svar":
                    if tokens[i] != "*":
                        raise _unexpected(tokens, i, "*")
                    i += 1
                if tokens[i] != ":":
                    raise _unexpected(tokens, i, ":")
                ann, i = _type_ann(tokens, i + 1)
                decls.append((VarDecl if head == "var" else SvarDecl)(name, ann, _pos(lines, line, start, start)))
            elif head == "rule":
                pos = _pos(lines, line, start, start)
                try:
                    rule, i = _rule(tokens, i + 1, lists)
                except RecursionError:
                    # Terms are parsed recursively, one call per nesting level.
                    # Where the stack ran out depends on the interpreter and the
                    # caller's depth, so the error points at the rule itself.
                    raise ParseError("term nests too deeply to parse", pos) from None
                decls.append(RuleDecl(rule, pos))
            elif head != "\n":
                raise _Stop(i, f"unknown declaration {head!r}")
            if tokens[i] != "\n":
                raise _Stop(i, f"trailing input {tokens[i]!r}")
            i += 1
            line += 1
            start = i
    except _Stop as stop:
        raise ParseError(stop.args[1], _pos(lines, line, start, stop.args[0])) from None
    if end < len(tokens):
        raise ParseError(f"unexpected character {tokens[-1][0]!r}", _pos(lines, line, start, len(tokens) - 1))
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
    sorts = [_sorts[(d.name,)] for d in sf.decls if isinstance(d, SortDecl)]
    edges = [(_sorts[(d.name,)], _sorts[(d.supersort,)])
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
