"""Typing contexts: subsort declarations, operator ranks, and variable
typings, with the decorated-subtype and sort-lookup queries that the
checking, inference, and resolution rules key on.

Contexts are immutable after construction and hold only their declarations;
order queries walk the first-declared parents, so a validated context can be
shared across threads.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

from .core import (
    ANY,
    DecoratedSort,
    Decoration,
    ListApp,
    Rule,
    Sort,
    StarVar,
    SynApp,
    Term,
    TypeTerm,
    Value,
    Var,
    interned,
)

_decorated, _decorations = interned(DecoratedSort), interned(Decoration)


class SynRank(Value):
    """Rank of a syntactic operator: domain sorts (don't-care decorated) and
    a codomain decorated with the operator itself.  Direct construction
    checks the decorations; ``make`` chooses them."""

    op: str
    domain: tuple[DecoratedSort, ...]
    codomain: DecoratedSort

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.codomain.deco != Decoration(self.op):
            raise ValueError(f"codomain of {self.op} must be decorated with {self.op}")
        if any(not d.deco.is_any for d in self.domain):
            raise ValueError(f"domain sorts of {self.op} must carry the ? decoration")

    @classmethod
    def make(cls, op: str, domain_sorts: Iterable[Sort], codomain_sort: Sort) -> "SynRank":
        return cls._unchecked(op, tuple([_decorated[s, ANY] for s in domain_sorts]),
                              _decorated[codomain_sort, _decorations[(op,)]])

    def __str__(self) -> str:
        doms = " ".join(str(d.sort) for d in self.domain)
        return f"{self.op} : {doms}{' ' if doms else ''}-> {self.codomain.sort}"


class VariadicRank(Value):
    """Rank of a variadic operator: one element sort and a codomain decorated
    with the operator itself.  Direct construction checks the decorations;
    ``make`` chooses them."""

    op: str
    elem: DecoratedSort
    codomain: DecoratedSort

    def __post_init__(self) -> None:
        if self.codomain.deco != Decoration(self.op):
            raise ValueError(f"codomain of {self.op} must be decorated with {self.op}")
        if not self.elem.deco.is_any:
            raise ValueError(f"element sort of {self.op} must carry the ? decoration")

    @classmethod
    def make(cls, op: str, elem_sort: Sort, codomain_sort: Sort) -> "VariadicRank":
        return cls._unchecked(op, _decorated[elem_sort, ANY], _decorated[codomain_sort, _decorations[(op,)]])

    def __str__(self) -> str:
        return f"{self.op} : {self.elem.sort}* -> {self.codomain.sort}"


Rank = Union[SynRank, VariadicRank]


class ErrKind(enum.Enum):
    NO_RANK = "NoRank"
    ARITY_MISMATCH = "ArityMismatch"
    NOT_SUBTYPE = "NotSubtype"
    UNDECLARED_VARIABLE = "UndeclaredVariable"
    STAR_OUTSIDE_LIST = "StarOutsideList"
    EXPECTED_LIST_TYPE = "ExpectedListType"
    TOO_DEEP = "TooDeep"

    def __str__(self) -> str:
        return self.value


class RuleError(Exception):
    """A rule or term that gets no verdict: the kind of defect, the path of
    the offending subterm, and a detail.  Checking, inference and the CLI
    all raise it.  The path is relative to the node that raised it until a
    walk prefixes it: each level adds its own step (:meth:`prefix`, or
    :func:`within`) as the error unwinds, so an accepted rule spells no path."""

    def __init__(self, kind: ErrKind, path: str, detail: str):
        super().__init__(kind, path, detail)
        self.kind = kind
        self.path = path
        self.detail = detail

    def prefix(self, step: str) -> RuleError:
        """This error with ``step`` (``.arg[0]``, ``cond``, …) prefixed to its path."""
        self.path = step + self.path
        self.args = (self.kind, self.path, self.detail)  # as repr and pickle read it
        return self

    def __str__(self) -> str:
        return f"{self.kind} at {self.path}: {self.detail}"


def within(step: str | tuple[str, int], walk: Callable[..., Any], *args) -> Any:
    """``walk(*args)``, with ``step`` prefixed to the path of the RuleError it
    raises; a step ``(template, i)`` is formatted only then."""
    try:
        return walk(*args)
    except RuleError as exc:
        raise exc.prefix(step if step.__class__ is str else step[0] % step[1])


# The list rules' step for one argument of a variadic application.
STAR = "Star"    # a star variable, spliced in at the list type
MERGE = "Merge"  # an argument declared at the operator's own list type
ELEM = "Elem"    # any other argument, one element of the element sort


class Violation(Value):
    """One well-formedness defect, named after the offending declaration."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class Context:
    """The typing context: sorts, declared subsort edges, ranks, and
    variable/star-variable typings.

    Duplicate declarations are kept first-wins but recorded so that
    :func:`validate` can report them.
    """

    def __init__(
        self,
        sorts: Iterable[Sort] = (),
        subsorts: Iterable[tuple[Sort, Sort]] = (),
        ranks: Iterable[Rank] = (),
        var_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
        star_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
    ):
        self._sorts: tuple[Sort, ...] = tuple(dict.fromkeys(sorts))
        self._subsorts: tuple[tuple[Sort, Sort], ...] = tuple(dict.fromkeys(subsorts))
        self._construction_violations: list[Violation] = []

        self._syn_ranks: dict[str, SynRank] = {}
        self._var_ranks: dict[str, VariadicRank] = {}
        for rank in ranks:
            if rank.op in self._syn_ranks or rank.op in self._var_ranks:
                self._construction_violations.append(
                    Violation("overloading", f"operator {rank.op} declared more than once")
                )
                continue
            if isinstance(rank, SynRank):
                self._syn_ranks[rank.op] = rank
            else:
                self._var_ranks[rank.op] = rank

        self._set_typings(var_types, star_types)

        # The first-declared supersort of each sort that declares one; single
        # inheritance means there is no other (validate reports the rest).
        self._parent: dict[Sort, Sort] = {}
        for child, parent in self._subsorts:
            self._parent.setdefault(child, parent)

    def _set_typings(self, *typings: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm]) -> None:
        # var_types, then star_types; the first typing of a name wins.
        self._var_types: dict[str, TypeTerm] = {}
        self._star_types: dict[str, TypeTerm] = {}
        for table, pairs, what in zip((self._var_types, self._star_types), typings,
                                      ("variable {}", "star variable {}*")):
            for name, tt in pairs.items() if isinstance(pairs, (dict, MappingProxyType)) else pairs:
                if name in table:
                    self._construction_violations.append(
                        Violation("duplicate-typing", f"{what.format(name)} typed more than once"))
                else:
                    table[name] = tt

    # -- construction views -------------------------------------------------

    @property
    def sorts(self) -> tuple[Sort, ...]:
        return self._sorts

    @property
    def subsort_decls(self) -> tuple[tuple[Sort, Sort], ...]:
        return self._subsorts

    @property
    def syn_ranks(self) -> Mapping[str, SynRank]:
        return MappingProxyType(self._syn_ranks)

    @property
    def var_ranks(self) -> Mapping[str, VariadicRank]:
        return MappingProxyType(self._var_ranks)

    @property
    def var_types(self) -> Mapping[str, TypeTerm]:
        return MappingProxyType(self._var_types)

    @property
    def star_types(self) -> Mapping[str, TypeTerm]:
        return MappingProxyType(self._star_types)

    # -- queries ------------------------------------------------------------

    def sort_leq(self, s1: Sort, s2: Sort) -> bool:
        """Reflexive-transitive closure of the declared subsort edges: ``s2`` is
        on ``supersort_chain(s1)``, walked in at most one step per parent edge."""
        parent, steps = self._parent, len(self._parent)
        while s1 is not s2:
            if not steps or (s1 := parent.get(s1)) is None:
                return False
            steps -= 1
        return True

    def subtype_holds(self, a: DecoratedSort, b: DecoratedSort) -> bool:
        """The decorated order: sorts related by the closure and decorations
        equal, unless the target decoration is the don't-care one."""
        return (a.deco is b.deco or b.deco is ANY) and self.sort_leq(a.sort, b.sort)

    def supersort_chain(self, s: Sort) -> tuple[Sort, ...]:
        """``s`` and its ancestors: the walk from ``s`` along first-declared
        parents up to a root, or up to the first sort that repeats, so the
        queries stay total on a cyclic (ill-formed) context."""
        chain = {s: None}
        while (s := self._parent.get(s)) is not None and s not in chain:
            chain[s] = None
        return tuple(chain)

    def common_supersort(self, a: DecoratedSort, b: DecoratedSort) -> DecoratedSort | None:
        """The least sort above both, don't-care decorated; ``None`` when the
        hierarchies are disjoint.  Least is unique under single inheritance."""
        above_b = set(self.supersort_chain(b.sort))
        for s in self.supersort_chain(a.sort):
            if s in above_b:
                return DecoratedSort(s)
        return None

    def sortof(self, e: Term) -> DecoratedSort | None:
        """The declared decorated sort of a term, or ``None`` when the term
        has no ground typing (undeclared, or typed by a type variable)."""
        tt = self.raw_typing(e)
        return tt if isinstance(tt, DecoratedSort) else None

    def raw_typing(self, e: Term) -> TypeTerm | None:
        """The declared type term of a term's head: the full typing for
        variables (ground or type variable), the rank codomain for
        applications."""
        cls = e.__class__
        if cls is Var:
            return self._var_types.get(e.name)
        if cls is StarVar:
            return self._star_types.get(e.name)
        rank = self._syn_ranks.get(e.op) if cls is SynApp else self._var_ranks.get(e.op) if cls is ListApp else None
        return rank.codomain if rank else None

    def with_typings(
        self,
        var_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
        star_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
    ) -> "Context":
        """The same sorts, subsort declarations and ranks with other
        variable and star-variable typings."""
        ctx = object.__new__(self.__class__)
        ctx.__dict__.update(self.__dict__)
        ctx._construction_violations = []  # the ranks' were reported for self
        ctx._set_typings(var_types, star_types)
        return ctx

    def declared_typing(self, e: Term, star_ok: bool = False) -> TypeTerm:
        """The declared type term of ``e``'s head (see :meth:`raw_typing`),
        or the diagnosis, at ``e``, of why it has none.

        A star variable stands for a list segment, so outside a list
        (``star_ok`` false) it is ``STAR_OUTSIDE_LIST`` before its typing is
        looked up; a head with no typing is ``UNDECLARED_VARIABLE``.
        """
        if isinstance(e, StarVar) and not star_ok:
            raise RuleError(ErrKind.STAR_OUTSIDE_LIST, "",
                            f"star variable {e} may only appear directly inside a list application")
        tt = self.raw_typing(e)
        if tt is None:
            raise RuleError(ErrKind.UNDECLARED_VARIABLE, "", f"{e} has no declared type")
        return tt

    def syn_rank(self, e: SynApp) -> SynRank:
        """The rank of a syntactic application, or the diagnosis, at ``e``,
        of why it has none that fits.

        The order is fixed: an operator with no rank is ``NO_RANK``; then a
        star argument is ``STAR_OUTSIDE_LIST``, since a star variable stands
        for a list segment of any length and so cannot be counted as one
        argument; only then does a wrong argument count give
        ``ARITY_MISMATCH``.
        """
        rank = self._syn_ranks.get(e.op)
        if rank is None:
            raise RuleError(ErrKind.NO_RANK, "", f"operator {e.op} has no declared rank")
        for i, arg in enumerate(e.args):
            if isinstance(arg, StarVar):
                raise RuleError(ErrKind.STAR_OUTSIDE_LIST, f".arg[{i}]",
                                f"star variable {arg} inside a syntactic application")
        if len(e.args) != len(rank.domain):
            raise RuleError(ErrKind.ARITY_MISMATCH, "",
                            f"{e.op} expects {len(rank.domain)} arguments, got {len(e.args)}")
        return rank

    def var_rank(self, e: ListApp) -> VariadicRank:
        """The rank of a variadic application, or ``NO_RANK`` at ``e``."""
        rank = self._var_ranks.get(e.op)
        if rank is None:
            raise RuleError(ErrKind.NO_RANK, "", f"variadic operator {e.op} has no declared rank")
        return rank

    def list_steps(self, e: ListApp) -> Iterator[tuple[Term, str]]:
        """The list rules' chain for ``e`` after the empty list: for each
        argument, left to right, the argument and its step (``STAR``,
        ``MERGE`` or ``ELEM``); step ``i`` completes the prefix of ``i + 1``
        arguments.  The operator of ``e`` must have a rank."""
        codomain, raw_typing = self._var_ranks[e.op].codomain, self.raw_typing
        for arg in e.args:
            yield arg, STAR if arg.__class__ is StarVar else MERGE if raw_typing(arg) is codomain else ELEM


def validate(ctx: Context, rules: Iterable[Rule] = ()) -> list[Violation]:
    """Check the well-formedness clauses of the context and of the match
    annotations of ``rules``; an empty list means all hold.

    Reports subsort cycles (antisymmetry), multiple inheritance, operator
    overloading, duplicate typings, undeclared sorts, and ground types
    outside the universe: each declared sort at ``?``, and each operator
    ``f``'s codomain ``S^f``.  Every variable typing and match annotation
    must lie in it (``unknown-type``), and every star typing must be a
    variadic operator's codomain (``bad-star-typing``).  So the decorated
    order ``S^f ≤ S^? ≤ P^?`` on the types a file names is a forest, as the
    resolution rules assume: each element has at most one cover.
    """
    violations = list(ctx._construction_violations)
    declared = set(ctx.sorts)

    first_parent = ctx._parent
    several: dict[Sort, list[Sort]] = {}  # all supersorts of a sort with several
    for child, parent in ctx.subsort_decls:
        for s in (child, parent):
            if s not in declared:
                violations.append(Violation("unknown-sort", f"sort {s} is not declared"))
        if parent is not (first := first_parent[child]):
            several.setdefault(child, [first]).append(parent)

    # The declared sorts, then the undeclared ones that declare a supersort.
    sorts = list(ctx.sorts) + [s for s in first_parent if s not in declared]
    for s in sorts:
        if s in several:
            names = ", ".join(p.name for p in several[s])
            violations.append(
                Violation("multiple-inheritance", f"sort {s} has several supersorts: {names}")
            )

    # Cycle detection over declared edges (union of all parents), depth first
    # with an explicit stack: ``path`` holds ``None``, whose parents are the
    # roots, then the sorts under search; ``tried``, how many parents each took.
    on_path: dict[Sort | None, bool] = {}  # False once a sort's search is done
    path: list[Sort | None] = [None]
    tried = [0]
    while path:
        s, i = path[-1], tried[-1]
        parents = sorts if s is None else several.get(s) or (first_parent[s],) if s in first_parent else ()
        if i == len(parents):
            on_path[path.pop()] = False
            tried.pop()
            continue
        tried[-1] = i + 1
        if on_path.get(p := parents[i]):
            names = " <: ".join(x.name for x in path[path.index(p):] + [p])
            violations.append(Violation("subsort-cycle", f"subsort cycle through {names}"))
        elif p not in on_path:
            on_path[p] = True
            path.append(p)
            tried.append(0)

    syn_ranks, var_ranks = ctx._syn_ranks, ctx._var_ranks
    for rank in (*syn_ranks.values(), *var_ranks.values()):
        for d in (*rank.domain, rank.codomain) if rank.__class__ is SynRank else (rank.elem, rank.codomain):
            if d.sort not in declared:
                violations.append(Violation("unknown-sort", f"rank of {rank.op} mentions undeclared sort {d.sort}"))

    # Every ground type the file names lies in the universe: a declared sort
    # at ?, or an operator's own codomain (a variadic one's, for a star).
    named = [("variable {} typed", name, t, False) for name, t in ctx._var_types.items()]
    named += [("star variable {}* typed", name, t, True) for name, t in ctx._star_types.items()]
    named += [("match {0[0]} of rule {0[1]} annotated", (j, i), m.at, False)
              for i, rule in enumerate(rules, start=1) for j, m in enumerate(rule.matches, start=1)]
    for who, name, t, star in named:
        if t.__class__ is not DecoratedSort:
            continue  # a type variable, or a [?] left to inference
        op = t.deco.symbol
        rank = var_ranks.get(op) if star else syn_ranks.get(op) or var_ranks.get(op) if op else None
        if t.sort not in declared:
            violations.append(Violation("unknown-sort", f"{who.format(name)} at undeclared sort {t.sort}"))
        if rank.codomain is t if rank else op is None and not star:
            continue
        if star:
            violations.append(Violation("bad-star-typing", f"star variable {name}* must be typed at a "
                                                           f"variadic operator's list type, got {t}"))
        elif t.sort in declared:
            violations.append(Violation("unknown-type", f"{who.format(name)} at {t}, which is neither a "
                                                        "declared sort at ? nor an operator's codomain"))

    return violations
