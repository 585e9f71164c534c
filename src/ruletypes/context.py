"""Typing contexts: subsort declarations, operator ranks, and variable
typings, with the decorated-subtype and sort-lookup queries that the
checking, inference, and resolution rules key on.

Contexts are immutable after construction and hold only their declarations;
order queries walk the first-declared parents, so a validated context can be
shared across threads.
"""

from __future__ import annotations

import copy
import enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

from .core import (
    DecoratedSort,
    Decoration,
    GroundType,
    ListApp,
    Sort,
    StarVar,
    SynApp,
    Term,
    TypeTerm,
    Value,
    Var,
)


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
        return cls._unchecked(op, tuple(map(DecoratedSort, domain_sorts)),
                              DecoratedSort(codomain_sort, Decoration(op)))

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
        return cls._unchecked(op, DecoratedSort(elem_sort), DecoratedSort(codomain_sort, Decoration(op)))

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
    all raise it."""

    def __init__(self, kind: ErrKind, path: str, detail: str):
        super().__init__(f"{kind} at {path}: {detail}")
        self.kind = kind
        self.path = path
        self.detail = detail


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

        # Declared direct supersorts, first-declared first; single inheritance
        # means the list should have length <= 1 (validate reports otherwise).
        self._parents: dict[Sort, list[Sort]] = {s: [] for s in self._sorts}
        for child, parent in self._subsorts:
            self._parents.setdefault(child, [])
            if parent not in self._parents[child]:
                self._parents[child].append(parent)

    def _set_typings(self, *typings: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm]) -> None:
        # var_types, then star_types; the first typing of a name wins.
        self._var_types: dict[str, TypeTerm] = {}
        self._star_types: dict[str, TypeTerm] = {}
        for table, pairs, what in zip((self._var_types, self._star_types), typings,
                                      ("variable {}", "star variable {}*")):
            for name, tt in pairs.items() if isinstance(pairs, Mapping) else pairs:
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
        """Reflexive-transitive closure of the declared subsort edges."""
        return s2 in self.supersort_chain(s1)

    def subtype_holds(self, a: DecoratedSort, b: DecoratedSort) -> bool:
        """The decorated order: sorts related by the closure and decorations
        equal, unless the target decoration is the don't-care one."""
        return self.sort_leq(a.sort, b.sort) and (a.deco == b.deco or b.deco.is_any)

    def supersort_chain(self, s: Sort) -> tuple[Sort, ...]:
        """``s`` and its ancestors: the walk from ``s`` along first-declared
        parents up to a root, or up to the first sort that repeats, so the
        queries stay total on a cyclic (ill-formed) context."""
        chain = {s: None}
        parents = self._parents.get(s)
        while parents and parents[0] not in chain:
            s = parents[0]
            chain[s] = None
            parents = self._parents.get(s)
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
        return tt.dsort if isinstance(tt, GroundType) else None

    def raw_typing(self, e: Term) -> TypeTerm | None:
        """The declared type term of a term's head: the full typing for
        variables (ground or type variable), the rank codomain for
        applications."""
        if isinstance(e, Var):
            return self._var_types.get(e.name)
        if isinstance(e, StarVar):
            return self._star_types.get(e.name)
        if isinstance(e, SynApp):
            rank = self._syn_ranks.get(e.op)
            return GroundType(rank.codomain) if rank else None
        if isinstance(e, ListApp):
            rank = self._var_ranks.get(e.op)
            return GroundType(rank.codomain) if rank else None
        return None

    def with_typings(
        self,
        var_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
        star_types: Iterable[tuple[str, TypeTerm]] | Mapping[str, TypeTerm] = (),
    ) -> "Context":
        """The same sorts, subsort declarations and ranks with other
        variable and star-variable typings."""
        ctx = copy.copy(self)
        ctx._construction_violations = []  # the ranks' were reported for self
        ctx._set_typings(var_types, star_types)
        return ctx

    def declared_typing(self, e: Term, path: str, star_ok: bool = False) -> TypeTerm:
        """The declared type term of ``e``'s head at ``path`` (see
        :meth:`raw_typing`), or the diagnosis of why it has none.

        A star variable stands for a list segment, so outside a list
        (``star_ok`` false) it is ``STAR_OUTSIDE_LIST`` before its typing is
        looked up; a head with no typing is ``UNDECLARED_VARIABLE``.
        """
        if isinstance(e, StarVar) and not star_ok:
            raise RuleError(ErrKind.STAR_OUTSIDE_LIST, path,
                            f"star variable {e} may only appear directly inside a list application")
        tt = self.raw_typing(e)
        if tt is None:
            raise RuleError(ErrKind.UNDECLARED_VARIABLE, path, f"{e} has no declared type")
        return tt

    def syn_rank(self, e: SynApp, path: str) -> SynRank:
        """The rank of a syntactic application at ``path``, or the diagnosis
        of why it has none that fits.

        The order is fixed: an operator with no rank is ``NO_RANK``; then a
        star argument is ``STAR_OUTSIDE_LIST``, since a star variable stands
        for a list segment of any length and so cannot be counted as one
        argument; only then does a wrong argument count give
        ``ARITY_MISMATCH``.
        """
        rank = self._syn_ranks.get(e.op)
        if rank is None:
            raise RuleError(ErrKind.NO_RANK, path, f"operator {e.op} has no declared rank")
        for i, arg in enumerate(e.args):
            if isinstance(arg, StarVar):
                raise RuleError(ErrKind.STAR_OUTSIDE_LIST, f"{path}.arg[{i}]",
                                f"star variable {arg} inside a syntactic application")
        if len(e.args) != len(rank.domain):
            raise RuleError(ErrKind.ARITY_MISMATCH, path,
                            f"{e.op} expects {len(rank.domain)} arguments, got {len(e.args)}")
        return rank

    def var_rank(self, e: ListApp, path: str) -> VariadicRank:
        """The rank of a variadic application at ``path``, or ``NO_RANK``."""
        rank = self._var_ranks.get(e.op)
        if rank is None:
            raise RuleError(ErrKind.NO_RANK, path, f"variadic operator {e.op} has no declared rank")
        return rank

    def list_steps(self, e: ListApp) -> Iterator[tuple[Term, str]]:
        """The list rules' chain for ``e`` after the empty list: for each
        argument, left to right, the argument and its step (``STAR``,
        ``MERGE`` or ``ELEM``); step ``i`` completes the prefix of ``i + 1``
        arguments.  The operator of ``e`` must have a rank."""
        codomain = self._var_ranks[e.op].codomain
        for arg in e.args:
            yield arg, STAR if isinstance(arg, StarVar) else MERGE if self.sortof(arg) == codomain else ELEM


def validate(ctx: Context) -> list[Violation]:
    """Check the context's well-formedness clauses.

    Reports subsort cycles (antisymmetry), multiple inheritance, operator
    overloading, duplicate typings, and references to undeclared sorts or
    operators; an empty list means the context is well-formed.
    """
    violations = list(ctx._construction_violations)
    declared = set(ctx.sorts)

    for child, parent in ctx.subsort_decls:
        for s in (child, parent):
            if s not in declared:
                violations.append(Violation("unknown-sort", f"sort {s} is not declared"))

    for s, parents in ctx._parents.items():
        if len(parents) > 1:
            names = ", ".join(p.name for p in parents)
            violations.append(
                Violation("multiple-inheritance", f"sort {s} has several supersorts: {names}")
            )

    # Cycle detection over declared edges (union of all parents), depth first
    # with an explicit stack: ``path`` holds the sorts under search, ``todo``
    # the roots and then the parents left of each sort on the path.
    on_path: dict[Sort, bool] = {}  # False once a sort's search is done
    path: list[Sort] = []
    todo = [iter(ctx._parents)]
    while todo:
        p = next(todo[-1], None)
        if p is None:
            todo.pop()
            if path:
                on_path[path.pop()] = False
        elif on_path.get(p):
            names = " <: ".join(x.name for x in path[path.index(p):] + [p])
            violations.append(Violation("subsort-cycle", f"subsort cycle through {names}"))
        elif p not in on_path:
            on_path[p] = True
            path.append(p)
            todo.append(iter(ctx._parents.get(p, [])))

    ranks: list[Rank] = list(ctx.syn_ranks.values()) + list(ctx.var_ranks.values())
    for rank in ranks:
        mentioned = list(rank.domain) if isinstance(rank, SynRank) else [rank.elem]
        mentioned.append(rank.codomain)
        for d in mentioned:
            if d.sort not in declared:
                violations.append(
                    Violation("unknown-sort", f"rank of {rank.op} mentions undeclared sort {d.sort}")
                )

    for name, tt in ctx.var_types.items():
        if isinstance(tt, GroundType) and tt.dsort.sort not in declared:
            violations.append(
                Violation("unknown-sort", f"variable {name} typed at undeclared sort {tt.dsort.sort}")
            )

    for name, tt in ctx.star_types.items():
        if not isinstance(tt, GroundType):
            continue
        ds = tt.dsort
        if ds.sort not in declared:
            violations.append(
                Violation("unknown-sort", f"star variable {name}* typed at undeclared sort {ds.sort}")
            )
        if ds.deco.is_any or ds.deco.symbol not in ctx.var_ranks:
            violations.append(
                Violation(
                    "bad-star-typing",
                    f"star variable {name}* must be typed at a variadic operator's list type, got {ds}",
                )
            )

    return violations
