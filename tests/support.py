"""Shared test helpers: the running-example contexts, the printed constraint
listing used by the resolution example, a brute-force decorated-subtype
predicate independent of the library's parent walk, and a consistent-
renaming matcher for comparing constraint-set families."""

from __future__ import annotations

from collections import deque

from ruletypes import (
    Constraint,
    ConstraintSet,
    Context,
    Eq,
    GroundType,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    Sub,
    SynApp,
    SynRank,
    Var,
    VariadicRank,
    dsort,
    free_type_vars,
)
from ruletypes.core import TypeTerm, TypeVar


def a(n: int) -> TypeVar:
    return TypeVar(n)


def g(sort: str, deco: str | None = None) -> GroundType:
    return GroundType(dsort(sort, deco))


# ---------------------------------------------------------------------------
# The running example: lists over integers with a natural constant

def gamma_ex() -> Context:
    z, n = Sort("Z"), Sort("N")
    return Context(
        sorts=[z, n],
        subsorts=[(n, z)],
        ranks=[VariadicRank.make("l", z, z), SynRank.make("one", [], n)],
        var_types={"y": g("Z")},
        star_types={"x": g("Z", "l"), "z": g("Z", "l")},
    )


def example_signature() -> Context:
    """The same signature without any variable typings (inference mode)."""
    z, n = Sort("Z"), Sort("N")
    return Context(
        sorts=[z, n],
        subsorts=[(n, z)],
        ranks=[VariadicRank.make("l", z, z), SynRank.make("one", [], n)],
    )


def example_rule(annotated: bool = True) -> Rule:
    """``l(x*,y,z*) << [Z] l(one()) -> (y)``; ``annotated=False`` leaves the
    match annotation open for inference."""
    pattern = ListApp("l", (StarVar("x"), Var("y"), StarVar("z")))
    subject = ListApp("l", (SynApp("one"),))
    at = g("Z") if annotated else None
    return Rule(Match(pattern, subject, at), (Var("y"),))


def resolution_example_constraints() -> list[Constraint]:
    """The flat constraint listing the resolution example starts from, in its
    printed order (duplicates included)."""
    zl, zq, none = g("Z", "l"), g("Z"), g("N", "one")
    return [
        Eq(a(5), zl), Eq(a(10), a(1)), Eq(a(5), zl), Eq(a(10), zl),
        Eq(a(9), a(2)), Eq(a(5), zl), Sub(a(9), zq), Eq(a(8), a(3)),
        Eq(a(5), zl), Eq(a(8), zl), Eq(a(6), zl), Eq(a(7), none),
        Eq(a(6), zl), Sub(a(7), zq), Sub(a(5), a(4)), Eq(a(6), a(4)),
        Eq(a(2), a(2)),
    ]


# ---------------------------------------------------------------------------
# Independent closure/subtype oracle (edge-walking, no caching)

def naive_sort_leq(ctx: Context, s1: Sort, s2: Sort) -> bool:
    queue = deque([s1])
    seen = {s1}
    while queue:
        s = queue.popleft()
        if s == s2:
            return True
        for child, parent in ctx.subsort_decls:
            if child == s and parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return False


def naive_subtype(ctx: Context, a, b) -> bool:
    return naive_sort_leq(ctx, a.sort, b.sort) and (a.deco == b.deco or b.deco.is_any)


# ---------------------------------------------------------------------------
# Constraint-family comparison modulo one consistent variable renaming

def _rename(c: Constraint, mapping: dict[int, int]) -> Constraint:
    def conv(t: TypeTerm) -> TypeTerm:
        return TypeVar(mapping[t.id]) if isinstance(t, TypeVar) else t

    return (Eq if isinstance(c, Eq) else Sub)(conv(c.lhs), conv(c.rhs))


def _profile(var: int, sets: list[list[Constraint]]) -> tuple:
    rows = []
    for idx, constraints in enumerate(sets):
        for c in constraints:
            for side, other in (("lhs", c.rhs), ("rhs", c.lhs)):
                if isinstance(getattr(c, side), TypeVar) and getattr(c, side).id == var:
                    shape = str(other) if isinstance(other, GroundType) else "<var>"
                    rows.append((idx, type(c).__name__, side, shape))
    return tuple(sorted(rows))


def find_renaming(
    actual: list[ConstraintSet | list[Constraint]],
    expected: list[list[Constraint]],
) -> dict[int, int] | None:
    """A bijection on type-variable ids under which every actual set equals
    the corresponding expected set, or ``None``."""
    actual_lists = [list(dict.fromkeys(s)) for s in actual]
    expected_lists = [list(dict.fromkeys(s)) for s in expected]
    if len(actual_lists) != len(expected_lists):
        return None

    act_vars = sorted(set().union(set(), *(free_type_vars(s) for s in actual_lists)))
    exp_vars = sorted(set().union(set(), *(free_type_vars(s) for s in expected_lists)))
    if len(act_vars) != len(exp_vars):
        return None

    exp_profiles = {v: _profile(v, expected_lists) for v in exp_vars}
    candidates = {
        v: [w for w in exp_vars if exp_profiles[w] == _profile(v, actual_lists)]
        for v in act_vars
    }

    def verify(mapping: dict[int, int]) -> bool:
        for got, want in zip(actual_lists, expected_lists):
            if {_rename(c, mapping) for c in got} != set(want):
                return False
        return True

    def backtrack(i: int, mapping: dict[int, int], used: set[int]) -> dict[int, int] | None:
        if i == len(act_vars):
            return dict(mapping) if verify(mapping) else None
        v = act_vars[i]
        for w in candidates[v]:
            if w in used:
                continue
            mapping[v] = w
            used.add(w)
            found = backtrack(i + 1, mapping, used)
            if found is not None:
                return found
            del mapping[v]
            used.remove(w)
        return None

    return backtrack(0, {}, set())


# ---------------------------------------------------------------------------
# Wide list patterns: one variadic L(...) with star variables, variables,
# constants, applications and nested L and M lists

LIST_SIGNATURE = """\
sort Z
sort N <: Z
sort E
op c : -> N
op s : Z -> N
op f : Z Z -> Z
op g : N -> Z
vop L : Z* -> E
vop M : N* -> Z
"""

ELEMENTS = (
    "w{k}*", "L(x{k},c())", "x{k}", "c()", "s(x{k})", "f(x{k},s(c()))",
    "g(s(y{k}))", "M(c(),m{k}*)", "s(f(g(s(x{k})),M(s(x{k}),y{k})))", "w{j}*",
)


def wide_rule(width: int, element: str | None = None, at: int | None = None) -> str:
    """A ``width``-element list rule; ``element`` replaces the one at ``at``
    (default: the middle one)."""
    elems = [ELEMENTS[i % len(ELEMENTS)].format(k=i % 5, j=(i + 2) % 3) for i in range(width)]
    if element is not None:
        elems[width // 2 if at is None else at] = element
    return LIST_SIGNATURE + f"rule L({','.join(elems)}) << [?] t -> (t)\n"


# ---------------------------------------------------------------------------
# Long subsort chains

def chain(length: int, closed: bool = False) -> str:
    """A subsort chain S0 <: S1 <: … declared child first; ``closed`` makes
    the last sort a subsort of the first."""
    lines = [f"sort S{i} <: S{i + 1}" for i in range(length - 1)]
    return "\n".join(lines + [f"sort S{length - 1}" + (" <: S0" if closed else "")]) + "\n"
