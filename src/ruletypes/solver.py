"""Constraint resolution: decides satisfiability of a constraint set under a
context by interleaving the failure-detection scan with the numbered
simplification rules.

Each step first scans for the five failure patterns, then applies the
lowest-numbered resolution rule that matches.  Both read one index, built by
a single pass over the work list: positions sorted by constraint shape, with
ground lower bounds ``S <: α``, ground upper bounds ``α <: S`` and variable
bounds ``α <: β`` also bucketed by ``α``.  A pattern over a pair walks only
the bucket of the variable the pair shares, and rule (8) finds the reversed
pair in one bucket.  A step so costs O(|C|) plus the pairs inside a bucket
(few: rules (6)/(7) merge them), instead of the O(|C|²) of rescanning every
pair; a solve costs O(|C|²).

Buckets keep insertion order, and every pattern visits candidates in the
order of the nested scan over constraint pairs: first constraint first, then
its first partner.  That keeps the trace identical to such a rescan (the
same witness, rule and consumed pair, the produced constraint taking the
first consumed slot), which the tests check against a reference copy of it.
Every applied rule removes at least one constraint: the (total,
subtype-count) degree decreases lexicographically at every step.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

from .context import Context
from .core import (
    Constraint,
    ConstraintSet,
    Eq,
    GroundType,
    Sub,
    Substitution,
    TypeTerm,
    TypeVar,
    free_type_vars,
    type_vars,
)


@dataclass(frozen=True)
class TraceStep:
    """One applied resolution rule: its number, what it consumed and
    produced, any binding it recorded, and the degree left behind."""

    rule: str
    consumed: tuple[Constraint, ...]
    produced: tuple[Constraint, ...]
    bound: tuple[tuple[int, TypeTerm], ...]
    degree_after: tuple[int, int]


@dataclass(frozen=True)
class Solved:
    subst: Substitution
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class Failed:
    fail_rule: int
    witness: tuple[Constraint, ...]
    trace: tuple[TraceStep, ...]


@dataclass(frozen=True)
class Stuck:
    residual: ConstraintSet
    trace: tuple[TraceStep, ...]


SolveOutcome = Union[Solved, Failed, Stuck]


def degree(constraints: Iterable[Constraint]) -> tuple[int, int]:
    """The termination measure: (number of constraints, number of subtype
    constraints)."""
    items = list(constraints)
    return len(items), sum(1 for c in items if isinstance(c, Sub))


def _var(t: TypeTerm) -> bool:
    return isinstance(t, TypeVar)


class _Index:
    """A duplicate-free work list sorted by shape in one pass.  Every list
    holds positions into ``items`` in insertion order; ``lower``, ``upper``
    and ``chain`` bucket them by the variable they bound."""

    def __init__(self, items: list[Constraint]):
        self.items = items
        # positions of α = t, S = α and S1 = S2
        self.var_eqs: list[int] = []
        self.rvar_eqs: list[int] = []
        self.ground_eqs: list[int] = []
        # positions of S1 <: S2, and of S <: α, α <: S and α <: β over every α
        self.grounds: list[int] = []
        self.lowers: list[int] = []
        self.uppers: list[int] = []
        self.chains: list[int] = []
        # α ↦ positions of its S <: α, α <: S and α <: β
        self.lower: dict[int, list[int]] = defaultdict(list)
        self.upper: dict[int, list[int]] = defaultdict(list)
        self.chain: dict[int, list[int]] = defaultdict(list)
        for i, c in enumerate(items):
            lhs, rhs = c.lhs, c.rhs
            left, right = isinstance(lhs, TypeVar), isinstance(rhs, TypeVar)
            if isinstance(c, Eq):
                (self.var_eqs if left else self.rvar_eqs if right else self.ground_eqs).append(i)
            elif left and right:
                self.chains.append(i)
                self.chain[lhs.id].append(i)
            elif left:
                self.uppers.append(i)
                self.upper[lhs.id].append(i)
            elif right:
                self.lowers.append(i)
                self.lower[rhs.id].append(i)
            else:
                self.grounds.append(i)

    def first(self, positions: Iterable[int], test: Callable[[Constraint], bool]) -> int | None:
        return next((i for i in positions if test(self.items[i])), None)

    def later(self, order: list[int], buckets: dict[int, list[int]],
              key: Callable[[Constraint], TypeTerm]) -> Iterator[tuple[int, int, Constraint, Constraint]]:
        """Pairs i < j of positions whose constraints share the variable
        ``key``, in the order of the nested scan over ``order``."""
        for i in order:
            ci = self.items[i]
            bucket = buckets[key(ci).id]
            for j in bucket[bisect_right(bucket, i):]:
                yield i, j, ci, self.items[j]


def detect_failure(ctx: Context, constraints: Iterable[Constraint]) -> tuple[int, tuple[Constraint, ...]] | None:
    """Scan for the five unsatisfiability patterns; the first hit, in rule
    order then insertion order, is returned with its witness constraints."""
    return _detect(ctx, _Index(list(dict.fromkeys(constraints))))


def _detect(ctx: Context, ix: _Index) -> tuple[int, tuple[Constraint, ...]] | None:
    items, holds = ix.items, ctx.subtype_holds

    # (1) a ground lower and a ground upper bound on one variable that are
    # not related by the closure.
    for i in ix.lowers:
        ci = items[i]
        for j in ix.upper.get(ci.rhs.id, ()):
            if not holds(ci.lhs.dsort, items[j].rhs.dsort):
                return 1, (ci, items[j])

    # (2) two ground lower bounds with no common supersort.
    for _, _, ci, cj in ix.later(ix.lowers, ix.lower, lambda c: c.rhs):
        if ctx.common_supersort(ci.lhs.dsort, cj.lhs.dsort) is None:
            return 2, (ci, cj)

    # (3) two ground upper bounds neither of which is below the other.
    for _, _, ci, cj in ix.later(ix.uppers, ix.upper, lambda c: c.lhs):
        a, b = ci.rhs.dsort, cj.rhs.dsort
        if not holds(a, b) and not holds(b, a):
            return 3, (ci, cj)

    # (4) a ground subtype constraint outside the closure.
    i = ix.first(ix.grounds, lambda c: not holds(c.lhs.dsort, c.rhs.dsort))
    if i is not None:
        return 4, (items[i],)

    # (5) a ground equality with different sorts or decorations.
    i = ix.first(ix.ground_eqs, lambda c: c.lhs != c.rhs)
    if i is not None:
        return 5, (items[i],)

    return None


@dataclass(frozen=True)
class _Step:
    rule: str
    consumed: tuple[int, ...]          # indices into the work list
    produced: tuple[Constraint, ...]   # inserted at the first consumed slot
    binding: tuple[int, TypeTerm] | None


def _find_step(ctx: Context, ix: _Index) -> _Step | None:
    items, holds = ix.items, ctx.subtype_holds

    # (1)/(2) drop a reflexive equality, then a reflexive subtype constraint.
    for rule, grounds, variables in (("1", ix.ground_eqs, ix.var_eqs), ("2", ix.grounds, ix.chains)):
        hits = [i for i in (ix.first(grounds, lambda c: c.lhs == c.rhs),
                            ix.first(variables, lambda c: _var(c.rhs) and c.rhs.id == c.lhs.id))
                if i is not None]
        if hits:
            return _Step(rule, (min(hits),), (), None)

    # (3) drop a ground subtype constraint the closure already answers.
    i = ix.first(ix.grounds, lambda c: holds(c.lhs.dsort, c.rhs.dsort))
    if i is not None:
        return _Step("3", (i,), (), None)

    # (4)/(5) turn an equality on a variable into a binding; (5) is reached
    # only when no equality has a variable on its left.
    if ix.var_eqs:
        c = items[ix.var_eqs[0]]
        return _Step("4", (ix.var_eqs[0],), (), (c.lhs.id, c.rhs))
    if ix.rvar_eqs:
        c = items[ix.rvar_eqs[0]]
        return _Step("5", (ix.rvar_eqs[0],), (), (c.rhs.id, c.lhs))

    # (6) merge two ground lower bounds into their least common supersort.
    for i, j, ci, cj in ix.later(ix.lowers, ix.lower, lambda c: c.rhs):
        common = ctx.common_supersort(ci.lhs.dsort, cj.lhs.dsort)
        if common is not None:
            return _Step("6", (i, j), (Sub(GroundType(common), ci.rhs),), None)

    # (7a)/(7b) keep the smaller of two comparable ground upper bounds.
    for i, j, ci, cj in ix.later(ix.uppers, ix.upper, lambda c: c.lhs):
        if holds(ci.rhs.dsort, cj.rhs.dsort):
            return _Step("7a", (i, j), (ci,), None)
        if holds(cj.rhs.dsort, ci.rhs.dsort):
            return _Step("7b", (i, j), (cj,), None)

    # (8) an antisymmetric pair collapses to an equality.  The reversed
    # constraint sits in the bucket its shape puts it in.
    for i, ci in enumerate(items):
        if isinstance(ci, Eq):
            continue
        if _var(ci.rhs):
            bucket = (ix.chain if _var(ci.lhs) else ix.upper).get(ci.rhs.id, [])
        else:
            bucket = ix.lower.get(ci.lhs.id, []) if _var(ci.lhs) else ix.grounds
        for j in bucket[bisect_right(bucket, i):]:
            if items[j].lhs == ci.rhs and items[j].rhs == ci.lhs:
                return _Step("8", (i, j), (Eq(ci.lhs, ci.rhs),), None)

    # (9)-(11) collapse a transitive chain through a variable, binding it.
    for i in ix.chains:
        ci = items[i]
        for j in ix.chain.get(ci.rhs.id, ()):
            if j != i:
                return _Step("9", (i, j), (Sub(ci.lhs, items[j].rhs),), (ci.rhs.id, items[j].rhs))
    for i in ix.lowers:
        ci = items[i]
        for j in ix.chain.get(ci.rhs.id, ()):
            return _Step("10", (i, j), (Sub(ci.lhs, items[j].rhs),), (ci.rhs.id, items[j].rhs))
    for i in ix.chains:
        ci = items[i]
        for j in ix.upper.get(ci.rhs.id, ()):
            return _Step("11", (i, j), (Sub(ci.lhs, items[j].rhs),), (ci.rhs.id, ci.lhs))

    # (12) a variable squeezed between related ground bounds takes the upper,
    # leaving the ground pair S1 <: S2 for rule (3).
    for i in ix.lowers:
        ci = items[i]
        for j in ix.upper.get(ci.rhs.id, ()):
            cj = items[j]
            if holds(ci.lhs.dsort, cj.rhs.dsort):
                return _Step("12", (i, j), (Sub(ci.lhs, cj.rhs),), (ci.rhs.id, cj.rhs))

    # (13)/(14) apply only when nothing above does: a variable that occurs
    # in no other constraint is assigned its single bound.
    uses = Counter(v for c in items for v in type_vars(c.lhs) | type_vars(c.rhs))
    for i, c in enumerate(items):
        if isinstance(c, Sub) and _var(c.lhs) and uses[c.lhs.id] == 1:
            return _Step("13", (i,), (), (c.lhs.id, c.rhs))
    for i, c in enumerate(items):
        if isinstance(c, Sub) and _var(c.rhs) and uses[c.rhs.id] == 1:
            return _Step("14", (i,), (), (c.rhs.id, c.lhs))

    return None


def _substitute(items: list[Constraint], var: int, image: TypeTerm) -> list[Constraint]:
    """Replace α``var`` by ``image``; constraints without it pass through."""
    out = []
    for c in items:
        lhs = image if isinstance(c.lhs, TypeVar) and c.lhs.id == var else c.lhs
        rhs = image if isinstance(c.rhs, TypeVar) and c.rhs.id == var else c.rhs
        out.append(c if lhs is c.lhs and rhs is c.rhs else type(c)(lhs, rhs))
    return out


def solve(ctx: Context, constraints: ConstraintSet | Iterable[Constraint]) -> SolveOutcome:
    """Run the resolution loop to completion.

    Returns ``Solved`` with the accumulated substitution (normalized, and
    restricted to the original variables) when the set empties, ``Failed``
    with the failure rule and witness when a detection pattern fires, and
    ``Stuck`` with the residual set if no rule applies.
    """
    items: list[Constraint] = list(dict.fromkeys(constraints))
    original_vars = free_type_vars(items)
    bindings: list[tuple[int, TypeTerm]] = []
    trace: list[TraceStep] = []

    while items:
        index = _Index(items)
        hit = _detect(ctx, index)
        if hit is not None:
            rule, witness = hit
            return Failed(rule, witness, tuple(trace))

        step = _find_step(ctx, index)
        if step is None:
            return Stuck(ConstraintSet(items), tuple(trace))

        consumed = tuple(items[i] for i in step.consumed)
        first = min(step.consumed)
        out = items[:first] + list(step.produced) + [
            c for i, c in enumerate(items[first + 1:], first + 1) if i not in step.consumed]
        if step.binding is not None:
            out = _substitute(out, *step.binding)
            bindings.append(step.binding)
        items = list(dict.fromkeys(out))
        trace.append(TraceStep(
            step.rule, consumed, step.produced,
            (step.binding,) if step.binding is not None else (),
            degree(items),
        ))

    subst = Substitution((v, t) for v, t in bindings if v in original_vars)
    return Solved(subst, tuple(trace))
