"""The resolution engine as it stood before the per-step bound index: the
failure scan and the rule search rescan every constraint pair at every step.

Kept verbatim as the reference that ``test_solver_reference.py`` compares the
indexed engine against, trace for trace.  It shares the outcome and trace
classes with ``ruletypes.solver`` so outcomes compare with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ruletypes.context import Context
from ruletypes.core import (
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
from ruletypes.solver import Failed, Solved, SolveOutcome, Stuck, TraceStep, degree


def _ground(t: TypeTerm) -> bool:
    return isinstance(t, GroundType)


def _var(t: TypeTerm) -> bool:
    return isinstance(t, TypeVar)


def detect_failure(ctx: Context, constraints: Iterable[Constraint]) -> tuple[int, tuple[Constraint, ...]] | None:
    """Scan for the five unsatisfiability patterns; the first hit, in rule
    order then insertion order, is returned with its witness constraints."""
    items = list(dict.fromkeys(constraints))
    subs = [c for c in items if isinstance(c, Sub)]

    # (1) a ground lower and a ground upper bound on one variable that are
    # not related by the closure.
    for ci in subs:
        if _ground(ci.lhs) and _var(ci.rhs):
            for cj in subs:
                if cj is ci or not (_var(cj.lhs) and _ground(cj.rhs)):
                    continue
                if cj.lhs == ci.rhs and not ctx.subtype_holds(ci.lhs.dsort, cj.rhs.dsort):
                    return 1, (ci, cj)

    # (2) two ground lower bounds with no common supersort.
    for i, ci in enumerate(subs):
        if _ground(ci.lhs) and _var(ci.rhs):
            for cj in subs[i + 1:]:
                if not (_ground(cj.lhs) and _var(cj.rhs)) or cj.rhs != ci.rhs:
                    continue
                if ctx.common_supersort(ci.lhs.dsort, cj.lhs.dsort) is None:
                    return 2, (ci, cj)

    # (3) two ground upper bounds neither of which is below the other.
    for i, ci in enumerate(subs):
        if _var(ci.lhs) and _ground(ci.rhs):
            for cj in subs[i + 1:]:
                if not (_var(cj.lhs) and _ground(cj.rhs)) or cj.lhs != ci.lhs:
                    continue
                a, b = ci.rhs.dsort, cj.rhs.dsort
                if not ctx.subtype_holds(a, b) and not ctx.subtype_holds(b, a):
                    return 3, (ci, cj)

    # (4) a ground subtype constraint outside the closure.
    for c in subs:
        if _ground(c.lhs) and _ground(c.rhs) and not ctx.subtype_holds(c.lhs.dsort, c.rhs.dsort):
            return 4, (c,)

    # (5) a ground equality with different sorts or decorations.
    for c in items:
        if isinstance(c, Eq) and _ground(c.lhs) and _ground(c.rhs) and c.lhs != c.rhs:
            return 5, (c,)

    return None


@dataclass(frozen=True)
class _Step:
    rule: str
    consumed: tuple[int, ...]          # indices into the work list
    produced: tuple[Constraint, ...]   # inserted at the first consumed slot
    binding: tuple[int, TypeTerm] | None


def _find_step(ctx: Context, items: list[Constraint]) -> _Step | None:
    n = len(items)

    # (1) drop a reflexive equality.
    for i, c in enumerate(items):
        if isinstance(c, Eq) and c.lhs == c.rhs:
            return _Step("1", (i,), (), None)

    # (2) drop a reflexive subtype constraint.
    for i, c in enumerate(items):
        if isinstance(c, Sub) and c.lhs == c.rhs:
            return _Step("2", (i,), (), None)

    # (3) drop a ground subtype constraint the closure already answers.
    for i, c in enumerate(items):
        if isinstance(c, Sub) and _ground(c.lhs) and _ground(c.rhs) \
                and ctx.subtype_holds(c.lhs.dsort, c.rhs.dsort):
            return _Step("3", (i,), (), None)

    # (4)/(5) turn an equality on a variable into a binding.
    for i, c in enumerate(items):
        if isinstance(c, Eq) and _var(c.lhs):
            return _Step("4", (i,), (), (c.lhs.id, c.rhs))
    for i, c in enumerate(items):
        if isinstance(c, Eq) and _var(c.rhs):
            return _Step("5", (i,), (), (c.rhs.id, c.lhs))

    # (6) merge two ground lower bounds into their least common supersort.
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _ground(ci.lhs) and _var(ci.rhs)):
            continue
        for j in range(i + 1, n):
            cj = items[j]
            if isinstance(cj, Sub) and _ground(cj.lhs) and _var(cj.rhs) and cj.rhs == ci.rhs:
                common = ctx.common_supersort(ci.lhs.dsort, cj.lhs.dsort)
                if common is not None:
                    return _Step("6", (i, j), (Sub(GroundType(common), ci.rhs),), None)

    # (7a)/(7b) keep the smaller of two comparable ground upper bounds.
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _var(ci.lhs) and _ground(ci.rhs)):
            continue
        for j in range(i + 1, n):
            cj = items[j]
            if not (isinstance(cj, Sub) and _var(cj.lhs) and _ground(cj.rhs) and cj.lhs == ci.lhs):
                continue
            if ctx.subtype_holds(ci.rhs.dsort, cj.rhs.dsort):
                return _Step("7a", (i, j), (ci,), None)
            if ctx.subtype_holds(cj.rhs.dsort, ci.rhs.dsort):
                return _Step("7b", (i, j), (cj,), None)

    # (8) an antisymmetric pair collapses to an equality.
    for i in range(n):
        ci = items[i]
        if not isinstance(ci, Sub):
            continue
        for j in range(i + 1, n):
            cj = items[j]
            if isinstance(cj, Sub) and cj.lhs == ci.rhs and cj.rhs == ci.lhs:
                return _Step("8", (i, j), (Eq(ci.lhs, ci.rhs),), None)

    # (9)-(11) collapse a transitive chain through a variable, binding it.
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _var(ci.lhs) and _var(ci.rhs)):
            continue
        mid = ci.rhs
        for j in range(n):
            cj = items[j]
            if j == i or not (isinstance(cj, Sub) and cj.lhs == mid):
                continue
            if _var(cj.rhs):
                return _Step("9", (i, j), (Sub(ci.lhs, cj.rhs),), (mid.id, cj.rhs))
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _ground(ci.lhs) and _var(ci.rhs)):
            continue
        mid = ci.rhs
        for j in range(n):
            cj = items[j]
            if j == i or not (isinstance(cj, Sub) and cj.lhs == mid and _var(cj.rhs)):
                continue
            return _Step("10", (i, j), (Sub(ci.lhs, cj.rhs),), (mid.id, cj.rhs))
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _var(ci.lhs) and _var(ci.rhs)):
            continue
        mid = ci.rhs
        for j in range(n):
            cj = items[j]
            if j == i or not (isinstance(cj, Sub) and cj.lhs == mid and _ground(cj.rhs)):
                continue
            return _Step("11", (i, j), (Sub(ci.lhs, cj.rhs),), (mid.id, ci.lhs))

    # (12) a variable squeezed between related ground bounds takes the upper,
    # leaving the ground pair S1 <: S2 for rule (3).
    for i in range(n):
        ci = items[i]
        if not (isinstance(ci, Sub) and _ground(ci.lhs) and _var(ci.rhs)):
            continue
        mid = ci.rhs
        for j in range(n):
            cj = items[j]
            if j == i or not (isinstance(cj, Sub) and cj.lhs == mid and _ground(cj.rhs)):
                continue
            if ctx.subtype_holds(ci.lhs.dsort, cj.rhs.dsort):
                return _Step("12", (i, j), (Sub(ci.lhs, cj.rhs),), (mid.id, cj.rhs))

    # (13)/(14) apply only when nothing above does: a variable with a single
    # remaining bound is assigned that bound.
    rest_vars_cache: list[set[int]] = []
    all_vars = [type_vars(c.lhs) | type_vars(c.rhs) for c in items]
    for i, c in enumerate(items):
        others: set[int] = set()
        for j, vs in enumerate(all_vars):
            if j != i:
                others |= vs
        rest_vars_cache.append(others)
    for i, c in enumerate(items):
        if isinstance(c, Sub) and _var(c.lhs) and c.lhs.id not in rest_vars_cache[i]:
            return _Step("13", (i,), (), (c.lhs.id, c.rhs))
    for i, c in enumerate(items):
        if isinstance(c, Sub) and _var(c.rhs) and c.rhs.id not in rest_vars_cache[i]:
            return _Step("14", (i,), (), (c.rhs.id, c.lhs))

    return None


def _substitute(items: list[Constraint], var: int, image: TypeTerm) -> list[Constraint]:
    def repl(t: TypeTerm) -> TypeTerm:
        return image if isinstance(t, TypeVar) and t.id == var else t

    out = []
    for c in items:
        lhs, rhs = repl(c.lhs), repl(c.rhs)
        out.append(Eq(lhs, rhs) if isinstance(c, Eq) else Sub(lhs, rhs))
    return list(dict.fromkeys(out))


def solve(ctx: Context, constraints: ConstraintSet | Iterable[Constraint]) -> SolveOutcome:
    """Run the resolution loop to completion.

    Returns ``Solved`` with the accumulated substitution (normalized, and
    restricted to the original variables) when the set empties, ``Failed``
    with the failure rule and witness when a detection pattern fires, and
    ``Stuck`` with the residual set if no rule applies.
    """
    items: list[Constraint] = list(dict.fromkeys(constraints))
    original = list(items)
    original_vars = free_type_vars(original)
    bindings: list[tuple[int, TypeTerm]] = []
    trace: list[TraceStep] = []

    while items:
        hit = detect_failure(ctx, items)
        if hit is not None:
            rule, witness = hit
            return Failed(rule, witness, tuple(trace))

        step = _find_step(ctx, items)
        if step is None:
            return Stuck(ConstraintSet(items), tuple(trace))

        consumed = tuple(items[i] for i in step.consumed)
        first = min(step.consumed)
        out: list[Constraint] = []
        for i, c in enumerate(items):
            if i == first:
                out.extend(step.produced)
            if i in step.consumed:
                continue
            out.append(c)
        out = list(dict.fromkeys(out))
        if step.binding is not None:
            var, image = step.binding
            out = _substitute(out, var, image)
            bindings.append(step.binding)
        items = out
        trace.append(TraceStep(
            step.rule, consumed, step.produced,
            (step.binding,) if step.binding is not None else (),
            degree(items),
        ))

    subst = Substitution((v, t) for v, t in bindings if v in original_vars)
    return Solved(subst, tuple(trace))
