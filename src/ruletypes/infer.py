"""Constraint generation: walks a rule expression, allocates fresh type
variables, and emits the equality/subtype constraints whose solutions are
exactly the valid typings.

List applications thread one spine variable through their whole chain of
list rules: every prefix, and every star variable or same-operator list
merged into it, concludes at the same variable as the application itself,
so no extra equalities are emitted for the sharing.

The walk builds no tree: it logs each judgment as one post-order record
with the constraints its own rule emits (``core.Record``); the constraint
set is those in log order, and ``InferResult.derivation`` is built on read.
"""

from __future__ import annotations

from itertools import chain

from .context import ELEM, Context, RuleError
from .core import (
    Cond,
    Conj,
    ConstraintSet,
    Derived,
    Eq,
    GroundType,
    ListApp,
    Match,
    Record,
    Rule,
    StarVar,
    Sub,
    SynApp,
    Term,
    TypeTerm,
    TypeVar,
    Var,
    WT,
)


class FreshSupply:
    """Hands out strictly increasing type-variable ids within one inference
    session; ids are never reissued."""

    def __init__(self, start: int = 1):
        if start < 0:
            raise ValueError("fresh supply must start at a nonnegative id")
        self._next = start

    @property
    def counter(self) -> int:
        return self._next

    def fresh(self) -> TypeVar:
        v = TypeVar(self._next)
        self._next += 1
        return v


class InferResult(Derived):
    """An inferred judgment: the type (a variable for terms, ``wt`` for
    conditions and rules), its constraint set, and the derivation."""

    def __init__(self, type: TypeTerm, records: list[Record]):
        super().__init__(records)
        self.type = type
        self.constraints = ConstraintSet(chain.from_iterable([record[4] for record in records]))


InferError = RuleError  # a public name: callers catch inference errors under it


def _names_in_order(rule: Rule) -> list[tuple[bool, str]]:
    # (is_star, name) pairs, first occurrence only, pattern before subject
    # before action.
    seen: dict[tuple[bool, str], None] = {}

    def walk_term(e: Term) -> None:
        if isinstance(e, Var):
            seen.setdefault((False, e.name))
        elif isinstance(e, StarVar):
            seen.setdefault((True, e.name))
        elif isinstance(e, (SynApp, ListApp)):
            for a in e.args:
                walk_term(a)

    def walk_cond(c: Cond) -> None:
        if isinstance(c, Match):
            walk_term(c.pattern)
            walk_term(c.subject)
        elif isinstance(c, Conj):
            for member in c.conds:
                walk_cond(member)

    walk_cond(rule.cond)
    for action in rule.actions:
        walk_term(action)
    return list(seen)


def init_context(signature: Context, rule: Rule, fresh: FreshSupply) -> Context:
    """Build the inference context: the signature's subsort declarations and
    ranks, plus one fresh type variable for every variable or star variable
    occurring in the rule that the signature does not already type with a
    ground type.  Names are collected left to right, each getting exactly one
    variable."""
    var_types = dict(signature.var_types)
    star_types = dict(signature.star_types)
    for is_star, name in _names_in_order(rule):
        table = star_types if is_star else var_types
        if not isinstance(table.get(name), GroundType):
            table[name] = fresh.fresh()
    return signature.with_typings(var_types, star_types)


def _infer_term(ctx: Context, e: Term, fresh: FreshSupply, path: str, out: list[Record],
                pin: TypeVar | None = None, star_ok: bool = False) -> TypeVar:
    if isinstance(e, (Var, StarVar)):
        binding = ctx.declared_typing(e, path, star_ok)
        alpha = pin or fresh.fresh()
        out.append(("CT-Var" if isinstance(e, Var) else "CT-SVar", e, alpha, 0, (Eq(alpha, binding),)))
        return alpha

    if isinstance(e, SynApp):
        rank = ctx.syn_rank(e, path)
        alpha = pin or fresh.fresh()
        own = [Eq(alpha, GroundType(rank.codomain))]
        for i, arg in enumerate(e.args):
            av = _infer_term(ctx, arg, fresh, f"{path}.arg[{i}]", out)
            own.append(Sub(av, GroundType(rank.domain[i])))
        out.append(("CT-Fun", e, alpha, len(e.args), own))
        return alpha

    if isinstance(e, ListApp):
        rank = ctx.var_rank(e, path)
        alpha = pin or fresh.fresh()
        out.append(("CT-Empty", (e, 0), alpha, 0, (Eq(alpha, GroundType(rank.codomain)),)))
        for i, (arg, step) in enumerate(ctx.list_steps(e)):
            # A star or merged list concludes at the spine's own variable, and
            # every step inherits the spine's equality from the empty list.
            av = _infer_term(ctx, arg, fresh, f"{path}.arg[{i}]", out,
                             pin=None if step == ELEM else alpha, star_ok=True)
            own = (Sub(av, GroundType(rank.elem)),) if step == ELEM else ()
            out.append((f"CT-{step}", (e, i + 1), alpha, 2, own))
        return alpha

    raise TypeError(f"unexpected term {e!r}")


def infer_term(ctx: Context, e: Term, fresh: FreshSupply) -> InferResult:
    """Infer one term: a fresh conclusion variable plus its constraint set."""
    out: list[Record] = []
    alpha = _infer_term(ctx, e, fresh, "term", out)
    return InferResult(alpha, out)


def _infer_cond(ctx: Context, c: Cond, fresh: FreshSupply, path: str, out: list[Record]) -> Cond:
    # Returns the condition with every match annotation filled in.
    if isinstance(c, Match):
        annotation: TypeTerm = c.at if c.at is not None else fresh.fresh()
        pat_var = _infer_term(ctx, c.pattern, fresh, f"{path}.pattern", out)
        sub_var = _infer_term(ctx, c.subject, fresh, f"{path}.subject", out)
        subject = Match(c.pattern, c.subject, annotation)
        out.append(("CT-Match", subject, WT, 2, (Sub(pat_var, annotation), Eq(sub_var, annotation))))
        return subject

    if isinstance(c, Conj):
        subject = Conj(tuple(_infer_cond(ctx, member, fresh, f"{path}[{i}]", out)
                             for i, member in enumerate(c.conds)))
        out.append(("CT-Conj", subject, WT, len(c.conds), ()))
        return subject

    raise TypeError(f"unexpected condition {c!r}")


def infer_cond(ctx: Context, c: Cond, fresh: FreshSupply) -> InferResult:
    """Infer a condition; a missing match annotation gets a fresh variable."""
    out: list[Record] = []
    _infer_cond(ctx, c, fresh, "cond", out)
    return InferResult(WT, out)


def infer_rule(ctx: Context, r: Rule, fresh: FreshSupply) -> InferResult:
    """Infer a whole rule: the condition's constraints, each action term's
    constraints, and one reflexive equality recording the declared typing of
    every variable-headed action term."""
    out: list[Record] = []
    cond = _infer_cond(ctx, r.cond, fresh, "cond", out)
    action_typings: list[TypeTerm] = []
    for i, action in enumerate(r.actions):
        path = f"action[{i}]"
        action_typings.append(ctx.declared_typing(action, path))
        _infer_term(ctx, action, fresh, path, out)
    own = [Eq(typing, typing) for typing in action_typings if isinstance(typing, TypeVar)]
    out.append(("CT-Rule", Rule(cond, r.actions), WT, 1 + len(r.actions), own))
    return InferResult(WT, out)
