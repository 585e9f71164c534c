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

from .context import ELEM, Context, RuleError, within
from .core import (
    Cond,
    Conj,
    ConstraintSet,
    Derived,
    DecoratedSort,
    Eq,
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
    interned,
)

_type_vars = interned(TypeVar)
_pair = tuple.__new__  # a constraint of two sides that are never wt, made with no Python call


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
        v = _type_vars[(self._next,)]
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
    # before action: a walk in that order, with an explicit stack.
    seen: dict[tuple[bool, str], None] = {}
    stack: list[Term] = [*reversed(rule.actions)]
    for m in reversed(rule.matches):
        stack += (m.subject, m.pattern)
    while stack:
        e = stack.pop()
        cls = e.__class__
        if cls is Var or cls is StarVar:
            seen.setdefault((cls is StarVar, e.name))
        elif cls is SynApp or cls is ListApp:
            stack.extend(reversed(e.args))
    return list(seen)


def init_context(signature: Context, rule: Rule, fresh: FreshSupply) -> Context:
    """Build the inference context: the signature's subsort declarations and
    ranks, plus one fresh type variable for every variable or star variable
    occurring in the rule that the signature does not already type with a
    decorated sort.  Names are collected left to right, each getting exactly one
    variable."""
    var_types = dict(signature.var_types)
    star_types = dict(signature.star_types)
    for is_star, name in _names_in_order(rule):
        table = star_types if is_star else var_types
        if table.get(name).__class__ is not DecoratedSort:
            table[name] = fresh.fresh()
    return signature.with_typings(var_types, star_types)


def _infer_term(ctx: Context, e: Term, fresh: FreshSupply, out: list[Record],
                pin: TypeVar | None = None, star_ok: bool = False) -> TypeVar:
    # Reads the context's tables; its diagnosis methods run only if that fails.
    cls = e.__class__
    if cls is Var or cls is StarVar:
        binding = ((ctx._var_types.get(e.name) if cls is Var else ctx._star_types.get(e.name) if star_ok else None)
                   or ctx.declared_typing(e, star_ok))  # the diagnosis: it raises
        alpha = pin or fresh.fresh()
        out.append(("CT-Var" if cls is Var else "CT-SVar", e, alpha, 0, (_pair(Eq, (alpha, binding)),)))
        return alpha

    if cls is SynApp:
        rank, args = ctx._syn_ranks.get(e.op), e.args
        if rank is None or len(args) != len(rank.domain):
            rank = ctx.syn_rank(e)  # the diagnosis: it raises
        alpha = pin or fresh.fresh()
        own = [_pair(Eq, (alpha, rank.codomain))]
        try:
            for i, arg in enumerate(args):
                own.append(_pair(Sub, (_infer_term(ctx, arg, fresh, out), rank.domain[i])))
        except RuleError as exc:
            ctx.syn_rank(e)  # a star argument is e's own defect, diagnosed first
            raise exc.prefix(f".arg[{i}]")
        out.append(("CT-Fun", e, alpha, len(args), own))
        return alpha

    if cls is ListApp:
        rank = ctx._var_ranks.get(e.op) or ctx.var_rank(e)
        alpha = pin or fresh.fresh()
        out.append(("CT-Empty", (e, 0), alpha, 0, (_pair(Eq, (alpha, rank.codomain)),)))
        try:
            for i, (arg, step) in enumerate(ctx.list_steps(e)):
                # A star or merged list concludes at the spine's own variable, and
                # every step inherits the spine's equality from the empty list.
                av = _infer_term(ctx, arg, fresh, out, None if step == ELEM else alpha, True)
                own = (_pair(Sub, (av, rank.elem)),) if step == ELEM else ()
                out.append(("CT-" + step, (e, i + 1), alpha, 2, own))
        except RuleError as exc:
            raise exc.prefix(f".arg[{i}]")
        return alpha

    raise TypeError(f"unexpected term {e!r}")


def infer_term(ctx: Context, e: Term, fresh: FreshSupply) -> InferResult:
    """Infer one term: a fresh conclusion variable plus its constraint set."""
    out: list[Record] = []
    return InferResult(within("term", _infer_term, ctx, e, fresh, out), out)


def _infer_match(ctx: Context, m: Match, fresh: FreshSupply, out: list[Record]) -> Match:
    # Returns the match with its annotation filled in.
    annotation: TypeTerm = m.at if m.at is not None else fresh.fresh()
    pat_var = within(".pattern", _infer_term, ctx, m.pattern, fresh, out)
    sub_var = within(".subject", _infer_term, ctx, m.subject, fresh, out)
    subject = Match(m.pattern, m.subject, annotation)
    out.append(("CT-Match", subject, WT, 2, (Sub(pat_var, annotation), Eq(sub_var, annotation))))
    return subject


def _infer_cond(ctx: Context, c: Cond, fresh: FreshSupply, out: list[Record]) -> Cond:
    # Returns the condition with every match annotation filled in.
    if not isinstance(c, Conj):
        return _infer_match(ctx, c, fresh, out)
    subject = Conj([within(("[%d]", i), _infer_match, ctx, m, fresh, out) for i, m in enumerate(c.conds)])
    out.append(("CT-Conj", subject, WT, len(c.conds), ()))
    return subject


def infer_cond(ctx: Context, c: Cond, fresh: FreshSupply) -> InferResult:
    """Infer a condition; a missing match annotation gets a fresh variable."""
    out: list[Record] = []
    within("cond", _infer_cond, ctx, c, fresh, out)
    return InferResult(WT, out)


def infer_rule(ctx: Context, r: Rule, fresh: FreshSupply) -> InferResult:
    """Infer a whole rule: the condition's constraints, each action term's
    constraints, and one reflexive equality recording the declared typing of
    every variable-headed action term."""
    out: list[Record] = []
    cond = within("cond", _infer_cond, ctx, r.cond, fresh, out)
    action_typings: list[TypeTerm] = []
    for i, action in enumerate(r.actions):
        step = ("action[%d]", i)
        action_typings.append(within(step, ctx.declared_typing, action))
        within(step, _infer_term, ctx, action, fresh, out)
    own = [Eq(typing, typing) for typing in action_typings if isinstance(typing, TypeVar)]
    out.append(("CT-Rule", Rule(cond, r.actions), WT, 1 + len(r.actions), own))
    return InferResult(WT, out)
