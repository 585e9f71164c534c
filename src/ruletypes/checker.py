"""The decorated type-checking system as a deterministic, syntax-directed
algorithm.

Each term gets its structural derivation first (leaf rules, operator rules,
or the chain of list rules, one step per argument), then at most one
decoration-erasing step and one subtype step coerce the structural type to
the expected one; the coercion rules are applied only when no structural
rule fits, which is what makes the algorithm deterministic.

The walk builds no tree: it logs each judgment as one post-order record
(``core.Record``), and ``WellTyped.derivation`` is built from them on read.
"""

from __future__ import annotations

from typing import Callable, Union

from .context import ELEM, STAR, Context, ErrKind, RuleError, within
from .core import (
    ANY,
    Cond,
    Conj,
    DecoratedSort,
    Derived,
    ListApp,
    Match,
    Record,
    Rule,
    StarVar,
    SynApp,
    Term,
    Value,
    Var,
    WT,
    interned,
)

_decorated = interned(DecoratedSort)


class WellTyped(Derived):
    """An accepted term, condition or rule; ``derivation`` is its checking
    derivation."""


class CheckErr(Value):
    kind: ErrKind
    path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.path}: {self.detail}"


CheckOutcome = Union[WellTyped, CheckErr]


# ---------------------------------------------------------------------------
# Decorated system

def _declared_dsort(ctx: Context, e: Term, star_ok: bool = False) -> DecoratedSort:
    tt = ctx.declared_typing(e, star_ok)
    if isinstance(tt, DecoratedSort):
        return tt
    raise RuleError(ErrKind.UNDECLARED_VARIABLE, "",
                    f"{e} is typed by a type variable; checking needs a ground typing")


def _coerce(ctx: Context, e: Term, t: DecoratedSort, expected: DecoratedSort, out: list[Record]) -> None:
    structural = t
    if expected.deco is ANY and t.deco is not ANY:
        # Decoration erasure applies only to a term sitting at its own
        # declared type, with a real operator decoration.
        t = _decorated[t.sort, ANY]
        out.append(("Gen", e, t, 1, None))
        if t is expected:
            return
    if ctx.subtype_holds(t, expected):
        out.append(("Sub", e, expected, 1, None))
        return
    raise RuleError(ErrKind.NOT_SUBTYPE, "", f"cannot use {structural} where {expected} is required")


def _check(ctx: Context, e: Term, expected: DecoratedSort, out: list[Record], star_ok: bool = False) -> None:
    # One call per nesting level: the structural type t, then its coercion.
    # Reads the context's tables; its diagnosis methods run only if that fails.
    cls = e.__class__
    if cls is Var or cls is StarVar:
        t = _declared_dsort(ctx, e, star_ok)
        out.append(("T-Var" if cls is Var else "T-SVar", e, t, 0, None))
    elif cls is SynApp:
        rank, args = ctx._syn_ranks.get(e.op), e.args
        if rank is None or len(args) != len(rank.domain):
            rank = ctx.syn_rank(e)  # the diagnosis: it raises
        try:
            for i, arg in enumerate(args):
                _check(ctx, arg, rank.domain[i], out)
        except RuleError as exc:
            ctx.syn_rank(e)  # a star argument is e's own defect, diagnosed first
            raise exc.prefix(f".arg[{i}]")
        t = rank.codomain
        out.append(("T-Fun", e, t, len(args), None))
    elif cls is ListApp:
        rank = ctx._var_ranks.get(e.op) or ctx.var_rank(e)
        t = rank.codomain
        steps = list(enumerate(ctx.list_steps(e)))
        try:
            # Every star's declared type is checked before any element, rightmost
            # first: T-Merge checks its own star before its spine premise.
            for i, (arg, step) in reversed(steps):
                if step == STAR and (declared := _declared_dsort(ctx, arg, star_ok=True)) is not t:
                    raise RuleError(ErrKind.EXPECTED_LIST_TYPE, "",
                                    f"star variable {arg} is typed {declared}, but {e.op} builds {t}")
            out.append(("T-Empty", (e, 0), t, 0, None))
            for i, (arg, step) in steps:
                _check(ctx, arg, rank.elem if step == ELEM else t, out, star_ok=True)
                out.append(("T-Elem" if step == ELEM else "T-Merge", (e, i + 1), t, 2, None))
        except RuleError as exc:
            raise exc.prefix(f".arg[{i}]")
    else:
        raise TypeError(f"unexpected term {e!r}")
    if t is not expected:
        _coerce(ctx, e, t, expected, out)


def _check_match(ctx: Context, m: Match, out: list[Record]) -> None:
    if not isinstance(m.at, DecoratedSort):
        raise ValueError(f"checking needs a ground match annotation, got {m.at}")
    within(".pattern", _check, ctx, m.pattern, m.at, out)
    within(".subject", _check, ctx, m.subject, m.at, out)
    out.append(("T-Match", m, WT, 2, None))


def _check_cond(ctx: Context, c: Cond, out: list[Record]) -> None:
    if not isinstance(c, Conj):
        return _check_match(ctx, c, out)
    for i, m in enumerate(c.conds):
        within(("[%d]", i), _check_match, ctx, m, out)
    out.append(("T-Conj", c, WT, len(c.conds), None))


def _verdict(walk: Callable[..., None], *args) -> CheckOutcome:
    out: list[Record] = []
    try:
        walk(*args, out)
    except RuleError as exc:
        return CheckErr(exc.kind, exc.path, exc.detail)
    return WellTyped(out)


def check_term(ctx: Context, e: Term, expected: DecoratedSort) -> CheckOutcome:
    """Check one term against an expected decorated sort."""
    return _verdict(within, "term", _check, ctx, e, expected)


def check_cond(ctx: Context, c: Cond) -> CheckOutcome:
    """Check a condition: both sides of every match against its annotation."""
    return _verdict(within, "cond", _check_cond, ctx, c)


def _check_rule(ctx: Context, r: Rule, out: list[Record]) -> None:
    within("cond", _check_cond, ctx, r.cond, out)
    for i, action in enumerate(r.actions):
        step = ("action[%d]", i)
        within(step, _check, ctx, action, within(step, _declared_dsort, ctx, action), out)
    out.append(("T-Rule", r, WT, 1 + len(r.actions), None))


def check_rule(ctx: Context, r: Rule) -> CheckOutcome:
    """Check a rule: its condition, plus each action term against the term's
    own declared type."""
    return _verdict(_check_rule, ctx, r)
