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

from .context import ELEM, STAR, Context, ErrKind, RuleError
from .core import (
    Cond,
    Conj,
    DecoratedSort,
    Derived,
    GroundType,
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
)


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

def _declared_dsort(ctx: Context, e: Term, path: str, star_ok: bool = False) -> DecoratedSort:
    tt = ctx.declared_typing(e, path, star_ok)
    if isinstance(tt, GroundType):
        return tt.dsort
    raise RuleError(ErrKind.UNDECLARED_VARIABLE, path,
                    f"{e} is typed by a type variable; checking needs a ground typing")


def _structural(ctx: Context, e: Term, path: str, out: list[Record], star_ok: bool = False) -> DecoratedSort:
    if isinstance(e, (Var, StarVar)):
        t = _declared_dsort(ctx, e, path, star_ok)
        out.append(("T-Var" if isinstance(e, Var) else "T-SVar", e, t, 0, None))
        return t

    if isinstance(e, SynApp):
        rank = ctx.syn_rank(e, path)
        for i, arg in enumerate(e.args):
            _check(ctx, arg, rank.domain[i], f"{path}.arg[{i}]", out)
        out.append(("T-Fun", e, rank.codomain, len(e.args), None))
        return rank.codomain

    if isinstance(e, ListApp):
        rank = ctx.var_rank(e, path)
        codomain = rank.codomain
        steps = list(enumerate(ctx.list_steps(e)))
        # Every star's declared type is checked before any element, rightmost
        # first: T-Merge checks its own star before its spine premise.
        for i, (arg, step) in reversed(steps):
            if step == STAR:
                arg_path = f"{path}.arg[{i}]"
                declared = _declared_dsort(ctx, arg, arg_path, star_ok=True)
                if declared != codomain:
                    raise RuleError(ErrKind.EXPECTED_LIST_TYPE, arg_path,
                                    f"star variable {arg} is typed {declared}, but {e.op} builds {codomain}")
        out.append(("T-Empty", (e, 0), codomain, 0, None))
        for i, (arg, step) in steps:
            expected = rank.elem if step == ELEM else codomain
            _check(ctx, arg, expected, f"{path}.arg[{i}]", out, star_ok=True)
            out.append(("T-Elem" if step == ELEM else "T-Merge", (e, i + 1), codomain, 2, None))
        return codomain

    raise TypeError(f"unexpected term {e!r}")


def _coerce(ctx: Context, e: Term, t: DecoratedSort, expected: DecoratedSort, path: str,
            out: list[Record]) -> None:
    if t == expected:
        return
    structural = t
    if expected.deco.is_any and not t.deco.is_any:
        # Decoration erasure applies only to a term sitting at its own
        # declared type, with a real operator decoration.
        t = DecoratedSort(t.sort)
        out.append(("Gen", e, t, 1, None))
        if t == expected:
            return
    if ctx.subtype_holds(t, expected):
        out.append(("Sub", e, expected, 1, None))
        return
    raise RuleError(ErrKind.NOT_SUBTYPE, path, f"cannot use {structural} where {expected} is required")


def _check(ctx: Context, e: Term, expected: DecoratedSort, path: str, out: list[Record],
           star_ok: bool = False) -> None:
    _coerce(ctx, e, _structural(ctx, e, path, out, star_ok), expected, path, out)


def _check_cond(ctx: Context, c: Cond, path: str, out: list[Record]) -> None:
    if isinstance(c, Match):
        if not isinstance(c.at, GroundType):
            raise ValueError(f"checking needs a ground match annotation at {path}, got {c.at}")
        at = c.at.dsort
        _check(ctx, c.pattern, at, f"{path}.pattern", out)
        _check(ctx, c.subject, at, f"{path}.subject", out)
        out.append(("T-Match", c, WT, 2, None))
    elif isinstance(c, Conj):
        for i, member in enumerate(c.conds):
            _check_cond(ctx, member, f"{path}[{i}]", out)
        out.append(("T-Conj", c, WT, len(c.conds), None))
    else:
        raise TypeError(f"unexpected condition {c!r}")


def _verdict(walk: Callable[..., None], *args) -> CheckOutcome:
    out: list[Record] = []
    try:
        walk(*args, out)
    except RuleError as exc:
        return CheckErr(exc.kind, exc.path, exc.detail)
    return WellTyped(out)


def check_term(ctx: Context, e: Term, expected: DecoratedSort) -> CheckOutcome:
    """Check one term against an expected decorated sort."""
    return _verdict(_check, ctx, e, expected, "term")


def check_cond(ctx: Context, c: Cond) -> CheckOutcome:
    """Check a condition: both sides of every match against its annotation."""
    return _verdict(_check_cond, ctx, c, "cond")


def _check_rule(ctx: Context, r: Rule, out: list[Record]) -> None:
    _check_cond(ctx, r.cond, "cond", out)
    for i, action in enumerate(r.actions):
        path = f"action[{i}]"
        _check(ctx, action, _declared_dsort(ctx, action, path), path, out)
    out.append(("T-Rule", r, WT, 1 + len(r.actions), None))


def check_rule(ctx: Context, r: Rule) -> CheckOutcome:
    """Check a rule: its condition, plus each action term against the term's
    own declared type."""
    return _verdict(_check_rule, ctx, r)
