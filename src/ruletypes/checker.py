"""The decorated type-checking system as a deterministic, syntax-directed
algorithm.

Each term gets its structural derivation first (leaf rules, operator rules,
or the chain of list rules, one step per argument), then at most one
decoration-erasing step and one subtype step coerce the structural type to
the expected one; the coercion rules are applied only when no structural
rule fits, which is what makes the algorithm deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .context import ELEM, STAR, Context, ErrKind, RuleError
from .core import (
    Cond,
    Conj,
    DecoratedSort,
    Derivation,
    GroundType,
    ListApp,
    Match,
    Rule,
    StarVar,
    SynApp,
    Term,
    Var,
    WT,
)


@dataclass(frozen=True)
class WellTyped:
    derivation: Derivation


@dataclass(frozen=True)
class CheckErr:
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


def _structural(ctx: Context, e: Term, path: str, star_ok: bool = False) -> Derivation:
    if isinstance(e, (Var, StarVar)):
        rule = "T-Var" if isinstance(e, Var) else "T-SVar"
        return Derivation(rule, e, GroundType(_declared_dsort(ctx, e, path, star_ok)))

    if isinstance(e, SynApp):
        rank = ctx.syn_rank(e, path)
        premises = tuple(
            _check(ctx, arg, rank.domain[i], f"{path}.arg[{i}]")
            for i, arg in enumerate(e.args)
        )
        return Derivation("T-Fun", e, GroundType(rank.codomain), premises)

    if isinstance(e, ListApp):
        rank = ctx.var_rank(e, path)
        codomain = rank.codomain
        steps = list(enumerate(ctx.list_steps(e)))
        # Every star's declared type is checked before any element, rightmost
        # first: T-Merge checks its own star before its spine premise.
        for i, (_, arg, step) in reversed(steps):
            if step == STAR:
                arg_path = f"{path}.arg[{i}]"
                declared = _declared_dsort(ctx, arg, arg_path, star_ok=True)
                if declared != codomain:
                    raise RuleError(ErrKind.EXPECTED_LIST_TYPE, arg_path,
                                    f"star variable {arg} is typed {declared}, but {e.op} builds {codomain}")
        d = Derivation("T-Empty", ListApp(e.op), GroundType(codomain))
        for i, (prefix, arg, step) in steps:
            expected = rank.elem if step == ELEM else codomain
            premise = _check(ctx, arg, expected, f"{path}.arg[{i}]", star_ok=True)
            d = Derivation("T-Elem" if step == ELEM else "T-Merge", prefix, GroundType(codomain),
                           (d, premise))
        return d

    raise TypeError(f"unexpected term {e!r}")


def _coerce(ctx: Context, e: Term, d: Derivation, expected: DecoratedSort, path: str) -> Derivation:
    assert isinstance(d.type, GroundType)
    t = d.type.dsort
    if t == expected:
        return d
    structural = t
    if expected.deco.is_any and not t.deco.is_any:
        # Decoration erasure applies only to a term sitting at its own
        # declared type, with a real operator decoration.
        t = DecoratedSort(t.sort)
        d = Derivation("Gen", e, GroundType(t), (d,))
        if t == expected:
            return d
    if ctx.subtype_holds(t, expected):
        return Derivation("Sub", e, GroundType(expected), (d,))
    raise RuleError(ErrKind.NOT_SUBTYPE, path, f"cannot use {structural} where {expected} is required")


def _check(ctx: Context, e: Term, expected: DecoratedSort, path: str, star_ok: bool = False) -> Derivation:
    return _coerce(ctx, e, _structural(ctx, e, path, star_ok), expected, path)


def _check_cond(ctx: Context, c: Cond, path: str) -> Derivation:
    if isinstance(c, Match):
        if not isinstance(c.at, GroundType):
            raise ValueError(f"checking needs a ground match annotation at {path}, got {c.at}")
        at = c.at.dsort
        premises = (
            _check(ctx, c.pattern, at, f"{path}.pattern"),
            _check(ctx, c.subject, at, f"{path}.subject"),
        )
        return Derivation("T-Match", c, WT, premises)
    if isinstance(c, Conj):
        premises = tuple(
            _check_cond(ctx, member, f"{path}[{i}]") for i, member in enumerate(c.conds)
        )
        return Derivation("T-Conj", c, WT, premises)
    raise TypeError(f"unexpected condition {c!r}")


def check_term(ctx: Context, e: Term, expected: DecoratedSort) -> CheckOutcome:
    """Check one term against an expected decorated sort."""
    try:
        return WellTyped(_check(ctx, e, expected, "term"))
    except RuleError as exc:
        return CheckErr(exc.kind, exc.path, exc.detail)


def check_cond(ctx: Context, c: Cond) -> CheckOutcome:
    """Check a condition: both sides of every match against its annotation."""
    try:
        return WellTyped(_check_cond(ctx, c, "cond"))
    except RuleError as exc:
        return CheckErr(exc.kind, exc.path, exc.detail)


def check_rule(ctx: Context, r: Rule) -> CheckOutcome:
    """Check a rule: its condition, plus each action term against the term's
    own declared type."""
    try:
        premises = [_check_cond(ctx, r.cond, "cond")]
        for i, action in enumerate(r.actions):
            path = f"action[{i}]"
            premises.append(_check(ctx, action, _declared_dsort(ctx, action, path), path))
        return WellTyped(Derivation("T-Rule", r, WT, tuple(premises)))
    except RuleError as exc:
        return CheckErr(exc.kind, exc.path, exc.detail)
