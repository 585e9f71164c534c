"""Type checking and inference for rule expressions over many-sorted
signatures with subtyping, decorated sorts, and variadic list operators,
plus a resolution algorithm for the generated equality/subtype constraints
and a brute-force oracle for validating it."""

from .checker import CheckErr, WellTyped, check_cond, check_rule, check_term
from .context import Context, ErrKind, RuleError, SynRank, VariadicRank, Violation, validate
from .core import (
    ANY,
    WT,
    Conj,
    Constraint,
    ConstraintSet,
    DecoratedSort,
    Decoration,
    Derivation,
    Eq,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    Sub,
    Substitution,
    SynApp,
    Term,
    TypeTerm,
    TypeVar,
    Var,
    apply_subst,
    dsort,
    free_type_vars,
    subst_satisfies,
)
from .infer import FreshSupply, InferError, InferResult, infer_cond, infer_rule, infer_term, init_context
from .solver import Failed, Solved, SolveOutcome, Stuck, degree, detect_failure, solve
from .surface import ParseError, SourceFile, build_context, parse, pretty, render_instance

__all__ = [name for name in dir() if not name.startswith("_")]
