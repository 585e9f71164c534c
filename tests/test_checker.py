import pytest

import support
from support import g

from ruletypes import (
    CheckErr,
    Conj,
    ErrKind,
    ListApp,
    Match,
    Rule,
    StarVar,
    SynApp,
    TypeVar,
    Var,
    WellTyped,
    check_cond,
    check_rule,
    check_term,
    dsort,
)
from ruletypes.oracle import derivation_search, gen_instance, validate_derivation
from ruletypes.surface import build_context, parse


def labels(derivation):
    return [d.rule for d in derivation.walk()]


# ---------------------------------------------------------------------------
# check_term

def test_constant_coerces_with_erasure_then_subtyping(gamma_ex):
    out = check_term(gamma_ex, SynApp("one"), dsort("Z"))
    assert isinstance(out, WellTyped)
    assert labels(out.derivation) == ["Sub", "Gen", "T-Fun"]


def test_empty_list_is_an_axiom(gamma_ex):
    out = check_term(gamma_ex, ListApp("l"), dsort("Z", "l"))
    assert isinstance(out, WellTyped)
    assert labels(out.derivation) == ["T-Empty"]


def test_star_then_element_spine(gamma_ex):
    out = check_term(gamma_ex, ListApp("l", (StarVar("x"), Var("y"))), dsort("Z", "l"))
    assert isinstance(out, WellTyped)
    d = out.derivation
    assert d.rule == "T-Elem"
    merge, elem = d.premises
    assert [p.rule for p in (merge, elem)] == ["T-Merge", "T-Var"]
    assert [p.rule for p in merge.premises] == ["T-Empty", "T-SVar"]
    assert elem.type == g("Z")


def test_constant_never_has_a_list_type(gamma_ex):
    out = check_term(gamma_ex, SynApp("one"), dsort("Z", "l"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.NOT_SUBTYPE
    # independent exhaustive search over all rule instances agrees
    assert not derivation_search(gamma_ex, SynApp("one"), dsort("Z", "l"), depth=6)


def test_trailing_same_list_concatenation_uses_merge(gamma_ex):
    nested = ListApp("l", (SynApp("one"),))
    out = check_term(gamma_ex, ListApp("l", (Var("y"), nested)), dsort("Z", "l"))
    assert isinstance(out, WellTyped)
    assert out.derivation.rule == "T-Merge"


def test_errors_have_kinds_and_paths(gamma_ex):
    out = check_term(gamma_ex, SynApp("two"), dsort("Z"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.NO_RANK

    out = check_term(gamma_ex, SynApp("one", (Var("y"),)), dsort("Z"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.ARITY_MISMATCH

    out = check_term(gamma_ex, Var("w"), dsort("Z"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.UNDECLARED_VARIABLE

    out = check_term(gamma_ex, SynApp("one"), dsort("N", "one"))
    assert isinstance(out, WellTyped) and labels(out.derivation) == ["T-Fun"]


def test_star_variable_must_sit_in_a_list(gamma_ex):
    out = check_cond(gamma_ex, Match(StarVar("x"), Var("y"), g("Z")))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.STAR_OUTSIDE_LIST
    # inside a syntactic application the star is diagnosed before the arity
    out = check_term(gamma_ex, SynApp("one", (StarVar("x"),)), dsort("N", "one"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.STAR_OUTSIDE_LIST


def test_star_with_foreign_list_type_is_rejected():
    ctx = support.gamma_ex()
    # redeclare the star at the other variadic operator's codomain
    from ruletypes import Context, Sort, SynRank, VariadicRank
    z, n = Sort("Z"), Sort("N")
    ctx = Context(
        sorts=[z, n], subsorts=[(n, z)],
        ranks=[VariadicRank.make("l", z, z), VariadicRank.make("k", z, z),
               SynRank.make("one", [], n)],
        star_types={"x": g("Z", "k")},
    )
    out = check_term(ctx, ListApp("l", (StarVar("x"),)), dsort("Z", "l"))
    assert isinstance(out, CheckErr) and out.kind is ErrKind.EXPECTED_LIST_TYPE


def test_star_types_are_checked_right_to_left_before_the_elements(fixtures_dir):
    # L(m(),c(),w*,c(),u*): m() is not a Z and both stars are typed at M's
    # list type, so which error comes first pins the order of the list steps
    sf = parse((fixtures_dir / "lists.rules").read_text(encoding="utf-8"))
    ctx = build_context(sf)
    bad = sf.rules[2].rule.cond
    args = bad.pattern.args
    for kept, kind, path in [
        (args, ErrKind.EXPECTED_LIST_TYPE, "cond.pattern.arg[4]"),
        (args[:4], ErrKind.EXPECTED_LIST_TYPE, "cond.pattern.arg[2]"),
        (args[:2] + args[3:4], ErrKind.NOT_SUBTYPE, "cond.pattern.arg[0]"),
    ]:
        out = check_cond(ctx, Match(ListApp("L", kept), bad.subject, bad.at))
        assert isinstance(out, CheckErr) and (out.kind, out.path) == (kind, path)


def test_foreign_list_is_an_element_not_a_concatenation():
    # a nested list of a different operator with the same codomain goes
    # through the element rule, keyed on the decoration
    from ruletypes import Context, Sort, VariadicRank
    z = Sort("Z")
    ctx = Context(sorts=[z], ranks=[VariadicRank.make("l", z, z), VariadicRank.make("k", z, z)])
    out = check_term(ctx, ListApp("l", (ListApp("k"),)), dsort("Z", "l"))
    assert isinstance(out, WellTyped)
    assert out.derivation.rule == "T-Elem"
    assert labels(out.derivation.premises[1]) == ["Gen", "T-Empty"]


# ---------------------------------------------------------------------------
# check_cond / check_rule

def test_running_example_condition(gamma_ex):
    rule = support.example_rule()
    out = check_cond(gamma_ex, rule.cond)
    assert isinstance(out, WellTyped)


def test_reflexive_match(gamma_ex):
    out = check_cond(gamma_ex, Match(Var("y"), Var("y"), g("Z")))
    assert isinstance(out, WellTyped)


def test_mismatched_condition_fails(gamma_ex):
    out = check_cond(gamma_ex, Match(SynApp("one"), ListApp("l"), g("N", "one")))
    assert isinstance(out, CheckErr)
    assert out.path == "cond.subject"


def test_running_example_rule(gamma_ex):
    out = check_rule(gamma_ex, support.example_rule())
    assert isinstance(out, WellTyped)
    assert out.derivation.rule == "T-Rule"
    assert len(out.derivation.premises) == 2


def test_empty_action(gamma_ex):
    rule = Rule(support.example_rule().cond, ())
    out = check_rule(gamma_ex, rule)
    assert isinstance(out, WellTyped)
    assert len(out.derivation.premises) == 1


def test_undeclared_action_variable(gamma_ex):
    rule = Rule(support.example_rule().cond, (Var("w"),))
    out = check_rule(gamma_ex, rule)
    assert isinstance(out, CheckErr) and out.kind is ErrKind.UNDECLARED_VARIABLE


def test_a_type_variable_typing_needs_a_ground_one(gamma_ex):
    ctx = gamma_ex.with_typings({**gamma_ex.var_types, "y": TypeVar(1)}, gamma_ex.star_types)
    out = check_rule(ctx, support.example_rule())
    assert str(out) == ("UndeclaredVariable at cond.pattern.arg[1]: "
                        "y is typed by a type variable; checking needs a ground typing")


# ---------------------------------------------------------------------------
# Output invariants

def test_no_consecutive_subtype_steps_on_corpus():
    for seed in range(60):
        ctx, rule = gen_instance(seed)
        out = check_rule(ctx, rule)
        if isinstance(out, WellTyped):
            for node in out.derivation.walk():
                if node.rule == "Sub":
                    assert node.premises[0].rule != "Sub"


def test_emitted_derivations_revalidate_against_the_schemas(gamma_ex):
    out = check_rule(gamma_ex, support.example_rule())
    assert validate_derivation(gamma_ex, out.derivation) == []
    for seed in range(60):
        ctx, rule = gen_instance(seed)
        got = check_rule(ctx, rule)
        if isinstance(got, WellTyped):
            assert validate_derivation(ctx, got.derivation) == []


def test_checking_is_deterministic(gamma_ex):
    first = check_rule(gamma_ex, support.example_rule())
    second = check_rule(gamma_ex, support.example_rule())
    assert first.derivation == second.derivation
