import pathlib
from collections import Counter

import pytest

import support
from support import a, g

from ruletypes import (
    CheckErr,
    Conj,
    Context,
    Eq,
    ErrKind,
    FreshSupply,
    InferError,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    Sub,
    SynApp,
    SynRank,
    Var,
    check_rule,
    check_term,
    dsort,
    infer_cond,
    infer_rule,
    infer_term,
    init_context,
)
from ruletypes.core import ConstraintSet, GroundType, TypeVar, free_type_vars
from ruletypes.oracle import gen_instance
from ruletypes.surface import build_context, parse, resolve_rule


def inference_context():
    sig = support.example_signature()
    rule = support.example_rule(annotated=False)
    fresh = FreshSupply()
    return init_context(sig, rule, fresh), rule, fresh


# ---------------------------------------------------------------------------
# init_context

def test_variables_collected_left_to_right():
    gamma, _, fresh = inference_context()
    assert gamma.star_types["x"] == a(1)
    assert gamma.var_types["y"] == a(2)
    assert gamma.star_types["z"] == a(3)
    assert fresh.counter == 4


def test_rule_without_variables_adds_nothing():
    sig = support.example_signature()
    rule = Rule(Match(SynApp("one"), SynApp("one"), g("N")), ())
    gamma = init_context(sig, rule, FreshSupply())
    assert gamma.var_types == {} and gamma.star_types == {}


def test_repeated_variable_gets_one_binding():
    sig = support.example_signature()
    cond = Conj((Match(Var("v"), Var("v"), g("Z")), Match(Var("v"), SynApp("one"), g("Z"))))
    gamma = init_context(sig, Rule(cond, ()), FreshSupply())
    assert gamma.var_types == {"v": a(1)}


def test_ground_typings_are_kept():
    sig = support.gamma_ex()
    gamma = init_context(sig, support.example_rule(annotated=False), FreshSupply())
    assert gamma.var_types["y"] == g("Z")
    assert gamma.star_types["x"] == g("Z", "l")


# ---------------------------------------------------------------------------
# infer_term

def test_empty_list():
    gamma, _, fresh = inference_context()
    res = infer_term(gamma, ListApp("l"), fresh)
    assert res.constraints == ConstraintSet([Eq(res.type, g("Z", "l"))])
    assert res.derivation.rule == "CT-Empty"


def test_constant():
    gamma, _, fresh = inference_context()
    res = infer_term(gamma, SynApp("one"), fresh)
    assert res.constraints == ConstraintSet([Eq(res.type, g("N", "one"))])


def test_singleton_list_of_a_constant():
    gamma, _, fresh = inference_context()
    res = infer_term(gamma, ListApp("l", (SynApp("one"),)), fresh)
    alpha, d = res.type, res.derivation
    assert d.rule == "CT-Elem"
    elem_var = d.premises[1].type
    assert res.constraints == ConstraintSet([
        Eq(alpha, g("Z", "l")),
        Eq(elem_var, g("N", "one")),
        Sub(elem_var, g("Z")),
    ])


def test_variable_lookup_schema_instance():
    ctx = Context(sorts=[Sort("Z")], var_types={"x": a(1)})
    fresh = FreshSupply(start=2)
    res = infer_term(ctx, Var("x"), fresh)
    assert res.type == a(2)
    assert res.constraints == ConstraintSet([Eq(a(2), a(1))])


def test_spine_variable_is_shared_down_the_whole_spine():
    gamma, rule, fresh = inference_context()
    pattern = rule.cond.pattern
    res = infer_term(gamma, pattern, fresh)
    spine = res.type
    by_subject = {str(node.subject): node for node in res.derivation.walk()}
    for subject in ("l(x*,y,z*)", "l(x*,y)", "l(x*)", "l()", "x*", "z*"):
        assert by_subject[subject].type == spine
    assert by_subject["y"].type != spine


def test_star_inside_syntactic_application_is_an_error():
    gamma, _, fresh = inference_context()
    with pytest.raises(InferError) as exc:
        infer_term(gamma, SynApp("one", (StarVar("x"),)), fresh)
    assert exc.value.kind is ErrKind.STAR_OUTSIDE_LIST


def test_undeclared_symbols_raise():
    gamma, _, fresh = inference_context()
    with pytest.raises(InferError):
        infer_term(gamma, Var("nope"), fresh)
    with pytest.raises(InferError):
        infer_term(gamma, SynApp("missing"), fresh)


# ---------------------------------------------------------------------------
# infer_cond / infer_rule

def test_match_links_both_sides_to_the_annotation():
    gamma, rule, fresh = inference_context()
    res = infer_cond(gamma, rule.cond, fresh)
    d = res.derivation
    annotation = d.subject.at
    assert isinstance(annotation, TypeVar)
    pattern_var, subject_var = d.premises[0].type, d.premises[1].type
    assert Sub(pattern_var, annotation) in res.constraints
    assert Eq(subject_var, annotation) in res.constraints


def test_conjunction_unions_member_sets():
    gamma, _, fresh = inference_context()
    m = Match(Var("y"), Var("y"), g("Z"))
    single = infer_cond(gamma, m, FreshSupply(start=fresh.counter))
    double = infer_cond(gamma, Conj((m, m)), fresh)
    # same schema twice: distinct fresh variables, union without duplicates
    assert len(double.constraints) == 2 * len(single.constraints)


def test_rule_emits_reflexive_typing_for_variable_actions():
    gamma, rule, fresh = inference_context()
    res = infer_rule(gamma, rule, fresh)
    y_typing = gamma.var_types["y"]
    assert Eq(y_typing, y_typing) in res.constraints


def test_rule_with_empty_action_adds_nothing():
    gamma, rule, fresh = inference_context()
    bare = Rule(rule.cond, ())
    res_bare = infer_rule(gamma, bare, FreshSupply(start=4))
    res_cond = infer_cond(gamma, rule.cond, FreshSupply(start=4))
    assert res_bare.constraints == res_cond.constraints


def test_rule_with_constant_action():
    gamma, rule, fresh = inference_context()
    res = infer_rule(gamma, Rule(rule.cond, (SynApp("one"),)), fresh)
    action_var = res.derivation.premises[1].type
    assert Eq(action_var, g("N", "one")) in res.constraints
    # ground action typings do not add a reflexive ground equality
    assert all(
        isinstance(c.lhs, TypeVar) or isinstance(c.rhs, TypeVar)
        for c in res.constraints
    )


def test_rule_with_undeclared_action():
    gamma, rule, fresh = inference_context()
    with pytest.raises(InferError) as exc:
        infer_rule(gamma, Rule(rule.cond, (Var("w"),)), fresh)
    assert exc.value.kind is ErrKind.UNDECLARED_VARIABLE


def _malformed_terms():
    x, y, q, one = StarVar("x"), Var("y"), Var("q"), SynApp("one")
    return {
        "g()": SynApp("g"),
        "s(x*)": SynApp("s", (x,)),
        "s()": SynApp("s"),
        "s(one(),one())": SynApp("s", (one, one)),
        "m()": ListApp("m"),
        "l(y,s(x*,q))": ListApp("l", (y, SynApp("s", (x, q)))),
        "s(x*,x*,y)": SynApp("s", (x, x, y)),
        "s(q)": SynApp("s", (q,)),
        "l(w*)": ListApp("l", (StarVar("w"),)),
        "x*": x,
        "w*": StarVar("w"),
        "rule x << [Z] x -> (g(x))": Rule(Match(Var("x"), Var("x"), g("Z")), (SynApp("g", (Var("x"),)),)),
    }


@pytest.mark.parametrize("text", list(_malformed_terms()))
def test_checking_and_inference_reject_at_the_same_place(text):
    # Both algorithms diagnose a malformed term or rule with the same kind,
    # path and detail.
    base = support.gamma_ex()
    ctx = Context(sorts=base.sorts, subsorts=base.subsort_decls,
                  ranks=[*base.syn_ranks.values(), *base.var_ranks.values(),
                         SynRank.make("s", [Sort("Z")], Sort("N"))],
                  var_types={**base.var_types, "x": g("Z")}, star_types=base.star_types)
    subject = _malformed_terms()[text]
    if isinstance(subject, Rule):
        checked = check_rule(ctx, subject)
    else:
        checked = check_term(ctx, subject, dsort("Z"))
    assert isinstance(checked, CheckErr)
    with pytest.raises(InferError) as exc:
        if isinstance(subject, Rule):
            infer_rule(ctx, subject, FreshSupply())
        else:
            infer_term(ctx, subject, FreshSupply())
    assert (exc.value.kind, exc.value.path, exc.value.detail) == (
        checked.kind, checked.path, checked.detail)


@pytest.mark.parametrize("rule, path", [
    (Rule(Match(StarVar("x"), Var("y"), g("Z")), ()), "cond.pattern"),
    (Rule(Match(Var("y"), Var("y"), g("Z")), (StarVar("w"),)), "action[0]"),
], ids=["declared-pattern", "undeclared-action"])
def test_a_bare_star_is_rejected_by_both_algorithms(rule, path):
    # A star variable stands for a list segment, so outside a list it is
    # diagnosed before its typing is looked up, whether declared (x*) or not (w*).
    ctx = support.gamma_ex()
    checked = check_rule(ctx, rule)
    assert isinstance(checked, CheckErr)
    assert (checked.kind, checked.path) == (ErrKind.STAR_OUTSIDE_LIST, path)
    with pytest.raises(InferError) as exc:
        infer_rule(ctx, rule, FreshSupply())
    assert (exc.value.kind, exc.value.path) == (ErrKind.STAR_OUTSIDE_LIST, path)


# ---------------------------------------------------------------------------
# Invariants

def test_every_constraint_keeps_a_variable_side():
    for seed in range(60):
        ctx, rule = gen_instance(seed)
        sig = Context(sorts=ctx.sorts, subsorts=ctx.subsort_decls,
                      ranks=list(ctx.syn_ranks.values()) + list(ctx.var_ranks.values()))
        fresh = FreshSupply()
        gamma = init_context(sig, rule, fresh)
        res = infer_rule(gamma, rule, fresh)
        for c in res.constraints:
            assert isinstance(c.lhs, TypeVar) or isinstance(c.rhs, TypeVar), str(c)


def test_fresh_conclusions_never_collide_across_subtrees():
    gamma, rule, fresh = inference_context()
    res = infer_rule(gamma, rule, fresh)
    match = res.derivation.premises[0]
    pattern_var = match.premises[0].type
    subject_var = match.premises[1].type
    annotation = match.subject.at
    action_var = res.derivation.premises[1].type
    distinct = {pattern_var, subject_var, annotation, action_var}
    assert len(distinct) == 4


def test_inference_is_deterministic():
    gamma, rule, _ = inference_context()
    r1 = infer_rule(gamma, rule, FreshSupply(start=4))
    r2 = infer_rule(gamma, rule, FreshSupply(start=4))
    assert r1.derivation == r2.derivation


def _inferred_rules(source):
    sf = parse(source)
    ctx = build_context(sf)
    for decl in sf.rules:
        rule = resolve_rule(decl, ctx)
        fresh = FreshSupply()
        yield infer_rule(init_context(ctx, rule, fresh), rule, fresh)


LISTS = (pathlib.Path(__file__).parent / "fixtures" / "lists.rules").read_text(encoding="utf-8")


@pytest.mark.parametrize("source, emitted", [
    (LISTS, [5, 22, 13]),
    (support.wide_rule(40), [214]),
    (support.wide_rule(80), [422]),
    (support.wide_rule(160), [838]),
], ids=["lists.rules", "wide-40", "wide-80", "wide-160"])
def test_list_steps_emit_only_their_element_bound(source, emitted):
    # Counter gate.  A list's spine equality is its empty list's own
    # constraint, so a step emits only an element's subtype bound and
    # repeats nothing.  What repeats is outside the list steps: a match
    # repeats its subject variable's equality when that variable's typing is
    # the annotation, and a repeated star variable or a merged list repeats
    # its own equality with the spine.
    results = list(_inferred_rules(source))
    assert [sum(len(node.constraints) for node in result.derivation.walk())
            for result in results] == emitted
    for result in results:
        nodes = list(result.derivation.walk())
        own = Counter(c for node in nodes for c in node.constraints)
        steps = [node for node in nodes if node.rule in ("CT-Elem", "CT-Merge", "CT-Star")]
        assert [len(node.constraints) for node in steps] == [int(node.rule == "CT-Elem") for node in steps]
        assert all(own[c] == 1 for node in steps for c in node.constraints)
        assert set(result.constraints) == set(own)
