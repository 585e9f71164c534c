import importlib
import importlib.util
import itertools
import pathlib
import sys

import pytest

import support
from support import a, g

from ruletypes import (
    Conj,
    ConstraintSet,
    Eq,
    FreshSupply,
    Match,
    Rule,
    Sub,
    SynApp,
    Var,
    WellTyped,
    check_rule,
    check_term,
    dsort,
    infer_rule,
    init_context,
)
from ruletypes.core import Derivation, ListApp, StarVar, Substitution, TypeVar, subst_satisfies
from ruletypes.oracle import (
    MINIMAL,
    BudgetExceeded,
    GenParams,
    derivation_search,
    enumerate_solutions,
    erase_annotations,
    gen_constraints,
    gen_instance,
    ground_universe,
    instantiate_for_check,
    strip_typings,
    validate_derivation,
)
from ruletypes.solver import Solved, solve
from ruletypes.surface import build_context, parse, render_instance
from ruletypes.context import validate


# ---------------------------------------------------------------------------
# ground universe and enumeration

def test_universe_of_the_running_example(gamma_ex):
    assert set(ground_universe(gamma_ex)) == {
        dsort("Z"), dsort("N"), dsort("Z", "l"), dsort("N", "one")}


def test_enumerate_single_upper_bound(gamma_ex):
    sols = enumerate_solutions(gamma_ex, [Sub(a(1), g("Z"))])
    values = {s.get(1) for s in sols}
    assert values == {g("N"), g("N", "one"), g("Z"), g("Z", "l")}


def test_enumerate_empty_set_has_one_empty_solution(gamma_ex):
    sols = enumerate_solutions(gamma_ex, [])
    assert len(sols) == 1 and len(sols[0]) == 0


def test_enumerate_unsatisfiable_ground_equality(gamma_ex):
    assert enumerate_solutions(gamma_ex, [Eq(g("N", "one"), g("Z", "l"))]) == []


def test_enumeration_budget(gamma_ex):
    constraints = [Sub(a(i), g("Z")) for i in range(1, 6)]
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(gamma_ex, constraints, budget=10)


def test_enumeration_respects_fixed_and_limit(gamma_ex):
    constraints = [Sub(a(1), g("Z")), Eq(a(2), a(1))]
    sols = enumerate_solutions(gamma_ex, constraints, fixed={1: dsort("N")})
    assert len(sols) == 1 and sols[0].get(2) == g("N")
    sols = enumerate_solutions(gamma_ex, constraints, limit=1)
    assert len(sols) == 1


def test_enumeration_answers_on_a_chain_longer_than_the_stack(gamma_ex):
    # The search keeps its own stack, one level per variable.
    n = sys.getrecursionlimit() + 200
    constraints = [Eq(a(i), a(i + 1)) for i in range(1, n)] + [Sub(a(n), g("N"))]
    (solution,) = enumerate_solutions(gamma_ex, constraints, limit=1)
    assert len(solution) == n and {solution.get(i) for i in range(1, n + 1)} == {g("N")}


@pytest.mark.parametrize("seed", range(40))
def test_enumeration_is_the_filtered_product_of_the_universe(seed):
    # Every total assignment that satisfies the set, in the order of the
    # product over the universe with variables in first-occurrence order.
    ctx, constraints = gen_constraints(seed, 3, 5)
    order = list(dict.fromkeys(t.id for c in constraints for t in (c.lhs, c.rhs) if isinstance(t, TypeVar)))
    expected = []
    for values in itertools.product(ground_universe(ctx), repeat=len(order)):
        subst = Substitution(dict(zip(order, values)))
        if all(subst_satisfies(subst, c, ctx) for c in constraints):
            expected.append(subst)
    assert enumerate_solutions(ctx, constraints) == expected


# ---------------------------------------------------------------------------
# derivation search

def test_search_finds_the_coerced_constant(gamma_ex):
    assert derivation_search(gamma_ex, SynApp("one"), dsort("Z"))


def test_search_rejects_the_impossible_list_typing(gamma_ex):
    assert not derivation_search(gamma_ex, SynApp("one"), dsort("Z", "l"), depth=6)


def test_search_accepts_the_empty_list_axiom(gamma_ex):
    assert derivation_search(gamma_ex, ListApp("l"), dsort("Z", "l"))


def test_search_agrees_with_the_checker_on_generated_match_sides():
    # Both sides of every generated match, checked against its annotation:
    # the checker's deterministic strategy and the backward search over all
    # rule instances accept exactly the same sides.
    lists = 0
    for seed in range(300):
        ctx, rule = gen_instance(seed)
        for match in rule.matches:
            for side in (match.pattern, match.subject):
                checked = isinstance(check_term(ctx, side, match.at), WellTyped)
                assert checked == derivation_search(ctx, side, match.at), (seed, str(side), str(match.at))
                lists += isinstance(side, ListApp) and bool(side.args)
    assert lists > 0  # the search's non-empty list rules are reached


def test_search_walks_a_list_of_any_width(gamma_ex):
    # The list's arguments are walked in a loop, not one call per element.
    wide = ListApp("l", (SynApp("one"),) * 5000)
    assert derivation_search(gamma_ex, wide, dsort("Z", "l"))
    assert derivation_search(gamma_ex, wide, dsort("Z"))
    assert not derivation_search(gamma_ex, wide, dsort("N"))


def test_search_agrees_with_the_checker_on_a_wide_list_pattern():
    # The 36-wide pattern of the wide-lists family, grounded by its solution,
    # against every type of its universe: both accept exactly the same.
    sf = parse(support.wide_rule(36))
    ctx, rule = build_context(sf), sf.rules[0].rule
    fresh = FreshSupply()
    gamma = init_context(ctx, rule, fresh)
    res = infer_rule(gamma, rule, fresh)
    outcome = solve(gamma, res.constraints)
    assert isinstance(outcome, Solved)
    gctx, grule = instantiate_for_check(gamma, res.derivation.subject, outcome.subst)
    accepted = 0
    for side in (grule.cond.pattern, grule.cond.subject):
        for target in ground_universe(gctx):
            checked = isinstance(check_term(gctx, side, target), WellTyped)
            assert checked == derivation_search(gctx, side, target), (str(side), str(target))
            accepted += checked
    assert 0 < accepted < 2 * len(ground_universe(gctx))


# ---------------------------------------------------------------------------
# derivation validator

def test_validator_accepts_checker_output(gamma_ex):
    out = check_rule(gamma_ex, support.example_rule())
    assert validate_derivation(gamma_ex, out.derivation) == []


def test_validator_rejects_a_forged_leaf(gamma_ex):
    forged = Derivation("T-Var", Var("y"), g("Z", "l"))
    problems = validate_derivation(gamma_ex, forged)
    assert problems and "declared typing" in problems[0]


def test_validator_rejects_consecutive_subtype_steps(gamma_ex):
    leaf = Derivation("T-Var", Var("y"), g("Z"))
    one = Derivation("Sub", Var("y"), g("Z"), (leaf,))
    two = Derivation("Sub", Var("y"), g("Z"), (one,))
    problems = validate_derivation(gamma_ex, two)
    assert any("normal form" in p for p in problems)


def test_validator_walks_a_list_of_any_width(gamma_ex):
    # The checker's derivation nests one premise level per list element.
    wide = ListApp("l", (SynApp("one"),) * 2000)
    out = check_rule(gamma_ex, Rule(Match(wide, ListApp("l"), g("Z", "l"))))
    assert isinstance(out, WellTyped)
    assert validate_derivation(gamma_ex, out.derivation) == []


def _checked(fixtures_dir, source):
    """A context and the checker's derivation of ``example2``'s rule,
    ``lists``' second rule, or (``conj``) ``lists``' first two conditions
    conjoined."""
    name = "example2" if source == "example2" else "lists"
    sf = parse((fixtures_dir / f"{name}.rules").read_text(encoding="utf-8"))
    ctx, rules = build_context(sf), [d.rule for d in sf.rules]
    if source == "lists":
        rule = rules[1]
    elif source == "conj":
        rule = Rule(Conj((rules[0].cond, rules[1].cond)), rules[0].actions)
    else:
        rule = rules[0]
    out = check_rule(ctx, rule)
    assert isinstance(out, WellTyped) and validate_derivation(ctx, out.derivation) == []
    return ctx, out.derivation


def _break(d, label, change, skip=0):
    """``d`` with its ``skip``-th node labelled ``label``, counted from 0 in
    pre-order, replaced by ``change(node)``."""
    seen = 0

    def rebuild(node):
        nonlocal seen
        if node.rule == label:
            seen += 1
            if seen == skip + 1:
                return change(node)
        return Derivation(node.rule, node.subject, node.type, tuple(map(rebuild, node.premises)))

    return rebuild(d)


def _relabel(label):
    return lambda n: Derivation(label, n.subject, n.type, n.premises)


def _retype(t):
    return lambda n: Derivation(n.rule, n.subject, t, n.premises)


def _swap(n):
    return Derivation(n.rule, n.subject, n.type, n.premises[::-1])


def _drop_last(n):
    return Derivation(n.rule, n.subject, n.type, n.premises[:-1])


def _self_premise(n):
    return Derivation(n.rule, n.subject, n.type, (*n.premises, n))


@pytest.mark.parametrize("source, label, skip, change, broken, message", [
    pytest.param("example2", "T-Fun", 0, _retype(g("Z", "one")), "T-Fun", "conclusion should be N^one",
                 id="wrong-fun-conclusion"),
    pytest.param("lists", "T-Merge", 0, _drop_last, "T-Merge", "needs a last argument and two premises",
                 id="dropped-premise"),
    pytest.param("lists", "T-Merge", 1, _relabel("T-Elem"), "T-Elem", "where the list rule is required",
                 id="elem-for-merge"),
    pytest.param("example2", "T-Merge", 0, _relabel("T-Elem"), "T-Elem", "applied to a star variable",
                 id="elem-on-star"),
    pytest.param("lists", "T-Elem", 2, _relabel("T-Merge"), "T-Merge", "side condition fails",
                 id="merge-for-elem"),
    pytest.param("example2", "T-Elem", 0, _relabel("T-Empty"), "T-Empty", "applied to a nonempty list",
                 id="empty-for-elem"),
    pytest.param("example2", "T-Merge", 0, _swap, "T-Merge", "leading-sublist premise malformed",
                 id="swapped-list-premises"),
    pytest.param("example2", "Sub", 0, _relabel("Gen"), "Gen", "must drop a real decoration",
                 id="gen-on-any"),
    pytest.param("example2", "Sub", 0, _retype(g("N", "one")), "Sub", "is not below N^one",
                 id="sub-upwards"),
    pytest.param("example2", "T-Match", 0, _swap, "T-Match", "pattern premise malformed",
                 id="swapped-match-premises"),
    pytest.param("conj", "T-Conj", 0, _swap, "T-Conj", "premise order mismatch",
                 id="swapped-conj-members"),
    pytest.param("example2", "T-Rule", 0, lambda n: _break(n, "T-Var", _retype(g("Z", "l")), 1),
                 "T-Rule", "action premise 0 must conclude", id="action-at-wrong-type"),
    pytest.param("example2", "T-SVar", 0, _relabel("T-Var"), "T-Var", "subject has the wrong shape",
                 id="var-on-star"),
    pytest.param("example2", "T-Match", 0, _relabel("CT-Match"), "CT-Match", "not a checking rule",
                 id="inference-label"),
    # a premise too few or too many, for every rule that fixes their number
    *(pytest.param(source, label, 0, _drop_last, label, message, id=f"{label}-short")
      for source, label, message in [
          ("example2", "T-Match", "concludes wt from two premises"),
          ("example2", "Sub", "needs one premise on the same term"),
          ("example2", "Gen", "needs one premise on the same term"),
          ("conj", "T-Conj", "premises must match the members"),
          ("example2", "T-Rule", "plus one premise per action"),
      ]),
    pytest.param("example2", "T-Var", 0, _self_premise, "T-Var", "leaf rule with premises", id="T-Var-long"),
    pytest.param("example2", "T-Fun", 0, _self_premise, "T-Fun", "premise count differs", id="T-Fun-long"),
    pytest.param("example2", "T-Rule", 0, _swap, "T-Rule", "condition premise mismatch",
                 id="swapped-rule-premises"),
    # a wt rule's conclusion retyped, at the root
    pytest.param("example2", "T-Rule", 0, _retype(g("Z", "l")), "T-Rule", "rule concludes wt, not Z^l",
                 id="rule-at-a-sort"),
    pytest.param("conj", "T-Conj", 0, _retype(g("Z", "l")), "T-Conj",
                 "conjunction concludes wt, not Z^l", id="conj-at-a-sort"),
])
def test_validator_names_the_broken_rule(fixtures_dir, source, label, skip, change, broken, message):
    ctx, d = _checked(fixtures_dir, source)
    problems = validate_derivation(ctx, _break(d, label, change, skip))
    assert any(p.startswith(f"{broken} on ") and message in p for p in problems), problems


# ---------------------------------------------------------------------------
# instantiation

def test_instantiation_grounds_typings_and_annotations():
    sig = support.example_signature()
    rule = support.example_rule(annotated=False)
    fresh = FreshSupply()
    gamma = init_context(sig, rule, fresh)
    res = infer_rule(gamma, rule, fresh)
    outcome = solve(gamma, res.constraints)
    assert isinstance(outcome, Solved)
    gctx, grule = instantiate_for_check(gamma, res.derivation.subject, outcome.subst)
    assert gctx.var_types["y"] == g("Z")
    assert gctx.star_types["x"] == g("Z", "l")
    assert grule.cond.at == g("Z", "l")
    assert isinstance(check_rule(gctx, grule), WellTyped)


@pytest.mark.parametrize("directed", [0.8, 0.0, 1.0])
def test_inference_is_sound_on_generated_instances(directed):
    # The paper's soundness claim: a solution of a rule's constraints types
    # it.  With the typings stripped and the annotations kept or erased,
    # every solved instance re-checks once grounded by the solution.
    solved = conj = 0
    for seed in range(500):
        ctx, rule = gen_instance(seed, GenParams(directed=directed))
        for form in (rule, erase_annotations(rule)):
            fresh = FreshSupply()
            gamma = init_context(strip_typings(ctx), form, fresh)
            res = infer_rule(gamma, form, fresh)
            outcome = solve(gamma, res.constraints)
            if isinstance(outcome, Solved):
                annotated = res.derivation.subject  # the rule with its annotation variables
                gctx, grule = instantiate_for_check(gamma, annotated, outcome.subst)
                assert isinstance(check_rule(gctx, grule), WellTyped), (directed, seed, str(form))
                solved += 1
                conj += isinstance(annotated.cond, Conj)
    assert solved > 0 and conj > 0


def test_erase_annotations_and_strip_typings(gamma_ex):
    rule = support.example_rule()
    erased = erase_annotations(rule)
    assert erased.cond.at is None
    bare = strip_typings(gamma_ex)
    assert bare.var_types == {} and bare.star_types == {}
    assert bare.syn_ranks.keys() == gamma_ex.syn_ranks.keys()


# ---------------------------------------------------------------------------
# generators

def test_generated_signatures_are_well_formed():
    for seed in range(80):
        ctx, rule = gen_instance(seed)
        assert validate(ctx) == []


def test_generator_is_deterministic():
    first = render_instance(*gen_instance(11))
    second = render_instance(*gen_instance(11))
    assert first == second


def test_minimal_instance_shape():
    ctx, rule = gen_instance(0, MINIMAL)
    assert len(ctx.sorts) == 1
    assert rule.actions == ()
    assert isinstance(rule.cond, Match)
    assert isinstance(rule.cond.pattern, Var)


def test_seed_zero_instance_is_pinned(fixtures_dir):
    # Every committed corpus file, seeds 0-19, under the test's original name.
    for seed in range(20):
        golden = (fixtures_dir / "corpus" / f"seed_{seed:03}.rules").read_text()
        assert render_instance(*gen_instance(seed)) == golden, f"seed {seed}"


def test_corpus_summary_is_reproduced(fixtures_dir):
    script = pathlib.Path(__file__).parent.parent / "scripts" / "gen_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_corpus", script)
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    lines = []
    for seed in range(20):
        check_line, solve_line = gen_corpus.outcomes(*gen_instance(seed))
        lines.append(f"seed_{seed:03} check={check_line} solve={solve_line}")
    assert "\n".join(lines) + "\n" == (fixtures_dir / "corpus" / "summary.txt").read_text()


def test_bench_modules_import_and_verify_the_running_example(monkeypatch, example2_path):
    # The benchmark's worker and verifier import the package by name and read
    # its values' fields; a name they use that goes away fails here.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    importlib.import_module("worker")
    verify = importlib.import_module("verify")
    assert verify._oracle_check(*verify._load(example2_path)) is True


def test_simple_mode_has_no_lists_or_edges():
    for seed in range(40):
        ctx, rule = gen_instance(seed, GenParams(simple=True))
        assert not ctx.var_ranks
        assert not ctx.subsort_decls
        assert not ctx.star_types


def test_gen_constraints_round_trip():
    ctx, constraints = gen_constraints(3)
    assert isinstance(constraints, ConstraintSet) and len(constraints) >= 1
    assert gen_constraints(3)[1] == constraints
