import importlib.util
import pathlib

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
from ruletypes.core import Derivation, GroundType, ListApp, StarVar
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
from ruletypes.surface import parse, render_instance
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
        conds = rule.cond.conds if isinstance(rule.cond, Conj) else (rule.cond,)
        for match in conds:
            for side in (match.pattern, match.subject):
                at = match.at.dsort
                checked = isinstance(check_term(ctx, side, at), WellTyped)
                assert checked == derivation_search(ctx, side, at), (seed, str(side), str(at))
                lists += isinstance(side, ListApp) and bool(side.args)
    assert lists > 0  # the search's non-empty list rules are reached


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
