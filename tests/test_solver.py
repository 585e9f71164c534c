import copy
import pathlib
import pickle
from collections import Counter

import pytest

import support
from support import a, g, wide_rule

from ruletypes import ConstraintSet, Eq, Sub, subst_satisfies
from ruletypes.core import GroundType
from ruletypes.infer import FreshSupply, infer_rule, init_context
from ruletypes.oracle import enumerate_solutions, gen_constraints
from ruletypes.solver import Failed, Solved, Stuck, degree, detect_failure, solve
from ruletypes.surface import build_context, parse, resolve_rule

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def grounding(subst, var):
    image = subst.get(var)
    assert isinstance(image, GroundType), f"α{var} ↦ {image}"
    return image


# ---------------------------------------------------------------------------
# detect_failure

def test_ground_equality_with_different_sorts_fails(gamma_ex):
    hit = detect_failure(gamma_ex, [Eq(g("N", "one"), g("Z", "l"))])
    assert hit is not None and hit[0] == 5


def test_unrelated_bounds_through_a_variable_fail(gamma_ex):
    hit = detect_failure(gamma_ex, [Sub(g("Z"), a(1)), Sub(a(1), g("N"))])
    assert hit is not None and hit[0] == 1
    assert not support.naive_sort_leq(gamma_ex, *(s.sort for s in
                                                  (g("Z").dsort, g("N").dsort)))


def test_ground_pair_outside_the_closure_fails(gamma_ex):
    hit = detect_failure(gamma_ex, [Sub(g("N"), g("N", "one"))])
    assert hit is not None and hit[0] == 4
    assert not support.naive_subtype(gamma_ex, g("N").dsort, g("N", "one").dsort)


def test_empty_set_has_no_failure(gamma_ex):
    assert detect_failure(gamma_ex, []) is None


def test_variable_ids_beyond_the_code_width_are_rejected(gamma_ex):
    # The engine codes α_k as 2k in 40 bits of a constraint key.
    for run in (solve, detect_failure):
        with pytest.raises(ValueError, match="below 2"):
            run(gamma_ex, [Sub(g("N"), a(1)), Eq(a(1), a(2**39))])
    assert isinstance(solve(gamma_ex, [Eq(a(1), a(2**39 - 1))]), Solved)


def test_disjoint_lower_bounds_fail():
    from ruletypes import Context, Sort
    ctx = Context(sorts=[Sort("A"), Sort("B")])
    hit = detect_failure(ctx, [Sub(g("A"), a(1)), Sub(g("B"), a(1))])
    assert hit is not None and hit[0] == 2


def test_incomparable_upper_bounds_fail():
    from ruletypes import Context, Sort
    ctx = Context(sorts=[Sort("A"), Sort("B")])
    hit = detect_failure(ctx, [Sub(a(1), g("A")), Sub(a(1), g("B"))])
    assert hit is not None and hit[0] == 3


# ---------------------------------------------------------------------------
# solve on the resolution example

def test_resolution_example_reaches_the_printed_solution(gamma_ex):
    outcome = solve(gamma_ex, support.resolution_example_constraints())
    assert isinstance(outcome, Solved)
    s = outcome.subst
    for var, want in [(1, g("Z", "l")), (2, g("Z")), (3, g("Z", "l")),
                      (4, g("Z", "l")), (5, g("Z", "l")), (6, g("Z", "l")),
                      (7, g("N", "one")), (8, g("Z", "l")), (9, g("Z")),
                      (10, g("Z", "l"))]:
        assert grounding(s, var) == want
    # the final binding comes from the single-bound rule
    assert outcome.trace[-1].rule == "13"
    assert outcome.trace[-1].bound == ((2, g("Z")),)


def test_empty_set_solves_to_the_empty_substitution(gamma_ex):
    outcome = solve(gamma_ex, ConstraintSet())
    assert isinstance(outcome, Solved) and len(outcome.subst) == 0


def test_equality_then_closure_drop(gamma_ex):
    outcome = solve(gamma_ex, [Eq(a(1), g("N", "one")), Sub(a(1), g("Z"))])
    assert isinstance(outcome, Solved)
    assert grounding(outcome.subst, 1) == g("N", "one")
    assert [s.rule for s in outcome.trace] == ["4", "3"]


def test_ground_mismatch_fails(gamma_ex):
    outcome = solve(gamma_ex, [Eq(g("N", "one"), g("Z", "l"))])
    assert isinstance(outcome, Failed) and outcome.fail_rule == 5


# ---------------------------------------------------------------------------
# the individual resolution rules

def test_lower_bounds_merge_to_least_common_supersort(gamma_ex):
    outcome = solve(gamma_ex, [Sub(g("N", "one"), a(1)), Sub(g("Z", "l"), a(1))])
    assert isinstance(outcome, Solved)
    assert outcome.trace[0].rule == "6"
    assert grounding(outcome.subst, 1) == g("Z")


def test_comparable_upper_bounds_keep_the_smaller(gamma_ex):
    outcome = solve(gamma_ex, [Sub(a(1), g("N")), Sub(a(1), g("Z"))])
    assert outcome.trace[0].rule == "7a"
    assert grounding(outcome.subst, 1) == g("N")

    outcome = solve(gamma_ex, [Sub(a(1), g("Z")), Sub(a(1), g("N"))])
    assert outcome.trace[0].rule == "7b"
    assert grounding(outcome.subst, 1) == g("N")


def test_antisymmetric_pair_becomes_an_equality(gamma_ex):
    outcome = solve(gamma_ex, [Sub(a(1), a(2)), Sub(a(2), a(1))])
    assert [s.rule for s in outcome.trace][:2] == ["8", "4"]
    assert isinstance(outcome, Solved)


def test_transitive_chains_bind_the_middle(gamma_ex):
    outcome = solve(gamma_ex, [Sub(a(1), a(2)), Sub(a(2), a(3))])
    assert outcome.trace[0].rule == "9"

    outcome = solve(gamma_ex, [Sub(g("Z", "l"), a(1)), Sub(a(1), a(2))])
    assert outcome.trace[0].rule == "10"
    assert grounding(outcome.subst, 1) == g("Z", "l")
    assert grounding(outcome.subst, 2) == g("Z", "l")

    outcome = solve(gamma_ex, [Sub(a(1), a(2)), Sub(a(2), g("Z"))])
    assert outcome.trace[0].rule == "11"
    assert grounding(outcome.subst, 1) == g("Z")
    assert grounding(outcome.subst, 2) == g("Z")


def test_squeezed_variable_takes_the_upper_bound(gamma_ex):
    outcome = solve(gamma_ex, [Sub(g("N", "one"), a(1)), Sub(a(1), g("Z"))])
    assert [s.rule for s in outcome.trace] == ["12", "3"]
    assert grounding(outcome.subst, 1) == g("Z")


def test_single_bound_rules_fire_last(gamma_ex):
    outcome = solve(gamma_ex, [Sub(g("N", "one"), a(1))])
    assert [s.rule for s in outcome.trace] == ["14"]
    assert grounding(outcome.subst, 1) == g("N", "one")


# ---------------------------------------------------------------------------
# degree

def test_degree_counts_subtype_constraints():
    assert degree([Eq(a(1), g("Z", "l")), Sub(a(1), g("Z"))]) == (2, 1)
    assert degree([]) == (0, 0)


def test_degree_of_the_resolution_example_after_deduplication():
    # 17 printed constraints collapse to 13 distinct ones, 3 of them subtype
    listing = ConstraintSet(support.resolution_example_constraints())
    assert degree(listing) == (13, 3)


# ---------------------------------------------------------------------------
# global properties on random sets

def test_termination_and_soundness_on_random_sets():
    stuck = 0
    for seed in range(400):
        ctx, constraints = gen_constraints(seed)
        outcome = solve(ctx, constraints)
        m, n = degree(constraints)
        assert len(outcome.trace) <= m + n + 1
        last = (m, n)
        for step in outcome.trace:
            assert step.degree_after < last
            last = step.degree_after
        if isinstance(outcome, Solved):
            for c in constraints:
                assert subst_satisfies(outcome.subst, c, ctx), (seed, str(c))
        elif isinstance(outcome, Failed):
            assert not enumerate_solutions(ctx, constraints, limit=1), seed
        else:
            stuck += 1
    assert stuck <= 8  # rare var/ground bound mixes the rules leave open


def test_solving_is_deterministic(gamma_ex):
    constraints = support.resolution_example_constraints()
    assert solve(gamma_ex, constraints) == solve(gamma_ex, constraints)


# ---------------------------------------------------------------------------
# the rule mix of inferred sets, pinned: a change to the engine that keeps
# every verdict must keep every step

def solve_source(source: str):
    """The outcome of ``solve`` on each rule of a source, as the CLI runs it."""
    sf = parse(source)
    ctx = build_context(sf)
    for decl in sf.rules:
        fresh = FreshSupply()
        rule = resolve_rule(decl, ctx)
        gamma = init_context(ctx, rule, fresh)
        yield solve(gamma, infer_rule(gamma, rule, fresh).constraints)


MIXES = {
    "example4": {"1": 1, "2": 1, "3": 1, "4": 5, "5": 3, "13": 1},
    "produce": {"3": 1, "4": 4, "12": 1},
    "wide40": {"1": 1, "3": 64, "4": 100, "5": 4, "13": 7, "14": 1},
    "wide80": {"1": 1, "3": 128, "4": 196, "5": 4, "13": 7, "14": 1},
    "wide160": {"1": 1, "3": 256, "4": 388, "5": 4, "13": 7, "14": 1},
}


@pytest.mark.parametrize("name, mix", MIXES.items(), ids=list(MIXES))
def test_rule_mix_is_pinned(name, mix):
    source = (wide_rule(int(name[4:])) if name.startswith("wide")
              else (FIXTURES / f"{name}.rules").read_text(encoding="utf-8"))
    outcome, = solve_source(source)
    assert isinstance(outcome, Solved)
    assert Counter(step.rule for step in outcome.trace) == mix


# ---------------------------------------------------------------------------
# outcomes are values before their trace is read: ``solve`` logs its steps
# and the trace is decoded on first read

OUTCOMES = {
    Solved: lambda: solve(support.gamma_ex(), support.resolution_example_constraints()),
    Failed: lambda: next(solve_source(wide_rule(16, "M(f(c(),c()))"))),
    Stuck: lambda: next(solve_source((FIXTURES / "stuck.rules").read_text(encoding="utf-8"))),
}


@pytest.mark.parametrize("cls", OUTCOMES, ids=lambda cls: cls.__name__)
def test_outcomes_are_values_before_their_trace_is_read(cls):
    make = OUTCOMES[cls]
    outcome = make()
    assert isinstance(outcome, cls) and outcome.trace
    for other in (copy.copy(make()), copy.deepcopy(make()), pickle.loads(pickle.dumps(make()))):
        assert other == outcome and hash(other) == hash(outcome)

    first, second = make(), make()
    assert hash(first) == hash(second) and first == second

    text = repr(make())
    assert "TraceStep(" in text and text == repr(outcome)
