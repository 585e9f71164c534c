"""Differential test: the indexed resolution engine against the reference
engine that rescans every constraint pair at every step.

Outcomes compare with ``==``: the verdict, the full trace (rule, consumed,
produced, binding and ``degree_after`` of every step), the failure witness,
the substitution and the residual.
"""

import pathlib

import pytest

import reference_solver as reference
from support import wide_rule
from ruletypes.infer import FreshSupply, infer_rule, init_context
from ruletypes.oracle import erase_annotations, gen_constraints, strip_typings
from ruletypes.solver import Failed, Solved, Stuck, detect_failure, solve
from ruletypes.surface import build_context, parse

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def assert_engines_agree(ctx, constraints):
    items = list(constraints)
    assert detect_failure(ctx, items) == reference.detect_failure(ctx, items)
    assert detect_failure(ctx, items[::-1]) == reference.detect_failure(ctx, items[::-1])
    outcome = solve(ctx, items)
    assert outcome == reference.solve(ctx, items)
    return outcome


def inferred_sets(source: str, checking_form: bool):
    """(Γ, C) for every rule of a source file, in inference form."""
    sf = parse(source)
    ctx = build_context(sf)
    bare = strip_typings(ctx) if checking_form else ctx
    for decl in sf.rules:
        rule = decl.rule
        if checking_form:
            rule = erase_annotations(rule)
        fresh = FreshSupply()
        gamma = init_context(bare, rule, fresh)
        yield gamma, infer_rule(gamma, rule, fresh).constraints


def test_random_constraint_sets():
    verdicts = {Solved: 0, Failed: 0, Stuck: 0}
    for seed in range(5000):
        ctx, constraints = gen_constraints(seed)
        verdicts[type(assert_engines_agree(ctx, constraints))] += 1
    assert all(verdicts.values()), verdicts


@pytest.mark.parametrize("max_vars, max_constraints", [(12, 40), (30, 80), (3, 30)])
def test_larger_random_constraint_sets(max_vars, max_constraints):
    # Larger sets fail after many steps, through every detection pattern.
    fail_rules = set()
    for seed in range(1500):
        ctx, constraints = gen_constraints(seed, max_vars, max_constraints)
        outcome = assert_engines_agree(ctx, constraints)
        if isinstance(outcome, Failed):
            fail_rules.add(outcome.fail_rule)
    assert fail_rules == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("path", sorted((FIXTURES / "corpus").glob("seed_*.rules")),
                         ids=lambda p: p.stem)
def test_corpus_rules(path):
    for gamma, constraints in inferred_sets(path.read_text(encoding="utf-8"), True):
        assert_engines_agree(gamma, constraints)


def test_example4():
    source = (FIXTURES / "example4.rules").read_text(encoding="utf-8")
    (gamma, constraints), = inferred_sets(source, False)
    assert isinstance(assert_engines_agree(gamma, constraints), Solved)


# ---------------------------------------------------------------------------
# wide list patterns: one variadic L(...) with star variables, variables,
# constants, applications and nested L and M lists

@pytest.mark.parametrize("width", [16, 36, 80])
def test_wide_lists_solve(width):
    (gamma, constraints), = inferred_sets(wide_rule(width), False)
    assert isinstance(assert_engines_agree(gamma, constraints), Solved)


@pytest.mark.parametrize("width, element", [
    (16, "M(f(c(),c()))"),       # a Z element in an N* list
    (36, "g(f(x1,x1))"),         # a Z argument where N is expected
    (36, "M(y1,m0*,L(c()))"),    # an E element in an N* list
])
def test_wide_lists_fail(width, element):
    (gamma, constraints), = inferred_sets(wide_rule(width, element), False)
    assert isinstance(assert_engines_agree(gamma, constraints), Failed)


def test_wide_list_fails_late():
    # The bad element sits near the end, so the failure first shows after
    # many steps have rewritten the set.
    (gamma, constraints), = inferred_sets(wide_rule(80, "M(f(c(),c()))", at=76), False)
    outcome = assert_engines_agree(gamma, constraints)
    assert isinstance(outcome, Failed) and len(outcome.trace) > 100
