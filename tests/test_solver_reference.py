"""Differential test: the indexed resolution engine against the reference
engine that rescans every constraint pair at every step.

Outcomes compare with ``==``: the verdict, the full trace (rule, consumed,
produced, binding and ``degree_after`` of every step), the failure witness,
the substitution and the residual.
"""

import pathlib
from collections import Counter

import pytest

import reference_solver as reference
from support import wide_rule
from ruletypes.core import Eq, TypeVar
from ruletypes.infer import FreshSupply, infer_rule, init_context
from ruletypes.oracle import erase_annotations, gen_constraints, strip_typings
from ruletypes.solver import Failed, Solved, Stuck, detect_failure, solve
from ruletypes.surface import build_context, parse

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def assert_engines_agree(ctx, constraints):
    """Both engines agree on ``constraints`` with every other one repeated,
    reversed, and as given; returns the outcome on them as given."""
    items = list(constraints)
    for variant in (items + items[::2], items[::-1], items):
        assert detect_failure(ctx, variant) == reference.detect_failure(ctx, variant)
        outcome = solve(ctx, variant)
        assert outcome == reference.solve(ctx, variant)
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


# ---------------------------------------------------------------------------
# The cases a binding's in-place rewrite tells apart, replayed from the trace
# on the work list as the reference engine keeps it: list order is slot order.

def _class(ctx, c):
    lhs, rhs = c
    if isinstance(c, Eq) or lhs == rhs:
        return "unit"  # consumed alone by rules (1)-(5)
    if isinstance(lhs, TypeVar) or isinstance(rhs, TypeVar):
        return "bound"
    return "ground that holds" if ctx.subtype_holds(lhs, rhs) else "ground that fails"


def rewrite_cases(ctx, constraints, trace):
    """How often each case of a rewrite occurs in the bindings of ``trace``.
    An equal constraint met is one the binding leaves as it is."""
    items, cases, images = list(dict.fromkeys(constraints)), Counter(), set()
    for step in trace:
        first = min(items.index(c) for c in step.consumed)
        rest = [c for c in items if c not in step.consumed]
        items = list(dict.fromkeys(rest[:first] + list(step.produced) + rest[first:]))
        if not step.bound:
            continue
        (var, image), = step.bound
        if step.rule in ("13", "14") and var in images:
            cases["an image variable fires (13)/(14)"] += 1
        if isinstance(image, TypeVar):
            images.add(image.id)

        def rewrite(t):
            return image if t == TypeVar(var) else t

        new = [type(c)(rewrite(c.lhs), rewrite(c.rhs)) for c in items]
        for i, (old, c) in enumerate(zip(items, new)):
            if c == old:
                continue
            was, now = _class(ctx, old), _class(ctx, c)
            upper = was == "bound" and isinstance(old.lhs, TypeVar) and not isinstance(old.rhs, TypeVar)
            cases[f"{'upper bound' if upper and now.startswith('ground') else was} -> {now}"] += 1
            unchanged = [j for j, (o, n) in enumerate(zip(items, new)) if n == c and o == c]
            if any(j < i for j in unchanged):
                cases["meets an equal constraint in a lower slot"] += 1
            if any(j > i for j in unchanged):
                cases["meets an equal constraint in a higher slot"] += 1
        items = list(dict.fromkeys(new))
    return cases


def test_every_rewrite_case_is_reached():
    # The differential inputs reach each case that the in-place rewrite of
    # a binding tells apart, and the engines agree on all of them.
    cases = Counter()
    inputs = [gen_constraints(seed) for seed in range(1500)]
    inputs += [gen_constraints(seed, 30, 80) for seed in range(500)]
    inputs += [next(inferred_sets(wide_rule(width), False)) for width in (16, 36)]
    for ctx, constraints in inputs:
        cases += rewrite_cases(ctx, constraints, assert_engines_agree(ctx, constraints).trace)
    assert set(cases) >= {
        "unit -> unit",
        "bound -> unit",  # a chain closed into a loop, or a ground bound onto its own ground
        "upper bound -> ground that holds",  # then rule (3)
        "upper bound -> ground that fails",  # then pattern (4)
        "bound -> bound",
        "meets an equal constraint in a lower slot",
        "meets an equal constraint in a higher slot",
        "an image variable fires (13)/(14)",
    }, cases
    # An equality stays one, and a loop stays a loop: no unit becomes a bound.
    assert cases["unit -> bound"] == 0
