import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import support
from support import a, g

from ruletypes import (
    ConstraintSet,
    Eq,
    Sub,
    Substitution,
    WT,
    WellTyped,
    apply_subst,
    check_rule,
    dsort,
    free_type_vars,
    subst_satisfies,
)
from ruletypes.context import SynRank, Violation
from ruletypes.core import (
    Conj,
    DecoratedSort,
    Decoration,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    SynApp,
    TypeVar,
    Var,
)
from ruletypes.oracle import GenParams, gen_instance
from ruletypes.solver import TraceStep
from ruletypes.surface import Pos, VarDecl, parse


# ---------------------------------------------------------------------------
# apply_subst

def test_apply_binds_variable():
    s = Substitution({5: g("Z", "l")})
    assert apply_subst(s, a(5)) == g("Z", "l")


def test_apply_identity_substitution():
    assert apply_subst(Substitution(), a(1)) == a(1)


def test_apply_chain_is_path_compressed():
    s = Substitution({1: a(2), 2: g("N")})
    # iterating application by hand reaches the same fixed point
    image = a(1)
    for _ in range(3):
        image = apply_subst(Substitution({1: a(2)}), image)
        image = apply_subst(Substitution({2: g("N")}), image)
    assert apply_subst(s, a(1)) == g("N") == image


def test_ground_and_unbound_unchanged():
    s = Substitution({1: g("Z")})
    assert apply_subst(s, g("N", "one")) == g("N", "one")
    assert apply_subst(s, a(9)) == a(9)


# ---------------------------------------------------------------------------
# Substitution normalization

def test_identity_bindings_dropped():
    assert len(Substitution({1: a(1)})) == 0


def test_chain_ending_in_identity_binding_stops_there():
    assert Substitution({1: a(2), 2: a(2)}).items() == [(1, a(2))]


def test_cyclic_substitution_rejected():
    with pytest.raises(ValueError):
        Substitution({1: a(2), 2: a(1)})


def naive_normal(mapping: dict) -> dict:
    """A reference normalizer: each variable's chain walked afresh, with a seen set of its own."""
    raw = {var: image for var, image in mapping.items() if image != a(var)}
    normal = {}
    for var, image in raw.items():
        seen = {var}
        while isinstance(image, TypeVar) and image.id in raw:
            if image.id in seen:
                raise ValueError(f"cyclic substitution through α{image.id}")
            seen.add(image.id)
            image = raw[image.id]
        normal[var] = image
    return normal


# Few variables, mostly variable images: chains, identity bindings and cycles are all common.
mappings = st.dictionaries(st.integers(0, 6), st.sampled_from([*map(a, range(8)), g("Z"), g("N", "one")]),
                           max_size=7)


@given(mappings)
def test_substitution_normalizes_as_the_reference(mapping):
    try:
        expected = naive_normal(mapping)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Substitution(mapping)
        assert str(raised.value) == str(exc)
    else:
        assert Substitution(mapping).items() == sorted(expected.items())


def test_items_sorted_by_variable():
    s = Substitution({7: g("Z"), 2: g("N")})
    assert [v for v, _ in s.items()] == [2, 7]


# ---------------------------------------------------------------------------
# subst_satisfies

def test_satisfies_subtype_from_resolution_example(gamma_ex):
    s = Substitution({2: g("Z")})
    assert subst_satisfies(s, Sub(a(2), g("Z")), gamma_ex)


def test_satisfies_reflexive_ground_equality(gamma_ex):
    assert subst_satisfies(Substitution(), Eq(g("Z", "l"), g("Z", "l")), gamma_ex)


def test_unsatisfied_when_decorations_clash(gamma_ex):
    s = Substitution({1: g("N", "one")})
    assert not subst_satisfies(s, Sub(a(1), g("Z", "l")), gamma_ex)
    # independent check via the closure-walking predicate
    assert not support.naive_subtype(gamma_ex, dsort("N", "one"), dsort("Z", "l"))


def test_subtype_with_distinct_residual_variables_is_undecided(gamma_ex):
    assert not subst_satisfies(Substitution(), Sub(a(1), a(2)), gamma_ex)
    assert subst_satisfies(Substitution({1: a(2)}), Sub(a(1), a(2)), gamma_ex)


# ---------------------------------------------------------------------------
# free_type_vars

def test_free_vars_single():
    assert free_type_vars([Eq(a(1), g("Z", "l"))]) == {1}


def test_free_vars_empty():
    assert free_type_vars([]) == set()


def test_free_vars_of_resolution_example_listing():
    listing = support.resolution_example_constraints()
    assert free_type_vars(listing) == set(range(1, 11))


# ---------------------------------------------------------------------------
# ConstraintSet semantics

def test_insertion_order_and_deduplication():
    c1, c2 = Eq(a(1), g("Z")), Sub(a(2), g("Z"))
    s = ConstraintSet([c1, c2, c1, c2])
    assert list(s) == [c1, c2]
    assert len(s) == 2


def test_set_equality_ignores_order():
    c1, c2 = Eq(a(1), g("Z")), Sub(a(2), g("Z"))
    assert ConstraintSet([c1, c2]) == ConstraintSet([c2, c1])


def test_constraints_are_pairs_of_their_sides():
    # A constraint is the tuple (lhs, rhs), hashed as that tuple, and equal
    # only to a constraint of its own class: Eq and Sub of one pair are two.
    e, s = Eq(a(1), g("Z")), Sub(a(1), g("Z"))
    assert isinstance(e, tuple) and tuple(e) == (e.lhs, e.rhs) == (a(1), g("Z"))
    assert e != s and not e == s and hash(e) == hash(s) == hash((a(1), g("Z")))
    assert e != (a(1), g("Z")) and (a(1), g("Z")) != e
    assert list(ConstraintSet([e, s, Eq(a(1), g("Z")), Sub(a(1), g("Z")), e])) == [e, s]
    made = tuple.__new__(Sub, (a(1), g("Z")))  # how inference makes them, with no Python call
    assert type(made) is Sub and made == s and hash(made) == hash(s) and made in ConstraintSet([e, s])
    for c in (e, s, made):
        for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert type(other) is type(c) and other == c and hash(other) == hash(c)


def test_wt_never_inside_constraints():
    with pytest.raises(ValueError):
        Eq(WT, a(1))
    with pytest.raises(ValueError):
        Sub(a(1), WT)


def test_conjunction_needs_two_conditions():
    m = Match(Var("v"), Var("v"), None)
    assert Conj([m, m]).conds == (m, m)
    for conds in ([], [m], [m, Conj([m, m])]):  # a conjunction joins matches only
        with pytest.raises(ValueError):
            Conj(conds)


# ---------------------------------------------------------------------------
# Value semantics: interned type terms, constraints compared by their sides

def test_equal_type_terms_are_one_object():
    assert TypeVar(3) is TypeVar(3)
    assert dsort("Z", "l") is DecoratedSort(Sort("Z"), Decoration("l"))
    assert dsort("Z") is DecoratedSort(Sort("Z")) is DecoratedSort(Sort("Z"), Decoration(None))
    assert g("Z") is not g("Z", "l")
    for value in (Sort("Z"), Decoration(), dsort("Z", "l"), a(2), g("Z", "l")):
        assert copy.copy(value) is copy.deepcopy(value) is pickle.loads(pickle.dumps(value)) is value


def test_ground_type_terms_are_decorated_sorts(gamma_ex):
    # A ground type term is the decorated sort itself, wherever it is made:
    # a parsed annotation, a rank's codomain read as a typing, a derivation.
    match = parse("sort Z\nvar x : Z\nrule x << [Z] x -> ()\n").rules[0].rule.cond
    assert match.at is dsort("Z")
    one, lists = gamma_ex.syn_ranks["one"], gamma_ex.var_ranks["l"]
    assert gamma_ex.raw_typing(SynApp("one")) is one.codomain
    verdict = check_rule(gamma_ex, support.example_rule())
    assert isinstance(verdict, WellTyped)
    nodes = {node.rule: node.type for node in verdict.derivation.walk()}
    assert nodes["T-Fun"] is one.codomain
    assert nodes["T-Empty"] is nodes["T-Elem"] is nodes["T-Merge"] is lists.codomain


def test_equal_constraints_compare_and_hash_alike():
    s1, s2 = Sub(a(1), g("Z", "l")), Sub(TypeVar(1), DecoratedSort(Sort("Z"), Decoration("l")))
    assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2)
    assert Eq(a(1), a(2)) != Sub(a(1), a(2))
    assert Sub(a(1), a(2)) != Sub(a(2), a(1))
    assert len({s1, s2, Eq(a(1), g("Z", "l"))}) == 2
    assert copy.copy(s1) == copy.deepcopy(s1) == pickle.loads(pickle.dumps(s1)) == s1


@pytest.mark.parametrize("value, name", [
    (Sort("Z"), "name"), (Decoration("l"), "symbol"), (dsort("Z"), "deco"), (a(1), "id"),
    (g("Z", "l"), "sort"), (Eq(a(1), a(2)), "lhs"), (Sub(a(1), g("Z")), "rhs"),
    (Var("x"), "name"), (SynApp("f"), "args"), (Pos(1, 2), "col"), (VarDecl("x", None), "pos"),
])
def test_values_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_repr_names_the_class_and_fields():
    assert repr(a(3)) == "TypeVar(id=3)"
    assert repr(g("Z", "l")) == "DecoratedSort(sort=Sort(name='Z'), deco=Decoration(symbol='l'))"
    assert repr(Sub(a(1), a(2))) == "Sub(lhs=TypeVar(id=1), rhs=TypeVar(id=2))"
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(SynApp("f", [Var("x")])) == "SynApp(op='f', args=(Var(name='x'),))"
    assert repr(VarDecl("x", None, Pos(1, 2))) == "VarDecl(name='x', ann=None, pos=Pos(line=1, col=2))"
    assert repr(WT) == "WtType()"


def test_values_compare_and_hash_by_class_and_fields():
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Var("x") != StarVar("x") and SynApp("f") != ListApp("f")
    assert Var("x") != Var("y") and Var("x") != "x"
    app = SynApp("f", [Var("x"), Var("y")])
    assert app == SynApp("f", (Var("x"), Var("y"))) and hash(app) == hash(SynApp("f", (Var("x"), Var("y"))))
    assert Pos(1, 2) != Pos(2, 1) and len({Pos(1, 2), Pos(1, 2), Pos(2, 1)}) == 2


def test_declarations_compare_without_their_position():
    first, second = VarDecl("x", g("Z"), Pos(1, 1)), VarDecl("x", g("Z"), Pos(7, 3))
    assert first == second and hash(first) == hash(second) and first.pos != second.pos
    assert first != VarDecl("y", g("Z"), Pos(1, 1)) and first != VarDecl("x", None, Pos(1, 1))


@pytest.mark.parametrize("value", [
    Var("x"), StarVar("xs"), SynApp("f", (Var("x"), ListApp("l"))), Match(Var("x"), Var("y"), g("Z")),
    Pos(3, 4), VarDecl("x", g("Z", "l"), Pos(1, 2)), SynRank.make("f", [Sort("Z")], Sort("N")),
    TraceStep("6", (Sub(a(1), g("Z")),), (), ((1, g("Z")),), (0, 0)), Violation("cycle", "A <: A"),
    GenParams(directed=0.5), WT,
], ids=lambda value: type(value).__name__)
def test_copies_and_pickles_are_equal_values(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value) and repr(other) == repr(value)


def test_interning_is_thread_safe():
    # Four threads build the same values, new to every table, at the same
    # time; a lost race would leave two objects for one value.
    ids = range(10**9, 10**9 + 2000)
    barrier = threading.Barrier(4)
    built: list[list] = []

    def build():
        barrier.wait(timeout=30)
        built.append([(TypeVar(i), dsort(f"Race{i}", "l")) for i in ids])

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside constructors too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 4
    for pairs in built[1:]:
        assert all(x is y and u is v for (x, u), (y, v) in zip(pairs, built[0]))


# ---------------------------------------------------------------------------
# Term text

def reference_text(e) -> str:
    """A term's text, written recursively: one Python call per nesting level."""
    if isinstance(e, (SynApp, ListApp)):
        return f"{e.op}({','.join(reference_text(a) for a in e.args)})"
    return str(e)


def test_deep_terms_print():
    # Term text keeps its own stack, so 5,000 levels of mixed applications
    # print, alone and inside a match and a rule, where the recursive
    # printer runs out of stack.
    term = Var("x")
    for i in range(5000):
        term = SynApp("s", (term,)) if i % 2 else ListApp("l", (StarVar("w"), term, Var("y")))
    with pytest.raises(RecursionError):
        reference_text(term)
    text = "s(l(w*," * 2500 + "x" + ",y))" * 2500
    assert str(term) == text
    match = Match(term, Var("t"), g("Z"))
    assert str(match) == f"{text} << [Z^?] t"
    assert str(Rule(match, (term, Var("t")))) == f"{text} << [Z^?] t -> ({text}, t)"


def test_term_text_matches_a_recursive_printer():
    for seed in range(300):
        _, rule = gen_instance(seed)
        terms = [t for m in getattr(rule.cond, "conds", (rule.cond,)) for t in (m.pattern, m.subject)]
        terms += rule.actions
        assert [str(t) for t in terms] == [reference_text(t) for t in terms]


# ---------------------------------------------------------------------------
# Properties

type_terms = st.one_of(
    st.integers(1, 6).map(TypeVar),
    st.sampled_from([g("Z"), g("N"), g("Z", "l"), g("N", "one")]),
)
substitutions = st.dictionaries(st.integers(1, 6), type_terms, max_size=5).map(
    lambda raw: _safe_subst(raw)
)


def _safe_subst(raw):
    try:
        return Substitution(raw)
    except ValueError:
        return Substitution()


@given(substitutions, type_terms)
def test_application_is_idempotent(s, t):
    once = apply_subst(s, t)
    assert apply_subst(s, once) == once


@given(substitutions, type_terms)
def test_reflexive_equality_always_satisfied(s, t):
    assert subst_satisfies(s, Eq(t, t), support.gamma_ex())


@given(st.lists(st.tuples(type_terms, type_terms), max_size=6),
       st.lists(st.tuples(type_terms, type_terms), max_size=6))
def test_free_vars_distribute_over_union(left, right):
    c_left = [Eq(l, r) for l, r in left]
    c_right = [Sub(l, r) for l, r in right]
    union = ConstraintSet(c_left + c_right)
    assert free_type_vars(union) == free_type_vars(c_left) | free_type_vars(c_right)
