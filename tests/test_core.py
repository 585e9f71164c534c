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
    apply_subst,
    dsort,
    free_type_vars,
    subst_satisfies,
)
from ruletypes.context import SynRank, Violation
from ruletypes.core import (
    Conj,
    DecoratedSort,
    Decoration,
    GroundType,
    ListApp,
    Match,
    Sort,
    StarVar,
    SynApp,
    TypeVar,
    Var,
)
from ruletypes.oracle import GenParams
from ruletypes.solver import TraceStep
from ruletypes.surface import Pos, SortDecl, VarDecl


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


def test_wt_never_inside_constraints():
    with pytest.raises(ValueError):
        Eq(WT, a(1))
    with pytest.raises(ValueError):
        Sub(a(1), WT)


def test_conjunction_needs_two_conditions():
    m = Match(Var("v"), Var("v"), None)
    assert Conj([m, m]).conds == (m, m)
    for conds in ([], [m]):
        with pytest.raises(ValueError):
            Conj(conds)


# ---------------------------------------------------------------------------
# Value semantics: interned type terms, constraints compared by their sides

def test_equal_type_terms_are_one_object():
    assert TypeVar(3) is TypeVar(3)
    assert dsort("Z", "l") is DecoratedSort(Sort("Z"), Decoration("l"))
    assert dsort("Z") is DecoratedSort(Sort("Z")) is DecoratedSort(Sort("Z"), Decoration(None))
    assert g("Z", "l") is GroundType(dsort("Z", "l")) and g("Z") is not g("Z", "l")
    for value in (Sort("Z"), Decoration(), dsort("Z", "l"), a(2), g("Z", "l")):
        assert copy.copy(value) is copy.deepcopy(value) is pickle.loads(pickle.dumps(value)) is value


def test_equal_constraints_compare_and_hash_alike():
    s1, s2 = Sub(a(1), g("Z", "l")), Sub(TypeVar(1), GroundType(dsort("Z", "l")))
    assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2)
    assert Eq(a(1), a(2)) != Sub(a(1), a(2))
    assert Sub(a(1), a(2)) != Sub(a(2), a(1))
    assert len({s1, s2, Eq(a(1), g("Z", "l"))}) == 2
    assert copy.copy(s1) == copy.deepcopy(s1) == pickle.loads(pickle.dumps(s1)) == s1


@pytest.mark.parametrize("value, name", [
    (Sort("Z"), "name"), (Decoration("l"), "symbol"), (dsort("Z"), "deco"), (a(1), "id"),
    (g("Z"), "dsort"), (Eq(a(1), a(2)), "lhs"), (Sub(a(1), g("Z")), "rhs"),
    (Var("x"), "name"), (SynApp("f"), "args"), (Pos(1, 2), "col"), (VarDecl("x", None), "pos"),
])
def test_values_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_repr_names_the_class_and_fields():
    assert repr(a(3)) == "TypeVar(id=3)"
    assert repr(g("Z", "l")) == ("GroundType(dsort=DecoratedSort(sort=Sort(name='Z'), "
                                 "deco=Decoration(symbol='l')))")
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
    assert SortDecl("N", "Z", Pos(2, 1)) == SortDecl("N", "Z")


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
        built.append([(TypeVar(i), GroundType(dsort(f"Race{i}", "l"))) for i in ids])

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
