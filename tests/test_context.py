import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import support
from support import g

from ruletypes import Context, ListApp, Sort, StarVar, SynApp, SynRank, Var, VariadicRank, dsort, validate
from ruletypes.core import Conj, DecoratedSort, Decoration, Match, Rule, conjoin
from ruletypes.oracle import ground_universe


# ---------------------------------------------------------------------------
# sortof

def test_sortof_star_variable(gamma_ex):
    assert gamma_ex.sortof(StarVar("x")) == dsort("Z", "l")


def test_sortof_list_application(gamma_ex):
    assert gamma_ex.sortof(ListApp("l", (SynApp("one"),))) == dsort("Z", "l")


def test_sortof_undeclared_is_none(gamma_ex):
    assert gamma_ex.sortof(Var("w")) is None


def test_sortof_inference_typing_is_none():
    from ruletypes.core import TypeVar
    ctx = Context(sorts=[Sort("Z")], var_types={"y": TypeVar(1)})
    assert ctx.sortof(Var("y")) is None
    assert ctx.raw_typing(Var("y")) == TypeVar(1)


# ---------------------------------------------------------------------------
# subtype_holds

def test_decorated_constant_below_any_integer(gamma_ex):
    assert gamma_ex.subtype_holds(dsort("N", "one"), dsort("Z"))


def test_reflexivity(gamma_ex):
    for ds in (dsort("Z", "l"), dsort("N"), dsort("N", "one")):
        assert gamma_ex.subtype_holds(ds, ds)


def test_decoration_mismatch_blocks(gamma_ex):
    assert not gamma_ex.subtype_holds(dsort("Z", "l"), dsort("Z", "one"))


def test_no_upward_chain(gamma_ex):
    assert not gamma_ex.subtype_holds(dsort("Z"), dsort("N"))


def test_subtype_agrees_with_edge_walking_oracle(gamma_ex):
    decorations = [None, "l", "one"]
    pairs = [dsort(s, d) for s in ("Z", "N") for d in decorations]
    for x, y in itertools.product(pairs, pairs):
        assert gamma_ex.subtype_holds(x, y) == support.naive_subtype(gamma_ex, x, y), (x, y)


# ---------------------------------------------------------------------------
# supersort_chain

def walk_first_parents(subsorts, s):
    """A sort's chain by walking from it along first-declared parents until
    a sort repeats."""
    first = {}
    for child, parent in subsorts:
        first.setdefault(child, parent)
    chain = [s]
    while s in first and first[s] not in chain:
        s = first[s]
        chain.append(s)
    return tuple(chain)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14))
def test_supersort_chain_is_the_walk_along_first_parents(edges):
    # Edges may form cycles and self-loops, give a sort several parents, or
    # name a sort that is not declared (6 and 7).
    sorts = [Sort(f"S{i}") for i in range(8)]
    subsorts = [(sorts[a], sorts[b]) for a, b in edges]
    ctx = Context(sorts=sorts[:6], subsorts=subsorts)
    for s in sorts:
        assert ctx.supersort_chain(s) == walk_first_parents(subsorts, s)
    for x, y in itertools.product(sorts, sorts):
        above_x, above_y = walk_first_parents(subsorts, x), walk_first_parents(subsorts, y)
        assert ctx.sort_leq(x, y) == (y in above_x)
        common = next((DecoratedSort(s) for s in above_x if s in above_y), None)
        assert ctx.common_supersort(DecoratedSort(x, Decoration("f")), DecoratedSort(y)) == common
    typed = ctx.with_typings({"x": g("S0")})
    assert all(typed.supersort_chain(s) == ctx.supersort_chain(s) for s in sorts)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
def test_sort_leq_is_membership_in_the_supersort_chain(edges):
    # sort_leq walks the parents under a bound of its own instead of
    # building the chain; on cyclic contexts too it must answer as the chain.
    sorts = [Sort(f"S{i}") for i in range(10)]
    ctx = Context(sorts=sorts[:8], subsorts=[(sorts[a], sorts[b]) for a, b in edges])
    for x, y in itertools.product(sorts, sorts):
        assert ctx.sort_leq(x, y) == (y in ctx.supersort_chain(x))


def test_order_queries_keep_no_table():
    # A context holds its declarations only, so building and validating one
    # takes memory linear in the number of sorts.  Measured in a fresh
    # interpreter: a first build also grows the tables of interned sorts,
    # whose size depends on what ran before.
    probe = """if True:
        import tracemalloc, support
        from ruletypes import validate
        from ruletypes.surface import build_context, parse
        for length in (1000, 3000):
            sf = parse(support.chain(length))
            tracemalloc.start()
            assert validate(build_context(sf)) == []
            print(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    """
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (tests.parent / "src", tests)))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    small, large = map(int, out.split())
    assert large < 4 * 2**20
    assert large < 3.5 * small


# ---------------------------------------------------------------------------
# common_supersort

def test_common_supersort_of_constant_and_list(gamma_ex):
    # supersorts of N are {N, Z}, of Z just {Z}: least common is Z
    assert gamma_ex.common_supersort(dsort("N", "one"), dsort("Z", "l")) == dsort("Z")
    chain = gamma_ex.supersort_chain(Sort("N"))
    shared = [s for s in chain if support.naive_sort_leq(gamma_ex, Sort("Z"), s)]
    assert shared and shared[0] == Sort("Z")


def test_common_supersort_shared_sort(gamma_ex):
    assert gamma_ex.common_supersort(dsort("Z", "l"), dsort("Z", "l")) == dsort("Z")


def test_common_supersort_disjoint_roots():
    ctx = Context(sorts=[Sort("A"), Sort("B")])
    assert ctx.common_supersort(dsort("A"), dsort("B")) is None


# ---------------------------------------------------------------------------
# Ranks

def test_make_chooses_the_decorations():
    assert SynRank.make("f", [Sort("Z"), Sort("N")], Sort("Z")) == SynRank(
        "f", (dsort("Z"), dsort("N")), dsort("Z", "f"))
    assert VariadicRank.make("l", Sort("Z"), Sort("N")) == VariadicRank("l", dsort("Z"), dsort("N", "l"))
    assert str(SynRank.make("c", [], Sort("N"))) == "c : -> N"


@pytest.mark.parametrize("build", [
    lambda: SynRank("f", (dsort("Z"),), dsort("Z")),             # codomain not decorated by f
    lambda: SynRank("f", (dsort("Z"),), dsort("Z", "g")),
    lambda: SynRank("f", [dsort("Z", "l")], dsort("Z", "f")),    # decorated domain sort
    lambda: VariadicRank("l", dsort("Z"), dsort("Z", "f")),
    lambda: VariadicRank("l", dsort("Z", "l"), dsort("Z", "l")),  # decorated element sort
])
def test_direct_construction_rejects_ill_formed_decorations(build):
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# validate

def test_accepts_signed_integer_hierarchy():
    ctx = Context(
        sorts=[Sort("Int+"), Sort("Int-"), Sort("Int")],
        subsorts=[(Sort("Int+"), Sort("Int")), (Sort("Int-"), Sort("Int"))],
    )
    assert validate(ctx) == []


def test_rejects_multiple_inheritance():
    ctx = Context(
        sorts=[Sort("Zero"), Sort("Int+"), Sort("Int-")],
        subsorts=[(Sort("Zero"), Sort("Int+")), (Sort("Zero"), Sort("Int-"))],
    )
    kinds = [v.kind for v in validate(ctx)]
    assert "multiple-inheritance" in kinds


def test_rejects_overloading():
    ctx = Context(
        sorts=[Sort("Int+"), Sort("Int-")],
        ranks=[SynRank.make("suc", [Sort("Int+")], Sort("Int+")),
               SynRank.make("suc", [Sort("Int-")], Sort("Int-"))],
    )
    kinds = [v.kind for v in validate(ctx)]
    assert "overloading" in kinds


def test_rejects_subsort_cycle():
    ctx = Context(sorts=[Sort("A"), Sort("B")],
                  subsorts=[(Sort("A"), Sort("B")), (Sort("B"), Sort("A"))])
    kinds = [v.kind for v in validate(ctx)]
    assert "subsort-cycle" in kinds


def test_rejects_unknown_sort_and_bad_star_typing():
    ctx = Context(
        sorts=[Sort("Z")],
        ranks=[VariadicRank.make("l", Sort("Z"), Sort("Z"))],
        star_types={"x": g("Z", "one")},
        var_types={"y": g("Q")},
    )
    kinds = {v.kind for v in validate(ctx)}
    assert "bad-star-typing" in kinds and "unknown-sort" in kinds


def test_ground_types_outside_the_universe_are_reported_in_declaration_order():
    # The universe is Z^?, N^?, Z^l and N^one.  Q is undeclared; N^l and
    # Z^zz lie outside it; a star needs a variadic operator's codomain.
    ctx = Context(
        sorts=[Sort("Z"), Sort("N")],
        ranks=[VariadicRank.make("l", Sort("Z"), Sort("Z")), SynRank.make("one", [], Sort("N"))],
        var_types={"a": g("Q"), "b": g("N", "l"), "c": g("N", "one"), "d": g("Z", "l")},
        star_types={"w": g("Q", "l"), "u": g("N", "one"), "v": g("Z", "l")},
    )
    rule = Rule(Conj((Match(Var("a"), Var("b"), g("Z", "zz")), Match(Var("c"), Var("d"), None))))
    expected = [
        ("unknown-sort", "variable a typed at undeclared sort Q"),
        ("unknown-type", "variable b typed at N^l, which is neither a declared sort at ? "
                         "nor an operator's codomain"),
        ("unknown-sort", "star variable w* typed at undeclared sort Q"),
        ("bad-star-typing", "star variable w* must be typed at a variadic operator's list type, got Q^l"),
        ("bad-star-typing", "star variable u* must be typed at a variadic operator's list type, got N^one"),
    ]
    assert [(v.kind, v.detail) for v in validate(ctx)] == expected
    assert [(v.kind, v.detail) for v in validate(ctx, [rule, rule])] == expected + [
        ("unknown-type", f"match 1 of rule {i} annotated at Z^zz, which is neither a declared sort at ? "
                         "nor an operator's codomain") for i in (1, 2)]


@st.composite
def signatures_and_rules(draw):
    """A well-formed signature (declared sorts, single inheritance, no
    cycle), with typings and annotations that mostly, not always, lie in
    its universe."""
    sorts = [Sort(f"S{i}") for i in range(draw(st.integers(1, 4)))]
    edges = [(s, sorts[draw(st.integers(0, i - 1))]) for i, s in enumerate(sorts[1:], 1) if draw(st.booleans())]
    some_sort = st.sampled_from(sorts)
    ranks = [SynRank.make(f"f{i}", draw(st.lists(some_sort, max_size=2)), draw(some_sort))
             for i in range(draw(st.integers(0, 3)))]
    ranks += [VariadicRank.make(f"L{i}", draw(some_sort), draw(some_sort)) for i in range(draw(st.integers(0, 2)))]
    signature = Context(sorts, edges, ranks)
    inside = st.sampled_from(ground_universe(signature))
    anywhere = st.builds(DecoratedSort, st.sampled_from(sorts + [Sort("Q")]),
                         st.sampled_from([None, "zz"] + [r.op for r in ranks]).map(Decoration))
    types = st.one_of(inside, inside, inside, anywhere)
    ctx = signature.with_typings(draw(st.dictionaries(st.sampled_from("xyz"), types, max_size=3)),
                                 draw(st.dictionaries(st.sampled_from("uvw"), types, max_size=2)))
    matches = [Match(Var("x"), Var("y"), at) for at in draw(st.lists(st.none() | types, min_size=1, max_size=3))]
    return ctx, Rule(conjoin(matches))


@given(signatures_and_rules())
def test_a_validated_universe_is_a_forest(instance):
    ctx, rule = instance
    universe = ground_universe(ctx)
    list_types = {rank.codomain for rank in ctx.var_ranks.values()}
    anns = [m.at for m in getattr(rule.cond, "conds", (rule.cond,)) if m.at is not None]
    admitted = set(ctx.var_types.values()) | set(anns) <= set(universe) and set(ctx.star_types.values()) <= list_types
    assert (validate(ctx, [rule]) == []) == admitted
    if not admitted:
        return
    below = ctx.subtype_holds
    for x in universe:
        above = [y for y in universe if y is not x and below(x, y)]
        covers = [y for y in above if not any(z is not y and below(z, y) for z in above)]
        assert len(covers) <= 1, (x, covers)


def test_duplicate_typing_reported():
    ctx = Context(sorts=[Sort("Z")], var_types=[("y", g("Z")), ("y", g("Z"))])
    assert "duplicate-typing" in [v.kind for v in validate(ctx)]


# ---------------------------------------------------------------------------
# Properties over random forests

@st.composite
def forests(draw):
    n = draw(st.integers(1, 6))
    sorts = [Sort(f"S{i}") for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))
        if parent >= 0:
            edges.append((sorts[i], sorts[parent]))
    return Context(sorts=sorts, subsorts=edges)


@given(forests())
def test_closure_is_reflexive_and_transitive(ctx):
    for s in ctx.sorts:
        assert ctx.sort_leq(s, s)
    for x in ctx.sorts:
        for y in ctx.sorts:
            for z in ctx.sorts:
                if ctx.sort_leq(x, y) and ctx.sort_leq(y, z):
                    assert ctx.sort_leq(x, z)


@given(forests())
def test_closure_is_antisymmetric_on_forests(ctx):
    for x in ctx.sorts:
        for y in ctx.sorts:
            if x != y:
                assert not (ctx.sort_leq(x, y) and ctx.sort_leq(y, x))


@given(forests())
def test_common_supersort_is_least(ctx):
    for x in ctx.sorts:
        for y in ctx.sorts:
            shared = [s for s in ctx.sorts
                      if ctx.sort_leq(x, s) and ctx.sort_leq(y, s)]
            got = ctx.common_supersort(DecoratedSort(x), DecoratedSort(y))
            if not shared:
                assert got is None
            else:
                assert got is not None
                assert got.deco.is_any and got.sort in shared
                assert all(ctx.sort_leq(got.sort, s) for s in shared)
