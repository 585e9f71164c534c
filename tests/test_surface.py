import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import support

from ruletypes import (
    Context,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    SynApp,
    Var,
    WellTyped,
    check_rule,
    cli,
    dsort,
    validate,
)
from ruletypes.oracle import gen_instance
from ruletypes.surface import (
    ParseError,
    Pos,
    build_context,
    parse,
    pretty,
    render_instance,
)


def test_source_file_views_are_computed_once():
    source = "sort Z\nvop l : Z* -> Z\nsvar x* : ?\nvar w : Z\nvar y : ?\nrule l(x*,y) << [?] w -> (y)\n"
    sf, unread = parse(source), parse(source)
    assert sf.rules is sf.rules and sf.fresh_marked is sf.fresh_marked
    assert [d.name for d in sf.fresh_marked] == ["x", "y"] and len(sf.rules) == 1
    # ==, hash, repr, copy and pickle follow the declarations alone, read or not
    for other in (unread, copy.copy(sf), copy.deepcopy(sf), pickle.loads(pickle.dumps(sf))):
        assert other == sf and hash(other) == hash(sf) and repr(other) == repr(sf)
        assert other.rules == sf.rules and other.fresh_marked == sf.fresh_marked


def test_running_example_parses(example2_path):
    sf = parse(example2_path.read_text())
    kinds = [type(d).__name__ for d in sf.decls]
    assert kinds == ["SortDecl", "SortDecl", "VariadicRank", "SynRank",
                     "SvarDecl", "VarDecl", "SvarDecl", "RuleDecl"]
    ctx = build_context(sf)
    assert validate(ctx) == []
    rule = sf.rules[0].rule
    assert rule == support.example_rule()


def test_empty_file():
    assert parse("").decls == ()
    assert parse("// nothing but a comment\n").decls == ()


def test_truncated_rule_is_positioned():
    with pytest.raises(ParseError) as exc:
        parse("rule x << [")
    assert exc.value.pos.line == 1
    assert exc.value.pos.col == 12


@pytest.mark.parametrize("source, message, line, col", [
    ("sort S $", "unexpected character '$'", 1, 8),
    ("rule ( $", "unexpected character '$'", 1, 8),  # before the line's parse error
    ("sortt A\n$", "unknown declaration 'sortt'", 1, 1),  # an earlier line's error first
    ("sort", "unexpected end of line", 1, 5),
    ("vop l : Z   ", "unexpected end of line, expected '*'", 1, 13),
    ("rule x << [Z] x", "unexpected end of line, expected '->'", 1, 16),
    ("rule x << Z", "expected '[', found 'Z'", 1, 11),
    ("rule f(x << [Z] x -> ()", "expected ')', found '<<'", 1, 10),
    ("sort (", "expected a sort name, found '('", 1, 6),
    ("rule x << [Z^] x -> ()", "expected a decoration, found ']'", 1, 14),
    ("sort S extra", "trailing input 'extra'", 1, 8),
    ("  sortt S", "unknown declaration 'sortt'", 1, 3),
    ("rule x* << [S] y -> ()", "star variable x* may only appear inside a list application", 1, 6),
    ("rule x << [S] y -> (z*)", "star variable z* may only appear inside a list application", 1, 21),
    ("rule x << [ // comment $", "unexpected end of line", 1, 25),  # the comment counts
    ("sort\tS\t$", "unexpected character '$'", 1, 8),
    ("var x : Int->", "trailing input '->'", 1, 12),
    ("op f : Int-- -> Int", "unexpected character '-'", 1, 12),
    ("sort A\r\nsort B\r\n\r\nsort $", "unexpected character '$'", 4, 6),
    ("sort A\x0csort $", "unexpected character '$'", 2, 6),
    ("sort A\u2028sort B $", "unexpected character '$'", 2, 8),
    ("sort A\x1csort B\x85sort\x1fB C", "trailing input 'C'", 3, 8),  # \x1f is a blank
    ("sort Z\nvar x :\t\u3000 Z^\t(", "expected a decoration, found '('", 2, 14),
])
def test_parse_errors_are_positioned(source, message, line, col):
    # Lines are counted as str.splitlines counts them; columns count characters.
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.message, exc.value.pos.line, exc.value.pos.col) == (message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("before", ["", "sort Z\n  // a comment\n\n"])
@pytest.mark.parametrize("decl", ["var x : Z", "svar x* : ?", "rule x << [?] y -> ()"])
def test_declaration_positions_count_leading_blanks(before, decl):
    line = before.count("\n") + 1
    assert parse(f"{before}\t\x1f\u3000{decl}").decls[-1].pos == Pos(line, 4)


def test_unknown_declaration():
    with pytest.raises(ParseError):
        parse("sortt S")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse("sort S extra")


def test_star_variables_rejected_at_top_level():
    with pytest.raises(ParseError):
        parse("rule x* << [S] y -> ()")
    with pytest.raises(ParseError):
        parse("rule x << [S] y -> (z*)")


def test_identifiers_with_sign_suffixes():
    sf = parse("sort Int\nsort Int+ <: Int\nsort Int- <: Int\nop suc : Int- -> Int+\n")
    ctx = build_context(sf)
    assert validate(ctx) == []
    rank = ctx.syn_ranks["suc"]
    assert rank.domain[0].sort.name == "Int-"
    assert rank.codomain.sort.name == "Int+"


def test_annotation_forms():
    sf = parse("sort Z\nvop l : Z* -> Z\n"
               "rule x << [Z] x -> ()\n"
               "rule x << [Z^l] x -> ()\n"
               "rule x << [?] x -> ()\n")
    anns = [r.rule.cond.at for r in sf.rules]
    assert anns[0] is dsort("Z")
    assert anns[1] is dsort("Z", "l")
    assert anns[2] is None


def test_application_resolution_against_ranks(example2_path):
    match = parse(example2_path.read_text()).rules[0].rule.cond
    assert isinstance(match.pattern, ListApp)
    assert isinstance(match.subject.args[0], SynApp)
    # unknown heads parse syntactically so the checker reports them
    mystery = parse("sort Z\nrule g(x) << [Z] x -> ()\n").rules[0].rule.cond
    assert isinstance(mystery.pattern, SynApp)


def test_list_operator_declared_after_its_rule():
    for source in [
        "sort Z\nvar x : Z\nrule l(x) << [Z] l() -> ()\nvop l : Z* -> Z\n",
        "sort Z\nvar x : Z\nrule l(x) << [Z] l() -> ()\n\x1f\u3000vop l : Z* -> Z\n",  # blanks before
        "sort Z\nvar x : Z\nrule l(x) << [Z] l() -> ()\x0cvop l : Z* -> Z",  # after other line breaks
        "sort Z\u2028var x : Z\u2028rule l(x) << [Z] l() -> ()\u2028vop l : Z* -> Z\u2028",
    ]:
        sf = parse(source)
        match = sf.rules[0].rule.cond
        assert match == Match(ListApp("l", (Var("x"),)), ListApp("l"), dsort("Z"))
        ctx = build_context(sf)
        assert validate(ctx) == []
        assert isinstance(check_rule(ctx, sf.rules[0].rule), WellTyped)


def test_names_spelled_vop_are_not_list_operators():
    # Only a line headed by `vop` declares a list operator.
    sf = parse("sort vop\nop vop : vop -> vop\nvar vop : vop\nvop l : vop* -> vop\n"
               "rule l(vop(vop)) << [vop] vop(vop) -> (vop)\n")
    match = sf.rules[0].rule.cond
    assert match.pattern == ListApp("l", (SynApp("vop", (Var("vop"),)),))
    assert match.subject == SynApp("vop", (Var("vop"),))
    ctx = build_context(sf)
    assert validate(ctx) == []
    assert isinstance(check_rule(ctx, sf.rules[0].rule), WellTyped)
    # Nor does a comment, or a head that only begins with `vop`.
    commented = parse("sort Z\n// vop l : Z* -> Z\nop l : Z -> Z\nrule l(x) << [Z] x -> ()\n")
    assert commented.rules[0].rule.cond.pattern == SynApp("l", (Var("x"),))
    for head in ("vop+", "vop-"):
        with pytest.raises(ParseError) as exc:
            parse(f"sort Z\nrule l(x) << [Z] x -> ()\n{head} l : Z* -> Z\n")
        assert str(exc.value) == f"3:1: unknown declaration {head!r}"


def test_operator_declared_both_ways_is_overloading(capsys, tmp_path):
    # The parser reads l(...) as a list, the context keeps `op l`; the file
    # is rejected before any rule runs.
    path = tmp_path / "both.rules"
    path.write_text("sort Z\nop l : Z -> Z\nvop l : Z* -> Z\nvar x : Z\nrule l(x) << [Z] x -> ()\n")
    assert cli.run(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", f"{path}: overloading: operator l declared more than once\n")


def test_fresh_markers_are_tracked():
    sf = parse("sort Z\nvar x : ?\nsvar y* : ?\nvar z : Z\n")
    assert [d.name for d in sf.fresh_marked] == ["x", "y"]
    ctx = build_context(sf)
    assert "z" in ctx.var_types and "x" not in ctx.var_types


# Lines of sources: whole or cut-short declarations, or runs of names, every
# symbol, blanks and comments; each line ends in a break that str.splitlines
# knows.
DECLARATIONS = [
    "sort Z", "sort N <: Z", "op f : Z N -> Z", "op c : -> N", "vop l : Z* -> Z", "var x : Z^l",
    "svar w* : ?", "rule l(x, w*, f(x, c())) << [Z] x /\\ x << [?] c() -> (x)", "rule x << [N^c] c() -> ()",
]
PIECES = [
    "sort", "op", "vop", "var", "svar", "rule", "x", "Z", "l", "f", "vop+", "Int-", "a_1", "$",
    "<<", "<:", "->", "/\\", ":", "(", ")", "[", "]", ",", "^", "*", "?",
    " ", "\t", "\x1f", "\u3000", "// vop l : Z* -> Z", "//",
]
BLANKS = ["", " ", "\t", "\x1f", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x85", ""]
LINES = st.tuples(
    st.sampled_from(BLANKS),
    st.one_of(st.sampled_from(DECLARATIONS),
              st.sampled_from(DECLARATIONS).flatmap(lambda d: st.integers(0, len(d)).map(lambda k: d[:k])),
              st.lists(st.sampled_from(PIECES), max_size=10).map("".join)),
    st.sampled_from(["", " // a comment"]),
    st.sampled_from(BREAKS),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.lists(LINES, max_size=8).map("".join))
def test_parse_accepts_or_points_into_the_source(source):
    # The walk never reads past a line's end: a source parses and prints
    # back to itself, or its error lies on one of its lines.
    try:
        sf = parse(source)
    except ParseError as exc:
        lines = source.splitlines()
        assert 1 <= exc.pos.line <= len(lines)
        assert 1 <= exc.pos.col <= len(lines[exc.pos.line - 1]) + 1
    else:
        assert parse(pretty(sf)) == sf


def test_round_trip_on_fixtures(fixtures_dir):
    paths = sorted(fixtures_dir.glob("*.rules")) + sorted((fixtures_dir / "corpus").glob("*.rules"))
    assert {"example2.rules", "example4.rules", "lists.rules", "stuck.rules"} <= {p.name for p in paths}
    sources = [p.read_text() for p in paths]
    for source in sources:
        sf = parse(source)
        assert parse(pretty(sf)) == sf


EVERY_FORM = """\
// every declaration form, in non-canonical spacing
sort Int
sort Int+ <: Int
sort Int-<:Int
op c : -> Int+
op f : Int- Int -> Int
vop L : Int* -> Int
var x : ?
var y : Int
var z : Int^L
svar w* : ?
svar v* : Int^L
rule L(v*, f(x, c()), L(y, w*)) << [Int] z /\\ x << [Int^L] y /\\ y << [?] c() -> ()
rule x << [Int+^?] c() -> (y, f(x,y))
"""


def test_pretty_prints_the_canonical_form():
    assert pretty(parse(EVERY_FORM)) == (
        "sort Int\n"
        "sort Int+ <: Int\n"
        "sort Int- <: Int\n"
        "op c : -> Int+\n"
        "op f : Int- Int -> Int\n"
        "vop L : Int* -> Int\n"
        "var x : ?\n"
        "var y : Int^?\n"
        "var z : Int^L\n"
        "svar w* : ?\n"
        "svar v* : Int^L\n"
        "rule L(v*,f(x,c()),L(y,w*)) << [Int^?] z /\\ x << [Int^L] y /\\ y << [?] c() -> ()\n"
        "rule x << [Int+^?] c() -> (y, f(x,y))\n")


def test_round_trip_on_generated_instances():
    for seed in range(40):
        text = render_instance(*gen_instance(seed))
        sf = parse(text)
        assert parse(pretty(sf)) == sf


def test_render_instance_rebuilds_the_same_context(gamma_ex):
    rule = support.example_rule()
    text = render_instance(gamma_ex, rule)
    sf = parse(text)
    ctx = build_context(sf)
    assert ctx.sorts == gamma_ex.sorts
    assert ctx.subsort_decls == gamma_ex.subsort_decls
    assert ctx.syn_ranks == gamma_ex.syn_ranks
    assert ctx.var_ranks == gamma_ex.var_ranks
    assert ctx.var_types == gamma_ex.var_types
    assert ctx.star_types == gamma_ex.star_types
    assert sf.rules[0].rule == rule


def test_render_instance_keeps_every_declared_parent():
    # One sort line per edge, so the round trip keeps the defect for
    # validate to report and the first-declared parent for the order.
    sa, sb, sc = Sort("A"), Sort("B"), Sort("C")
    ctx = Context([sa, sb, sc], [(sa, sb), (sa, sc)])
    rule = Rule(Match(Var("x"), Var("x"), dsort("A")))
    text = render_instance(ctx, rule)
    assert text.startswith("sort A <: B\nsort A <: C\nsort B\nsort C\n")
    again = build_context(parse(text))
    assert again.subsort_decls == ctx.subsort_decls
    assert [v.kind for v in validate(again)] == ["multiple-inheritance"]
    assert again.supersort_chain(sa) == (sa, sb)
