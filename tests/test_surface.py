import pytest

import support

from ruletypes import ListApp, Match, Rule, StarVar, SynApp, Var, dsort, validate
from ruletypes.core import GroundType
from ruletypes.oracle import gen_instance
from ruletypes.surface import (
    OpDecl,
    ParseError,
    RuleDecl,
    SortDecl,
    SvarDecl,
    VarDecl,
    VopDecl,
    build_context,
    parse,
    pretty,
    render_instance,
    resolve_rule,
)


def test_running_example_parses(example2_path):
    sf = parse(example2_path.read_text())
    kinds = [type(d).__name__ for d in sf.decls]
    assert kinds == ["SortDecl", "SortDecl", "VopDecl", "OpDecl",
                     "SvarDecl", "VarDecl", "SvarDecl", "RuleDecl"]
    ctx = build_context(sf)
    assert validate(ctx) == []
    rule = resolve_rule(sf.rules[0], ctx)
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
])
def test_parse_errors_are_positioned(source, message, line, col):
    # Lines are counted as str.splitlines counts them; columns count characters.
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.message, exc.value.pos.line, exc.value.pos.col) == (message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


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
    ctx = build_context(sf)
    anns = [resolve_rule(r, ctx).cond.at for r in sf.rules]
    assert anns[0] == GroundType(dsort("Z"))
    assert anns[1] == GroundType(dsort("Z", "l"))
    assert anns[2] is None


def test_application_resolution_against_ranks(example2_path):
    sf = parse(example2_path.read_text())
    ctx = build_context(sf)
    rule = resolve_rule(sf.rules[0], ctx)
    assert isinstance(rule.cond.pattern, ListApp)
    assert isinstance(rule.cond.subject.args[0], SynApp)
    # unknown heads resolve syntactically so the checker reports them
    mystery = parse("sort Z\nrule g(x) << [Z] x -> ()\n")
    mystery_rule = resolve_rule(mystery.rules[0], build_context(mystery))
    assert isinstance(mystery_rule.cond.pattern, SynApp)


def test_fresh_markers_are_tracked():
    sf = parse("sort Z\nvar x : ?\nsvar y* : ?\nvar z : Z\n")
    assert [d.name for d in sf.fresh_marked] == ["x", "y"]
    ctx = build_context(sf)
    assert "z" in ctx.var_types and "x" not in ctx.var_types


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
    assert resolve_rule(sf.rules[0], ctx) == rule
