"""The command-line contract: byte-for-byte goldens for the running example
and the list rules, one exit code per outcome, verdicts on very wide lists,
and diagnostics instead of a traceback on very deep nesting or a closed
pipe."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import support
from ruletypes import cli, solver, surface
from ruletypes.core import RULE_LABELS, Constraint, Derivation, Eq, GroundType, Sub, TypeVar, dsort


@pytest.mark.parametrize("argv, source, golden", [
    (["check", "--trace"], "example2.rules", "fig3_check.txt"),
    (["check", "--trace", "--format", "json"], "example2.rules", "example2_check.json"),
    (["solve"], "example4.rules", "example4_solve.txt"),
    (["solve", "--trace", "--format", "json"], "example4.rules", "example4_solve_trace.json"),
    (["solve", "--trace"], "example4.rules", "example4_solve_trace.txt"),
    # rule (12) produces a constraint: the `=> …` part of a trace step
    (["solve", "--trace"], "produce.rules", "produce_solve_trace.txt"),
    (["solve", "--trace", "--format", "json"], "produce.rules", "produce_solve_trace.json"),
])
def test_output_matches_golden(capsys, fixtures_dir, argv, source, golden):
    assert cli.run(argv + [str(fixtures_dir / source)]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (fixtures_dir / "golden" / golden).read_bytes()
    assert captured.err == ""


@pytest.mark.parametrize("command, golden, code", [
    ("check", "lists_check.txt", 1),
    ("infer", "lists_infer.txt", 0),
])
def test_list_rules_match_golden(capsys, monkeypatch, fixtures_dir, command, golden, code):
    monkeypatch.chdir(fixtures_dir)  # the error line names the file as given
    assert cli.run([command, "--trace", "lists.rules"]) == code
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (fixtures_dir / "golden" / golden).read_bytes()
    assert captured.err == ""


@pytest.mark.parametrize("argv, code", [
    (["solve", "{fixtures}/example4.rules"], 0),
    (["solve", "{fixtures}/corpus/seed_017.rules"], 1),     # failed(4)
    (["solve", "{tmp}/missing.rules"], 2),
    (["check", "{tmp}/garbage.rules"], 2),
    (["check", "{tmp}/latin1.rules"], 2),                   # not UTF-8
    (["check", "{tmp}/cycle.rules"], 3),                    # ill-formed signature
    (["check", "{fixtures}/example4.rules"], 3),            # inference form
    (["solve", "{fixtures}/stuck.rules"], 4),
    (["solve", "--seed", "0", "--oracle", "--max-enum", "1"], 5),
    (["solve", "--seed", "0", "--oracle", "--max-enum", "-5"], 2),
], ids=["solved", "failed", "missing-file", "parse-error", "not-utf8", "ill-formed",
        "mode-mismatch", "stuck", "enumeration-budget", "negative-budget"])
def test_exit_codes(capsys, tmp_path, fixtures_dir, argv, code):
    (tmp_path / "garbage.rules").write_text("rule (\n")
    (tmp_path / "latin1.rules").write_bytes(b"sort Z\n\xff\n")
    (tmp_path / "cycle.rules").write_text("sort A <: B\nsort B <: A\n")
    argv = [arg.format(fixtures=fixtures_dir, tmp=tmp_path) for arg in argv]
    try:
        got = cli.run(argv)
    except SystemExit as exc:  # a usage error exits from argparse
        got = exc.code
    assert got == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, fmt):
    path = tmp_path / "latin1.rules"
    path.write_bytes(b"sort Z\n\xff\n")
    assert cli.run(["check", "--format", fmt, str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: not UTF-8 text\n")


def test_closed_pipe_exits_quietly(capsys, monkeypatch, tmp_path, example2_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        flush = write

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        monkeypatch.setattr(sys, "argv", ["ruletypes", "check", "--trace", str(example2_path)])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == ""


SOURCE = """\
sort Z
sort N <: Z
op c : -> N
op s : Z -> N
vop L : Z* -> Z
var t : Z^L
rule {pattern} << [{ann}] t -> (t)
rule L(c()) << [{ann}] t -> (t)
"""


def nested(depth: int) -> str:
    return "s(" * depth + "c()" + ")" * depth


@pytest.mark.parametrize("command, next_rule", [
    ("check", "rule 2: well-typed"),
    ("infer", "rule 2: Γ = {t : Z^L}"),
    ("solve", "rule 2: solved σ = {"),
])
def test_too_long_list_is_a_rule_error(capsys, tmp_path, command, next_rule):
    # List spines are walked in a loop, so a wide list gets a verdict; term
    # nesting is still walked recursively, and a rule nested too deeply for
    # the interpreter's stack is a per-rule error that later rules survive.
    ann = "Z" if command == "check" else "?"
    path = tmp_path / "long.rules"
    path.write_text(SOURCE.format(pattern=nested(700), ann=ann))

    assert cli.run([command, str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{path}:7:1: rule 1: error TooDeep at rule: "
                        "the rule nests too deeply to process")
    assert lines[1].startswith(next_rule)

    assert cli.run([command, "--format", "json", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == 1
    assert report["rules"][0] == {
        "index": 1, "outcome": "error",
        "error": {"kind": "TooDeep", "path": "rule",
                  "detail": "the rule nests too deeply to process"}}
    assert report["rules"][1]["index"] == 2 and "error" not in report["rules"][1]

    # solve is quadratic in the constraint count, so it gets a shorter list
    width = 600 if command == "solve" else 2000
    path.write_text(SOURCE.format(pattern=f"L({','.join(['c()'] * width)})", ann=ann))
    assert cli.run([command, str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(next_rule.replace("rule 2:", "rule 1:"))
    assert any(line.startswith(next_rule) for line in lines[1:])


@pytest.mark.parametrize("command, next_rule", [
    ("check", "rule 2: well-typed"),
    ("infer", "rule 2: Γ = {t : Z^L}"),
])
def test_too_deep_to_render_is_a_rule_error(capsys, tmp_path, command, next_rule):
    # At 300 levels the rule runs, but printing its terms for --trace
    # recurses too deeply: rule 1 gives only its error, in either format.
    ann = "Z" if command == "check" else "?"
    path = tmp_path / "deep.rules"
    path.write_text(SOURCE.format(pattern=nested(300), ann=ann))
    error_line = f"{path}:7:1: rule 1: error TooDeep at rule: the rule nests too deeply to process"

    assert cli.run([command, "--trace", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == error_line and lines[1].startswith(next_rule)
    assert not any("rule 1:" in line for line in lines[1:])
    assert captured.err == ""

    assert cli.run([command, "--trace", "--format", "json", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["exit"] == 1
    assert report["rules"][0] == {
        "index": 1, "outcome": "error",
        "error": {"kind": "TooDeep", "path": "rule",
                  "detail": "the rule nests too deeply to process"}}
    assert report["rules"][1]["index"] == 2 and "error" not in report["rules"][1]
    assert captured.err == ""

    if command == "check":
        assert cli.run([command, str(path)]) == 0
        assert capsys.readouterr().out == "rule 1: well-typed\nrule 2: well-typed\n"


@pytest.mark.parametrize("command", ["check", "infer"])
def test_text_trace_of_a_wide_list(capsys, tmp_path, command):
    # Text mode renders the derivation in a loop and builds no JSON tree,
    # whose rendering recurses once per level.
    path = tmp_path / "wide.rules"
    ann = "Z" if command == "check" else "?"
    path.write_text(SOURCE.format(pattern=f"L({','.join(['c()'] * 600)})", ann=ann))
    assert cli.run([command, "--trace", str(path)]) == 0
    assert "TooDeep" not in capsys.readouterr().out


def printed_nodes(output: str, fmt: str) -> int:
    """The number of judgments in the derivation trees of a report."""
    if fmt == "text":
        labels = tuple(f"  [{label}]" for label in RULE_LABELS)
        return sum(line.endswith(labels) for line in output.splitlines())
    stack = [rule["derivation"] for rule in json.loads(output)["rules"]]
    count = 0
    while stack:
        count += 1
        stack.extend(stack.pop()["premises"])
    return count


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["check", "infer", "solve"])
def test_derivation_is_built_only_to_be_printed(capsys, monkeypatch, tmp_path, command, fmt):
    built = []
    post_init = Derivation.__post_init__

    def counted(d):
        built.append(d)
        post_init(d)

    monkeypatch.setattr(Derivation, "__post_init__", counted)
    path = tmp_path / "wide.rules"
    ann = "Z" if command == "check" else "?"
    path.write_text(SOURCE.format(pattern=f"L({','.join(['s(c())'] * 40)})", ann=ann))

    assert cli.run([command, "--format", fmt, str(path)]) == 0
    capsys.readouterr()
    assert built == []

    assert cli.run([command, "--trace", "--format", fmt, str(path)]) == 0
    printed = printed_nodes(capsys.readouterr().out, fmt)
    assert printed > 120 and len(built) == printed


def printed_steps(output: str, fmt: str) -> int:
    """The number of solver steps in a report's traces."""
    if fmt == "text":
        return sum(re.match(r"  \((\d+|7a|7b)\) ", line) is not None for line in output.splitlines())
    return sum(len(rule["steps"]) for rule in json.loads(output)["rules"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solver_trace_is_built_only_to_be_printed(capsys, monkeypatch, tmp_path, fmt):
    built = []
    init = solver.TraceStep.__init__

    def counted(step, *fields):
        built.append(step)
        init(step, *fields)

    monkeypatch.setattr(solver.TraceStep, "__init__", counted)
    path = tmp_path / "wide.rules"
    path.write_text(SOURCE.format(pattern=f"L({','.join(['s(c())'] * 40)})", ann="?"))

    assert cli.run(["solve", "--format", fmt, str(path)]) == 0
    capsys.readouterr()
    assert built == []

    assert cli.run(["solve", "--trace", "--format", fmt, str(path)]) == 0
    printed = printed_steps(capsys.readouterr().out, fmt)
    assert printed > 40 and len(built) == printed


def loads_deep(text: str):
    """``json.loads``, which recurses once per nesting level, on deep text."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(limit)


def test_json_trace_of_a_wide_list(capsys, tmp_path):
    # The derivation tree and its JSON text are both built without
    # recursion, so a 600-level derivation gets a verdict.
    path = tmp_path / "wide.rules"
    path.write_text(SOURCE.format(pattern=f"L({','.join(['c()'] * 600)})", ann="Z"))
    assert cli.run(["check", "--trace", "--format", "json", str(path)]) == 0
    text = capsys.readouterr().out
    assert "TooDeep" not in text
    report = loads_deep(text)
    assert report["exit"] == 0
    assert [r["outcome"] for r in report["rules"]] == ["well-typed", "well-typed"]
    node, depth = report["rules"][0]["derivation"], 0
    while node["premises"]:
        node, depth = node["premises"][0], depth + 1
    assert node["rule"] == "T-Empty" and depth > 600


def listed_constraints(output: str, fmt: str) -> int:
    """The number of constraints listed at the derivation nodes of a report."""
    if fmt == "text":
        lists = re.findall(r" • \{(.*)\} *  \[[\w-]+\]$", output, re.MULTILINE)
        return sum(len(body.split(", ")) for body in lists if body)
    stack = [rule["derivation"] for rule in loads_deep(output)["rules"]]
    count = 0
    while stack:
        node = stack.pop()
        count += len(node["conclusion"]["constraints"])
        stack.extend(node["premises"])
    return count


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("width, emitted", [(40, 214), (80, 422), (160, 838)])
def test_trace_lists_what_each_rule_emitted(capsys, tmp_path, fmt, width, emitted):
    # Counter gate: every node lists only its own rule's constraints, so the
    # trace lists each emitted constraint once and grows with the rule.
    path = tmp_path / "wide.rules"
    path.write_text(support.wide_rule(width))
    assert cli.run(["infer", "--trace", "--format", fmt, str(path)]) == 0
    assert listed_constraints(capsys.readouterr().out, fmt) == emitted


def judgment_set(node: dict) -> list[tuple[str, str, str]]:
    """A JSON judgment's full constraint set: its premises' sets in order,
    then its own constraints, each constraint at its first occurrence."""
    found: dict[tuple[str, str, str], None] = {}
    for premise in node["premises"]:
        found.update(dict.fromkeys(judgment_set(premise)))
    found.update(dict.fromkeys((c["kind"], c["lhs"], c["rhs"]) for c in node["conclusion"]["constraints"]))
    return list(found)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
INFERRED_FILES = sorted(FIXTURES.glob("*.rules")) + sorted((FIXTURES / "corpus").glob("*.rules"))


@pytest.mark.parametrize("path", INFERRED_FILES, ids=[p.name for p in INFERRED_FILES])
def test_json_trace_rebuilds_the_constraint_set(capsys, path):
    # The JSON trace loses nothing: the root's set, rebuilt from what each
    # node emitted, is the rule's constraint set, in order.
    cli.run(["infer", "--trace", "--format", "json", str(path)])
    rules = json.loads(capsys.readouterr().out)["rules"]
    assert rules and all("derivation" in rule for rule in rules)
    for rule in rules:
        assert judgment_set(rule["derivation"]) == [
            (c["kind"], c["lhs"], c["rhs"]) for c in rule["constraints"]]


def test_check_mode_names_each_open_typing(capsys, tmp_path):
    path = tmp_path / "open.rules"
    path.write_text("sort Z\nvar x : ?\nsvar w* : ?\nrule x << [Z] x -> ()\n")
    assert cli.run(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", f"{path}:2:1: check mode needs a ground typing for x\n"
                                       f"{path}:3:1: check mode needs a ground typing for w*\n")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7fα↦ ')),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.sampled_from('k"\\\nα'), max_size=3), inner, max_size=4),
    max_leaves=30)


@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli.json_text(value) == json.dumps(value, ensure_ascii=False, indent=2)


type_terms = st.integers(1, 12).map(TypeVar) | st.builds(
    lambda name, deco: GroundType(dsort(name, deco)),
    st.text(st.sampled_from('Zb"\\\nα'), min_size=1, max_size=3), st.none() | st.sampled_from(["l", "\""]))
constraints = st.builds(Eq, type_terms, type_terms) | st.builds(Sub, type_terms, type_terms)
reports = st.recursive(
    constraints | st.none() | st.integers() | st.text(st.sampled_from('ab"α')),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["constraints", "witness", "rules", "k\"α"]), inner, max_size=4),
    max_leaves=30)


def plain(value):
    """``value`` with every constraint replaced by its JSON dict."""
    if isinstance(value, Constraint):
        return cli.constraint_json(value)
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


@given(reports)
def test_json_writer_prints_constraints_as_their_dicts(value):
    assert cli.json_text(value) == json.dumps(plain(value), ensure_ascii=False, indent=2)


def test_json_writer_has_no_depth_limit():
    value: list = []
    for _ in range(5000):
        value = [value]
    with pytest.raises(RecursionError):
        json.dumps(value, ensure_ascii=False, indent=2)
    back = loads_deep(cli.json_text(value))
    for _ in range(5000):
        (back,) = back
    assert back == []


def test_too_deep_nesting_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.rules"
    path.write_text(SOURCE.format(pattern=nested(1000), ann="Z"))
    assert cli.run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"{re.escape(str(path))}:7:1: parse error: [^\n]+\n", captured.err)


def test_too_deep_nesting_error_does_not_depend_on_the_callers_stack():
    source = SOURCE.format(pattern=nested(1000), ann="Z")

    def parse_error(depth):
        if depth:
            return parse_error(depth - 1)
        with pytest.raises(surface.ParseError) as err:
            surface.parse(source)
        return str(err.value)

    assert parse_error(0) == parse_error(40) == "7:1: term nests too deeply to parse"


@pytest.mark.parametrize("command, next_rule", [
    ("check", "rule 2: well-typed"),
    ("infer", "rule 2: Γ = {t : Z^L}"),
    ("solve", "rule 2: solved σ = {"),
])
def test_rule_error_reports_once_and_later_rules_run(capsys, tmp_path, command, next_rule):
    # A check rejection and an inference error give the same entry and line.
    ann = "Z" if command == "check" else "?"
    path = tmp_path / "arity.rules"
    path.write_text(SOURCE.format(pattern="s(c(),c())", ann=ann))
    error = {"kind": "ArityMismatch", "path": "cond.pattern",
             "detail": "s expects 1 arguments, got 2"}

    assert cli.run([command, str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{path}:7:1: rule 1: error ArityMismatch at cond.pattern: "
                        "s expects 1 arguments, got 2")
    assert lines[1].startswith(next_rule)

    assert cli.run([command, "--format", "json", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == 1
    assert report["rules"][0] == {"index": 1, "outcome": "error", "error": error}
    assert report["rules"][1]["index"] == 2 and "error" not in report["rules"][1]


def test_usage_error_leaves_the_next_run_intact(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exit_info:
        cli.run(["bogus"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert cli.run(["check", "--trace", str(fixtures_dir / "example2.rules")]) == 0
    golden = (fixtures_dir / "golden" / "fig3_check.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_validate_reports_ok_or_the_violations(capsys, tmp_path, example2_path):
    assert cli.run(["validate", str(example2_path)]) == 0
    assert capsys.readouterr().out == "ok\n"

    path = tmp_path / "cycle.rules"
    path.write_text("sort A <: B\nsort B <: A\n")
    assert cli.run(["validate", "--format", "json", str(path)]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "command": "validate", "ok": False,
        "violations": [{"kind": "subsort-cycle", "detail": "subsort cycle through A <: B <: A"}]}


def test_long_subsort_chain_validates(capsys, tmp_path):
    # The cycle search walks the chain in a loop, not one frame per sort.
    path = tmp_path / "chain.rules"
    path.write_text(support.chain(3000, closed=False))
    assert cli.run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"

    # The bottom sort's constant at the top sort: the order is walked from
    # end to end.
    path.write_text(support.chain(3000) + "op c : -> S0\nvar x : S2999\nrule c() << [S2999] x -> ()\n")
    assert cli.run(["check", str(path)]) == 0
    assert capsys.readouterr().out == "rule 1: well-typed\n"
    assert cli.run(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "rule 1: solved σ = {α1 ↦ S0^c, α2 ↦ S2999^?}\n"

    path.write_text(support.chain(3000, closed=True))
    assert cli.run(["validate", "--format", "json", str(path)]) == 3
    violations = json.loads(capsys.readouterr().out)["violations"]
    names = " <: ".join(f"S{i}" for i in range(3000))
    assert violations == [{"kind": "subsort-cycle", "detail": f"subsort cycle through {names} <: S0"}]


@pytest.mark.parametrize("source, code, outcome, verdict", [
    ("example4.rules", 0,
     "solved σ = {α1 ↦ Z^l, α2 ↦ Z^?, α3 ↦ Z^l, α4 ↦ Z^l, α5 ↦ Z^l, α6 ↦ Z^?, "
     "α7 ↦ Z^l, α8 ↦ N^one, α9 ↦ Z^?}",
     "oracle agrees"),
    ("corpus/seed_017.rules", 1, "failed by detection rule (4) on S2^f2 <:_s S3^?",
     "oracle agrees"),
    ("stuck.rules", 4, "stuck with residual {α1 <:_s α7, α1 <:_s S0^?, S0^L1 <:_s α7}",
     "oracle: set is satisfiable (outcome stuck)"),
])
def test_solve_oracle_reports_its_verdict(capsys, fixtures_dir, source, code, outcome, verdict):
    assert cli.run(["solve", "--oracle", str(fixtures_dir / source)]) == code
    assert capsys.readouterr().out.splitlines() == [f"rule 1: {outcome}", f"rule 1: {verdict}"]


def test_cli_imports_neither_dataclasses_nor_the_oracle():
    # In a fresh interpreter without site: pytest has imported dataclasses
    # and inspect into this one.
    probe = ("import sys, ruletypes.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ruletypes.oracle'} & set(sys.modules)))")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_solve_oracle_reports_an_exceeded_budget(capsys, fixtures_dir):
    argv = ["solve", "--oracle", "--max-enum", "1", str(fixtures_dir / "example4.rules")]
    assert cli.run(argv) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "rule 1: oracle: enumeration exceeded 1 candidates"
    assert cli.run(argv + ["--format", "json"]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["rules"][0]["result"] == "solved"
    assert report["rules"][0]["oracle"] == "budget-exceeded" and report["exit"] == 5


@pytest.mark.parametrize("argv", [
    ["validate", "--trace"],
    ["check", "--max-enum", "1"],
    ["infer", "--max-enum", "1"],
    ["validate", "--max-enum", "1"],
])
def test_options_exist_only_where_they_are_read(capsys, example2_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.run(argv + [str(example2_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
