"""The command-line contract: byte-for-byte goldens for the running example
and the list rules, one exit code per outcome, verdicts on very wide lists,
and diagnostics instead of a traceback on very deep nesting or a closed
pipe."""

import gc
import itertools
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import support
from ruletypes import cli, solver, surface
from ruletypes.context import Context
from ruletypes.core import RULE_LABELS, Constraint, ConstraintSet, Derivation, Eq, Sub, Substitution, TypeVar, dsort


GOLDEN_RUNS = [
    (["check", "--trace"], "example2.rules", "fig3_check.txt"),
    (["check", "--trace", "--format", "json"], "example2.rules", "example2_check.json"),
    (["solve"], "example4.rules", "example4_solve.txt"),
    (["solve", "--trace", "--format", "json"], "example4.rules", "example4_solve_trace.json"),
    (["solve", "--trace"], "example4.rules", "example4_solve_trace.txt"),
    # rule (12) produces a constraint: the `=> …` part of a trace step
    (["solve", "--trace"], "produce.rules", "produce_solve_trace.txt"),
    (["solve", "--trace", "--format", "json"], "produce.rules", "produce_solve_trace.json"),
]


@pytest.mark.parametrize("argv, source, golden", GOLDEN_RUNS)
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


def test_cli_sweep_matches_the_record(capsys, fixtures_dir):
    # Every run of scripts/cli_sweep.py (exit code and digests of stdout and
    # stderr), so a change to any CLI output shows in the record's diff.
    runpy.run_path(str(fixtures_dir.parent.parent / "scripts" / "cli_sweep.py"), run_name="__main__")
    assert capsys.readouterr().out == (fixtures_dir / "golden" / "cli_sweep.txt").read_text("utf-8")


def test_startup_timing_refuses_a_command_that_runs_no_rule(fixtures_dir):
    # A file that cannot be read exits 2 before any rule runs: nothing worth timing.
    root = fixtures_dir.parent.parent
    done = subprocess.run([sys.executable, "scripts/startup.py", ".", "--runs", "2",
                           "--args", "check no/such/file.rules"], cwd=root, capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.splitlines()[-1] == f"  {root.resolve()}: exit 2: no/such/file.rules: No such file or directory"


# Files that name a ground type outside the universe (each declared sort at
# ?, and each operator's own codomain): ill-formed signatures.  At N^l, y
# lies below both Z^l and N^?, so the decorated order is no longer a forest.
OUTSIDE_UNIVERSE = {
    "baseline.rules": "sort Z\nsort N <: Z\nvop l : Z* -> Z\nop one : -> N\nvar y : N^l\n"
                      "rule y << [?] w /\\ l(x*) << [?] w /\\ w << [Z^l] v -> ()\n",
    "annotation.rules": "sort Z\nsort N <: Z\nvop l : Z* -> Z\nop one : -> N\nvar y : N\n"
                        "rule y << [Q^zz] l(one()) -> ()\n",
}
OUTSIDE_UNIVERSE["sibling.rules"] = OUTSIDE_UNIVERSE["baseline.rules"].replace(
    "var y", "op s : N -> N\nvar y") + "rule w << [?] v /\\ s(w) << [?] u /\\ w << [Z^l] t -> ()\n"
CORE_COMMANDS = ("validate", "check", "infer", "solve")


@pytest.mark.parametrize("argv, code", [
    (["solve", "{fixtures}/example4.rules"], 0),
    (["solve", "{fixtures}/corpus/seed_017.rules"], 1),     # failed(4)
    (["solve", "{tmp}/missing.rules"], 2),
    (["check", "{tmp}/garbage.rules"], 2),
    (["check", "{tmp}/latin1.rules"], 2),                   # not UTF-8
    (["check", "{tmp}/cycle.rules"], 3),                    # ill-formed signature
    (["check", "{fixtures}/example4.rules"], 3),            # inference form
    (["solve", "{fixtures}/stuck.rules"], 4),
    (["solve", "{fixtures}/example4.rules", "--oracle", "--max-enum", "1"], 5),
    (["solve", "{fixtures}/example4.rules", "--oracle", "--max-enum", "-5"], 2),
    (["solve", "{fixtures}/example4.rules", "--seed", "0"], 2),  # no such option: the CLI reads files only
    *[([command, f"{{tmp}}/{name}"], 3) for name in OUTSIDE_UNIVERSE for command in CORE_COMMANDS],
], ids=["solved", "failed", "missing-file", "parse-error", "not-utf8", "ill-formed",
        "mode-mismatch", "stuck", "enumeration-budget", "negative-budget", "file-and-seed",
        *[f"outside-universe-{name[:-6]}-{command}" for name in OUTSIDE_UNIVERSE for command in CORE_COMMANDS]])
def test_exit_codes(capsys, tmp_path, fixtures_dir, argv, code):
    for name, source in OUTSIDE_UNIVERSE.items():
        (tmp_path / name).write_text(source)
    (tmp_path / "garbage.rules").write_text("rule (\n")
    (tmp_path / "latin1.rules").write_bytes(b"sort Z\n\xff\n")
    (tmp_path / "cycle.rules").write_text("sort A <: B\nsort B <: A\n")
    argv = [arg.format(fixtures=fixtures_dir, tmp=tmp_path) for arg in argv]
    try:
        got = cli.run(argv)
    except SystemExit as exc:  # a usage error exits from argparse
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if "--seed" in argv:
        assert "error: unrecognized arguments: --seed 0" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, fmt):
    path = tmp_path / "latin1.rules"
    path.write_bytes(b"sort Z\n\xff\n")
    assert cli.run(["check", "--format", fmt, str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: not UTF-8 text\n")


@pytest.mark.parametrize("name", ["example2.rules", "example4.rules", "malformed.rules"])
def test_line_breaks_leave_the_output_unchanged(capsys, monkeypatch, tmp_path, fixtures_dir, name):
    # The file is read as bytes and parse breaks its lines, so CRLF and lone
    # CR copies print what the LF original prints, positions included.
    text = ("sort Z\nvar x : Z\n\nrule x << [Z] x -> (x $)\n" if name == "malformed.rules"
            else (fixtures_dir / name).read_text("utf-8"))
    outputs = {}
    for folder, newline in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        (tmp_path / folder).mkdir()
        (tmp_path / folder / name).write_bytes(text.replace("\n", newline).encode())
        monkeypatch.chdir(tmp_path / folder)
        outputs[folder] = [(cli.run([command, name, "--format", fmt]), *capsys.readouterr())
                           for command in ("check", "infer", "solve", "validate") for fmt in ("text", "json")]
    assert outputs["crlf"] == outputs["lf"] and outputs["cr"] == outputs["lf"]
    if name == "malformed.rules":
        assert outputs["lf"][0] == (2, "", "malformed.rules:4:23: parse error: unexpected character '$'\n")


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


@pytest.mark.parametrize("command, verdict, code, next_rule", [
    ("check", ["rule 1: well-typed"], 0, "rule 2: well-typed"),
    ("infer", ["rule 1: Γ = {t : Z^L}", "rule 1: C = {"], 0, "rule 2: Γ = {t : Z^L}"),
    # Inference equates a match's subject with its annotation (ROADMAP Direction 3)
    ("solve", ["rule 1: failed by detection rule (4) on N^s <:_s Z^L"], 1, "rule 2: solved σ = {"),
], ids=["check", "infer", "solve"])
def test_deep_or_wide_rule_gets_a_verdict(capsys, tmp_path, command, verdict, code, next_rule):
    # Term nesting is walked at one stack frame per level, so a rule nested
    # 900 deep gets a verdict, and the rule after it runs too; its terms
    # print without recursion, so it gets one with --trace as well.  List
    # spines are walked in a loop, so a wide list gets one.
    ann = "Z" if command == "check" else "?"
    path = tmp_path / "deep.rules"
    path.write_text(SOURCE.format(pattern=nested(900), ann=ann))

    assert cli.run([command, str(path)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert [line[:len(start)] for line, start in zip(lines, verdict)] == verdict
    assert lines[len(verdict)].startswith(next_rule)

    assert cli.run([command, "--trace", str(path)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert all(any(line.startswith(start) for line in lines) for start in verdict)
    assert any(line.startswith(next_rule) for line in lines) and not any(" error " in line for line in lines)

    for trace in ([], ["--trace"]):
        assert cli.run([command, "--format", "json", *trace, str(path)]) == code
        report = loads_deep(capsys.readouterr().out)
        assert report["exit"] == code
        assert [rule["index"] for rule in report["rules"]] == [1, 2]
        assert not any("error" in rule for rule in report["rules"])
        assert report["rules"][0].get("fail_rule", 4) == 4
        assert ("derivation" in report["rules"][0]) == bool(trace)

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
def test_too_deep_to_run_is_a_rule_error(capsys, tmp_path, command, next_rule):
    # Checking and inference recurse once per nesting level, as the parser
    # does, but from more frames deep.  So under the lowest recursion limit
    # at which the file parses, rule 1 runs out of stack: it gives only its
    # error, in either format, and rule 2 still runs.
    ann = "Z" if command == "check" else "?"
    path = tmp_path / "deep.rules"
    path.write_text(SOURCE.format(pattern=nested(300), ann=ann))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    try:
        for headroom in itertools.count(50):
            sys.setrecursionlimit(depth + headroom)
            text = cli.run([command, str(path)]), capsys.readouterr()
            if text[0] != 2:  # else the limit is below what the parser needs
                break
        as_json = cli.run([command, "--format", "json", str(path)]), capsys.readouterr()
    finally:
        sys.setrecursionlimit(limit)

    code, captured = text
    lines = captured.out.splitlines()
    assert code == 1 and captured.err == ""
    assert lines[0] == f"{path}:7:1: rule 1: error TooDeep at rule: the rule nests too deeply to process"
    assert lines[1].startswith(next_rule)
    assert not any("rule 1:" in line for line in lines[1:])

    code, captured = as_json
    report = json.loads(captured.out)
    assert code == report["exit"] == 1 and captured.err == ""
    assert report["rules"][0] == {
        "index": 1, "outcome": "error",
        "error": {"kind": "TooDeep", "path": "rule",
                  "detail": "the rule nests too deeply to process"}}
    assert report["rules"][1]["index"] == 2 and "error" not in report["rules"][1]

    assert cli.run([command, str(path)]) == 0
    assert "TooDeep" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "infer"])
def test_text_trace_of_a_wide_list(capsys, tmp_path, command):
    # Text mode renders the derivation in a loop.
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
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.sampled_from('k"\\\nα'), max_size=3), inner, max_size=4),
    max_leaves=30)


@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli.json_text(value) == json.dumps(value, ensure_ascii=False, indent=2)


type_terms = st.integers(1, 12).map(TypeVar) | st.builds(
    dsort,
    st.text(st.sampled_from('Zb"\\\nα'), min_size=1, max_size=3), st.none() | st.sampled_from(["l", "\""]))
constraints = st.builds(Eq, type_terms, type_terms) | st.builds(Sub, type_terms, type_terms)
reports = st.recursive(
    constraints | st.none() | st.integers() | st.text(st.sampled_from('ab"α')),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.sampled_from(["constraints", "witness", "rules", "k\"α"]), inner, max_size=4),
    max_leaves=30)


def plain(value):
    """``value`` as ``json.dumps`` takes it, converted by a recursive walk:
    every constraint replaced by its JSON dict, every substitution by its
    list of ``{"var", "type"}`` dicts, every typing context by its list of
    ``{"name", "type"}`` dicts, every derivation and solver step by its dict,
    and every tuple and constraint set by a list."""
    if isinstance(value, Constraint):
        return cli.constraint_json(value)
    if isinstance(value, Substitution):
        return [{"var": f"α{v}", "type": str(t)} for v, t in value.items()]
    if isinstance(value, Context):
        return [{"name": n, "type": str(t)} for n, t in value.var_types.items()] + [
            {"name": f"{n}*", "type": str(t)} for n, t in value.star_types.items()]
    if isinstance(value, Derivation):
        conclusion = {"subject": str(value.subject), "type": str(value.type)}
        if value.constraints is not None:
            conclusion["constraints"] = plain(value.constraints)
        return {"rule": value.rule, "conclusion": conclusion, "premises": plain(value.premises)}
    if isinstance(value, solver.TraceStep):
        return {"rule": value.rule, "consumed": plain(value.consumed), "produced": plain(value.produced),
                "bound": [{"var": f"α{v}", "type": str(t)} for v, t in value.bound]}
    if isinstance(value, (list, tuple, ConstraintSet)):
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


def traced_report(path: pathlib.Path, command: str) -> dict:
    """The JSON entry of the first rule of ``command --trace`` on ``path``."""
    source = surface.parse(path.read_text("utf-8"))
    _, report = cli.rule_report(surface.build_context(source), source.rules[0].rule, command, trace=True)
    return {"index": 1, **report}


ODD = dsort('Z"\\\n', 'l"\\\n')  # a sort and a decoration that JSON must escape
SIDES = [Eq(TypeVar(1), dsort("Z", "l")), Sub(dsort("N"), TypeVar(2)), Sub(ODD, TypeVar(3)), Eq(TypeVar(4), ODD)]
SIGMA = Substitution({3: TypeVar(1), 2: ODD, 12: dsort("Z", "l"), 7: dsort("N")})  # variable and ground images
GAMMA = Context(var_types={'x"\\\n': ODD, "y": TypeVar(2)}, star_types={"w": dsort("Z", "l"), "α": TypeVar(3)})


@pytest.mark.parametrize("value", [
    [],
    SIDES,
    {"rules": [{"constraints": SIDES[::-1]}]},
    {"constraints": [SIDES[0]], "lone": SIDES[2], "empty": []},
    [SIDES[0], {"k": SIDES[1], "l": [SIDES[2], "text"]}, "s\"\n", SIDES[3], [SIDES[1]], None],
    [ODD.sort.name, SIDES[2], 3],
    traced_report(FIXTURES / "example4.rules", "infer"),
    traced_report(FIXTURES / "lists.rules", "infer"),
    Substitution(),
    SIGMA,
    {"rules": [{"substitution": SIGMA, "empty": Substitution()}]},
    [SIGMA, [SIDES[0]], SIDES[1]],
    traced_report(FIXTURES / "example4.rules", "solve"),
    traced_report(FIXTURES / "produce.rules", "solve"),
    Context(),
    GAMMA,
    {"rules": [{"context": GAMMA, "empty": Context(), "constraints": SIDES}]},
], ids=["empty", "depth-1", "depth-3", "lone", "mixed", "escapes", "traced-example4", "traced-lists",
        "empty-subst", "subst", "subst-depth-3", "subst-beside-constraints", "solved-example4", "solved-produce",
        "empty-context", "context", "context-depth-3"])
def test_json_writer_joins_constraint_lists(value):
    # Lists of constraints only, substitutions and typing contexts are
    # written in one join; the rest take the generic walk, and all print as
    # json.dumps prints the plain dicts.
    assert cli.json_text(value) == json.dumps(plain(value), ensure_ascii=False, indent=2)


def test_traced_output_does_not_follow_the_hash_seed(fixtures_dir):
    # Interned values hash by address and strings by the hash seed, so no
    # output may follow a set's or a dict's hash order: two fresh processes
    # under different seeds print the same bytes.
    probe = ("import sys\nfrom ruletypes import cli\n"
             "for name in sys.argv[1:]:\n"
             "    for argv in (['solve', '--trace', '--format', 'json'], ['infer', '--trace']):\n"
             "        print(argv, name, cli.run(argv + [name]), flush=True)\n")
    names = ["example4.rules", "produce.rules", "lists.rules", "stuck.rules"]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    runs = [subprocess.run([sys.executable, "-c", probe, *names], cwd=fixtures_dir, capture_output=True,
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}, check=True)
            for seed in ("0", "1")]
    assert runs[0].stdout.count(b"--trace") == 2 * len(names)
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, name", [
    ("check", "example2.rules"),  # well-typed
    ("check", "lists.rules"),  # rejected
    ("infer", "example2.rules"),
    ("solve", "example2.rules"),  # failed
    ("solve", "example4.rules"),  # solved
    ("solve", "produce.rules"),  # solved
    ("solve", "stuck.rules"),  # stuck
    ("solve --oracle", "example2.rules"),  # the enumeration answers
    ("solve --oracle --max-enum 5", "example4.rules"),  # its budget runs out
])
def test_cli_op_leaves_no_cyclic_garbage(capsys, fixtures_dir, command, name, fmt):
    # An object in a reference cycle waits for the cyclic collector, and keeps
    # everything it reaches alive until then.
    argv = [*command.split(), str(fixtures_dir / name), "--format", fmt]
    cli.run(argv)  # first-use caches are kept, not garbage
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli.run(argv)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "infer"])
def test_deep_rejection_leaves_no_cyclic_garbage(capsys, tmp_path, command):
    # The error's path is prefixed level by level as it unwinds, and a star
    # argument is diagnosed again over an error inside an earlier argument;
    # neither may leave an error, a traceback or a frame in a cycle.
    path = tmp_path / "deep.rules"
    patterns = ["s(" * 300 + "s(c(),c())" + ")" * 300, "L(c(),s(s(s(c(),c()))))", "s(s(L(c(),f(q,x*))))"]
    source = SOURCE.format(pattern="t", ann="Z")
    path.write_text(source.replace("op s :", "op f : Z Z -> N\nop s :").replace("var t :", "svar x* : Z^L\nvar t :")
                    + "".join(f"rule {p} << [Z] t -> (t)\n" for p in patterns))
    argv = [command, str(path), "--format", "json"]
    assert cli.run(argv) == 1
    errors = [rule["error"] for rule in json.loads(capsys.readouterr().out)["rules"][2:]]
    assert [(e["kind"], e["path"]) for e in errors] == [
        ("ArityMismatch", "cond.pattern" + ".arg[0]" * 300),
        ("ArityMismatch", "cond.pattern.arg[1].arg[0].arg[0]"),
        ("StarOutsideList", "cond.pattern.arg[0].arg[0].arg[1].arg[1]")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        cli.run(argv)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_failed_witness_and_trace_steps_print_as_constraint_objects(capsys, fixtures_dir):
    # A constraint is a pair, so the JSON writer must take it for a
    # constraint before it takes it for a tuple.
    assert cli.run(["solve", str(fixtures_dir / "example2.rules"), "--format", "json", "--trace"]) == 1
    (rule,) = json.loads(capsys.readouterr().out)["rules"]
    assert rule["result"] == "failed" and rule["witness"] and rule["steps"]
    for c in rule["witness"] + [c for step in rule["steps"] for c in step["consumed"] + step["produced"]]:
        assert set(c) == {"kind", "lhs", "rhs"} and c["kind"] in ("eq", "sub")
    witness = (Eq(TypeVar(1), dsort("Z")), Sub(dsort("N"), TypeVar(2)))
    assert json.loads(cli.json_text(witness)) == [cli.constraint_json(c) for c in witness]


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


OFF_CODOMAIN = {"kind": "unknown-type", "detail": "variable y typed at N^l, which is neither a "
                                                  "declared sort at ? nor an operator's codomain"}


@pytest.mark.parametrize("name, violation", [
    ("baseline.rules", OFF_CODOMAIN),
    ("sibling.rules", OFF_CODOMAIN),
    ("annotation.rules", {"kind": "unknown-sort", "detail": "match 1 of rule 1 annotated at undeclared sort Q"}),
])
@pytest.mark.parametrize("command", CORE_COMMANDS)
def test_types_outside_the_universe_are_named_violations(capsys, monkeypatch, tmp_path, name, violation,
                                                         command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(OUTSIDE_UNIVERSE[name])
    assert cli.run([command, "--format", "json", name]) == 3
    out, err = capsys.readouterr()
    if command == "validate":
        assert (json.loads(out)["violations"], err) == ([violation], "")
    else:
        assert (out, err) == ("", f"{name}: {violation['kind']}: {violation['detail']}\n")


def test_oracle_agrees_once_typings_lie_in_the_universe(capsys, tmp_path):
    # Typed at N^l, y made the solver, which assumes a forest, fail sets that
    # the enumeration satisfied; such a file is now refused before either
    # runs.  Typed at N^?, in the universe, both agree.
    for name in ("baseline.rules", "sibling.rules"):
        path = tmp_path / name
        path.write_text(OUTSIDE_UNIVERSE[name])
        code = cli.run(["solve", "--oracle", str(path)])
        out, err = capsys.readouterr()
        assert "DISAGREES" not in out + err and code == 3
        path.write_text(OUTSIDE_UNIVERSE[name].replace("var y : N^l", "var y : N"))
        assert cli.run(["solve", "--oracle", str(path)]) == 1
        verdicts = [line for line in capsys.readouterr().out.splitlines() if "oracle" in line]
        assert verdicts == [f"rule {i}: oracle agrees" for i in range(1, len(verdicts) + 1)] and verdicts


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


def test_cli_imports_neither_dataclasses_nor_the_oracle(fixtures_dir):
    # In a fresh interpreter without site: pytest has imported dataclasses
    # and inspect into this one.  Solving a file, too, does without the
    # oracle, which only --oracle imports.
    unwanted = "{'dataclasses', 'inspect', 'ruletypes.oracle'}"
    probe = ("import contextlib, io, sys\nfrom ruletypes import cli\n"
             f"print(sorted({unwanted} & set(sys.modules)))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.run(['solve', {str(fixtures_dir / 'example4.rules')!r}, '--format', 'json'])\n"
             "print(code, 'ruletypes.oracle' in sys.modules)\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n0 False\n"


def test_common_run_leaves_argparse_unimported(example2_path):
    # A plain op reads its argv without argparse; a usage error still comes
    # from argparse, imported then.
    probe = ("import contextlib, io, sys\nfrom ruletypes import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.run(['check', {str(example2_path)!r}, '--format', 'json'])\n"
             "print(code, 'argparse' in sys.modules)\n"
             "try:\n    cli.run(['bogus'])\nexcept SystemExit as exc:\n"
             "    print(exc.code, 'argparse' in sys.modules)\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0 False\n2 True\n"
    assert done.stderr.startswith("usage: ruletypes") and "invalid choice" in done.stderr


# Words for argvs of one to five words: the commands, operands, each option,
# option values, and forms that only argparse reads.
ARGV_WORDS = ["check", "infer", "solve", "validate", "f.rules", "", "-x", "--format", "json", "text",
              "xml", "--trace", "--oracle", "--seed", "3", "--max-enum", "--", "--format=json", "--form"]


def test_common_argv_forms_parse_as_argparse_does():
    accepted = [argv for n in range(1, 6) for argv in map(list, itertools.product(ARGV_WORDS, repeat=n))
                if cli._common_args(argv) is not None]
    # Ten words are operands; check and infer take them in 19 arrangements
    # with their options, solve in 39 and validate in 5.
    assert len(accepted) == 10 * (19 + 19 + 39 + 5)
    for argv in accepted:
        assert vars(cli._common_args(argv)) == vars(cli._arg_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["check", "op.rules", "--format", "json"],  # bench/worker.py, for check, infer and solve
    ["infer", "op.rules", "--format", "json"],
    ["solve", "op.rules", "--format", "json"],
    ["check", "tests/fixtures/example2.rules", "--format", "json"],  # scripts/startup.py
    *(argv + [source] for argv, source, _ in GOLDEN_RUNS),
    ["check", "--trace", "lists.rules"],
    ["infer", "--trace", "lists.rules"],
])
def test_benchmark_and_golden_argvs_are_read_directly(argv):
    assert cli._common_args(argv) is not None


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
