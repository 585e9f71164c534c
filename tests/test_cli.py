"""The command-line contract: byte-for-byte goldens for the running example
and the list rules, verdicts on very wide lists, and diagnostics instead of a
traceback on very deep nesting."""

import json
import re

import pytest

from ruletypes import cli


@pytest.mark.parametrize("argv, source, golden", [
    (["check", "--trace"], "example2.rules", "fig3_check.txt"),
    (["check", "--trace", "--format", "json"], "example2.rules", "example2_check.json"),
    (["solve"], "example4.rules", "example4_solve.txt"),
    (["solve", "--trace", "--format", "json"], "example4.rules", "example4_solve_trace.json"),
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


def test_too_deep_nesting_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.rules"
    path.write_text(SOURCE.format(pattern=nested(1000), ann="Z"))
    assert cli.run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"{re.escape(str(path))}:7:\d+: parse error: [^\n]+\n", captured.err)
