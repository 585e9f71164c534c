"""The command-line contract: byte-for-byte goldens for the running example,
and per-rule diagnostics instead of a traceback on very long lists."""

import json

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


LONG_LIST = """\
sort Z
sort N <: Z
op c : -> N
vop L : Z* -> Z
var t : Z^L
rule L({elements}) << [{ann}] t -> (t)
rule L(c()) << [{ann}] t -> (t)
"""


@pytest.mark.parametrize("command, next_rule", [
    ("check", "rule 2: well-typed"),
    ("infer", "rule 2: Γ = {t : Z^L}"),
    ("solve", "rule 2: solved σ = {"),
])
def test_too_long_list_is_a_rule_error(capsys, tmp_path, command, next_rule):
    ann = "Z^L" if command == "check" else "?"
    path = tmp_path / "long.rules"
    path.write_text(LONG_LIST.format(elements=",".join(["c()"] * 1500), ann=ann))

    assert cli.run([command, str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (f"{path}:6:1: rule 1: error TooDeep at rule: "
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
