#!/usr/bin/env python3
"""Run the CLI over every committed input and a set of malformed ones, and
print one line per run: the arguments, the exit code and the SHA-256 of
stdout and of stderr.

Two checkouts that print the same lines give byte-identical output on every
run, so a diff of two sweeps shows exactly which runs a change touched:

    PYTHONPATH=src python3 scripts/cli_sweep.py > sweep.txt

The runs are every fixture and corpus file under ``tests/fixtures`` ×
command × text/JSON × with and without ``--trace``; ``--seed`` inputs;
``solve --oracle``, also with too small a budget; usage errors; and the
inline sources below (parse errors, rule errors, deep nesting, a wide list,
and a 36-wide list pattern that solves and one that fails).  Runs are
in-process, one after another, with the working directory at the input's
directory so that file names print the same in any checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import tempfile

from ruletypes import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

SIGNATURE = """\
sort Z
sort N <: Z
op c : -> N
op s : Z -> N
vop L : Z* -> Z
var t : Z^L
var x : Z
"""

INLINE = {
    "bad-char.rules": "sort S $\n",
    "bad-token-order.rules": "sortt A\nrule ( $\n",
    "truncated.rules": "sort Z\nrule x << [ // unfinished\n",
    "crlf.rules": "sort A\r\nsort B\r\nop f : A -> B\r\nsort $\r\n",
    "separators.rules": "sort A\x0csort B vop l : A* -> B\n\tvar x : A^?  junk\n",
    "unknown-decl.rules": "sort Z\n  sortt Y\n",
    "top-star.rules": "sort Z\nrule x* << [Z] x -> ()\n",
    "no-rank-action.rules": SIGNATURE + "rule x << [Z] x -> (g(x))\n",
    "arity.rules": SIGNATURE + "rule s(c(),c()) << [Z] t -> (t)\nrule L(c()) << [Z] t -> (t)\n",
    "nested-300.rules": SIGNATURE + "rule " + "s(" * 300 + "c()" + ")" * 300
                        + " << [Z] t -> (t)\n",
    "nested-700.rules": SIGNATURE + "rule " + "s(" * 700 + "c()" + ")" * 700
                        + " << [Z] t -> (t)\n",
    "nested-1000.rules": SIGNATURE + "rule " + "s(" * 1000 + "c()" + ")" * 1000
                         + " << [Z] t -> (t)\n",
    "wide-100.rules": SIGNATURE + "rule L(" + ",".join(["c()"] * 100) + ") << [Z] t -> (t)\n",
}

# A 36-element list pattern in inference form, which the solver takes some
# hundred steps to solve, and the same with its middle element replaced by
# one that fails: the text of ``wide_rule(36)`` and ``wide_rule(36,
# "g(f(x1,x1))")`` in ``tests/support.py``.
LIST_SIGNATURE = """\
sort Z
sort N <: Z
sort E
op c : -> N
op s : Z -> N
op f : Z Z -> Z
op g : N -> Z
vop L : Z* -> E
vop M : N* -> Z
"""
WIDE_HEAD = ("w0*,L(x1,c()),x2,c(),s(x4),f(x0,s(c())),g(s(y1)),M(c(),m2*),s(f(g(s(x3)),M(s(x3),y3))),"
             "w2*,w0*,L(x1,c()),x2,c(),s(x4),f(x0,s(c())),g(s(y1)),M(c(),m2*),")
WIDE_TAIL = (",w0*,w0*,L(x1,c()),x2,c(),s(x4),f(x0,s(c())),g(s(y1)),M(c(),m2*),s(f(g(s(x3)),M(s(x3),y3))),"
             "w1*,w0*,L(x1,c()),x2,c(),s(x4),f(x0,s(c()))")
for name, middle in (("wide-36", "s(f(g(s(x3)),M(s(x3),y3)))"), ("wide-36-failing", "g(f(x1,x1))")):
    INLINE[f"{name}.rules"] = LIST_SIGNATURE + f"rule L({WIDE_HEAD}{middle}{WIDE_TAIL}) << [?] t -> (t)\n"

COMMANDS = ("check", "infer", "solve", "validate")
USAGE = ([], ["bogus"], ["check"], ["check", "--format", "xml", "example2.rules"],
         ["validate", "--trace", "example2.rules"], ["infer", "--max-enum", "1", "example2.rules"],
         ["solve", "missing.rules"], ["solve", "--oracle", "--max-enum", "-5", "example4.rules"])


def run(argv: list[str], cwd: pathlib.Path) -> str:
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        os.chdir(here)
    digests = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    return f"{' '.join(argv)}\texit {code}\t" + "\t".join(digests)


def variants(source: list[str]) -> list[list[str]]:
    runs = []
    for command in COMMANDS:
        for fmt in ("text", "json"):
            for trace in ((False,) if command == "validate" else (False, True)):
                runs.append([command, *source, "--format", fmt] + (["--trace"] if trace else []))
    return runs


def main() -> None:
    inputs = [(path.parent, path.name) for path in sorted(FIXTURES.glob("*.rules"))]
    inputs += [(path.parent, path.name) for path in sorted((FIXTURES / "corpus").glob("*.rules"))]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        for name, source in INLINE.items():
            (scratch / name).write_text(source, encoding="utf-8", newline="")
        inputs += [(scratch, name) for name in INLINE]
        for cwd, name in inputs:
            for argv in variants([name]):
                print(run(argv, cwd))
        for seed in range(3):
            for argv in variants(["--seed", str(seed)]):
                print(run(argv, FIXTURES))
        for name in ("example4.rules", "corpus/seed_017.rules", "stuck.rules"):
            print(run(["solve", "--oracle", name], FIXTURES))
        for fmt in ("text", "json"):  # the enumeration budget runs out
            print(run(["solve", "--oracle", "--max-enum", "1", "example4.rules", "--format", fmt], FIXTURES))
        for argv in USAGE:
            print(run(argv, FIXTURES))


if __name__ == "__main__":
    main()
