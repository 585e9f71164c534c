"""Command-line driver: load a signature + rules file, run checking,
inference, constraint solving, or context validation, and print derivations,
constraint sets, substitutions, and diagnostics as text or JSON.

Exit codes: 0 well-typed/solved, 1 type error/failed, 2 parse error,
3 ill-formed signature or mode mismatch, 4 stuck, 5 enumeration budget
exceeded.  A file with several rules exits with the worst per-rule code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring
from typing import Any, Iterator

from . import checker, solver
from .context import Context, ErrKind, RuleError, validate
from .core import Cond, Constraint, ConstraintSet, Derivation, Rule, Sub, Substitution, TypeTerm
from .infer import FreshSupply, infer_rule, init_context
from .surface import ParseError, SvarDecl, build_context, parse, render_instance, resolve_rule


# ---------------------------------------------------------------------------
# One rule's report

def rule_report(ctx: Context, rule: Rule, command: str, oracle_budget: int | None = None,
                trace: bool = False) -> tuple[int, dict[str, Any]]:
    """Check, infer or solve one rule; given a budget, cross-check the solver
    by enumeration.  Returns the exit code and the report: core values under
    the rule's JSON keys, in order; the derivation and the solver's steps
    only with ``trace``.  Raises RuleError if there is no verdict."""
    if command == "check":
        verdict = checker.check_rule(ctx, rule)
        if isinstance(verdict, checker.CheckErr):
            raise RuleError(verdict.kind, verdict.path, verdict.detail)
        report: dict[str, Any] = {"outcome": "well-typed"}
    else:  # infer / solve share the generation step
        fresh = FreshSupply()
        gamma = init_context(ctx, rule, fresh)
        verdict = infer_rule(gamma, rule, fresh)
        report = dict(context=gamma, constraints=verdict.constraints)
    if trace:  # the one read of the derivation, which builds the tree
        report["derivation"] = verdict.derivation
    if command != "solve":
        return 0, report

    outcome = solver.solve(gamma, verdict.constraints)
    if isinstance(outcome, solver.Solved):
        report.update(result="solved", substitution=outcome.subst)
    elif isinstance(outcome, solver.Failed):
        report.update(result="failed", fail_rule=outcome.fail_rule, witness=outcome.witness)
    else:
        report.update(result="stuck", residual=outcome.residual)
    if trace:
        report["steps"] = outcome.trace
    code = {"solved": 0, "failed": 1, "stuck": 4}[report["result"]]

    if oracle_budget is not None:
        from . import oracle  # only here and for --seed: a plain run does without it
        try:
            found = oracle.enumerate_solutions(
                gamma, verdict.constraints, budget=oracle_budget, limit=1)
        except oracle.BudgetExceeded as exc:
            report["oracle"] = exc
            return 5, report
        report["oracle"] = "satisfiable" if found else "unsatisfiable"
        if code != 4 and (code == 0) != bool(found):
            code = 1  # the oracle disagrees with the solver
    return code, report


def _typings(gamma: Context) -> list[tuple[str, TypeTerm]]:
    return list(gamma.var_types.items()) + [(f"{n}*", t) for n, t in gamma.star_types.items()]


# ---------------------------------------------------------------------------
# Text rendering

def render_derivation(d: Derivation) -> str:
    """One judgment per line, two spaces of indent per premise depth, the
    rule label right-aligned after the widest judgment; an inference
    judgment also lists the constraints its own rule emitted."""
    rows: list[tuple[str, str]] = []
    stack = [(0, d)]
    while stack:
        depth, node = stack.pop()
        subject = f"({node.subject})" if isinstance(node.subject, (Cond, Rule)) else node.subject
        body = f"{'  ' * depth}{subject} : {node.type}"
        if node.constraints is not None:
            body += f" • {node.constraints}"
        rows.append((body, node.rule))
        stack.extend((depth + 1, p) for p in reversed(node.premises))
    width = max(len(body) for body, _ in rows)
    return "\n".join(f"{body:<{width}}  [{rule}]" for body, rule in rows)


def render_trace(steps: tuple[solver.TraceStep, ...]) -> str:
    lines = []
    for step in steps:
        parts = [f"({step.rule}) " + ", ".join(str(c) for c in step.consumed)]
        if step.produced:
            parts.append("=> " + ", ".join(str(c) for c in step.produced))
        parts += (f"bind α{var} ↦ {image}" for var, image in step.bound)
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)


def report_text(report: dict[str, Any], index: int, trace: bool, where: str) -> str:
    """A rule's report as text; the derivation and the solver's steps
    only with ``trace``.  ``where`` (file and position) heads an error."""
    head = f"rule {index}: "
    outcome, result = report.get("outcome"), report.get("result")
    if outcome == "error":
        return f"{where}: {head}error {report['error']}"
    lines = []
    if outcome == "well-typed":
        lines.append(head + "well-typed")
    elif result is None:  # infer
        typings = ", ".join(f"{n} : {t}" for n, t in _typings(report["context"]))
        lines += [f"{head}Γ = {{{typings}}}", f"{head}C = {report['constraints']}"]
    elif trace:
        lines.append(f"{head}C = {report['constraints']}")
    if trace:
        lines.append(render_derivation(report["derivation"]))
    if result == "solved":
        lines.append(f"{head}solved σ = {report['substitution']}")
    elif result == "failed":
        witness = ", ".join(str(c) for c in report["witness"])
        lines.append(f"{head}failed by detection rule ({report['fail_rule']}) on {witness}")
    elif result == "stuck":
        lines.append(f"{head}stuck with residual {report['residual']}")
    if "steps" in report:
        lines.append(render_trace(report["steps"]))

    verdict = report.get("oracle")
    if isinstance(verdict, Exception):  # the oracle's BudgetExceeded
        lines.append(f"{head}oracle: {verdict}")
    elif verdict and result == "stuck":
        lines.append(f"{head}oracle: set is {verdict} (outcome stuck)")
    elif verdict:
        found = verdict == "satisfiable"
        lines.append(f"{head}oracle agrees" if found == (result == "solved") else
                     f"{head}oracle DISAGREES with the solver (solver {result}, "
                     f"enumeration found {'a' if found else 'no'} solution)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON rendering

def constraint_json(c: Constraint) -> dict[str, str]:
    """The JSON object ``json_text`` writes for a constraint, which reports
    pass as it is; for callers that compare parsed output with constraints."""
    return {"kind": "sub" if isinstance(c, Sub) else "eq",
            "lhs": str(c.lhs), "rhs": str(c.rhs)}


def derivation_json(d: Derivation) -> dict[str, Any]:
    """The derivation as nested ``rule``/``conclusion``/``premises`` dicts; an
    inference judgment's conclusion also lists the constraints its own rule
    emitted."""
    root: list[dict[str, Any]] = []
    stack = [(d, root)]  # a node, and its parent's premise list
    while stack:
        node, siblings = stack.pop()
        conclusion: dict[str, Any] = {"subject": str(node.subject), "type": str(node.type)}
        if node.constraints is not None:
            conclusion["constraints"] = list(node.constraints)
        siblings.append({"rule": node.rule, "conclusion": conclusion, "premises": []})
        stack.extend((p, siblings[-1]["premises"]) for p in reversed(node.premises))
    return root[0]


def json_value(value: Any) -> Any:
    """A report value as ``json_text`` takes it: constraint sets, typing
    contexts, derivations, substitutions, solver steps and errors become
    dicts and lists; constraints, strings, ints and containers of them stay."""
    if isinstance(value, ConstraintSet):
        return list(value)
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, Context):
        return [{"name": n, "type": str(t)} for n, t in _typings(value)]
    if isinstance(value, Derivation):
        return derivation_json(value)
    if isinstance(value, Substitution):
        return [{"var": f"α{v}", "type": str(t)} for v, t in value.items()]
    if isinstance(value, solver.TraceStep):
        return {"rule": value.rule, "consumed": list(value.consumed), "produced": list(value.produced),
                "bound": [{"var": f"α{v}", "type": str(t)} for v, t in value.bound]}
    if isinstance(value, RuleError):
        return {"kind": str(value.kind), "path": value.path, "detail": value.detail}
    if isinstance(value, Exception):  # the oracle's BudgetExceeded, the one other error
        return "budget-exceeded"
    return value


def report_json(report: dict[str, Any], index: int, trace: bool, where: str) -> dict[str, Any]:
    """A rule's report as its JSON entry; ``trace`` and ``where`` serve text."""
    return {"index": index, **{key: json_value(value) for key, value in report.items()}}


_CONSTRAINT_JSON = '{{{3}  "kind": "{0}",{3}  "lhs": {1},{3}  "rhs": {2}{3}}}'


def json_text(value: Any) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for a report (dicts
    with string keys, lists, strings, ints, booleans, None, and constraints,
    which print as ``constraint_json`` would), written in one pass with an
    explicit stack, so that any nesting depth renders."""
    out: list[str] = []
    # The open container's (key, item) pairs left, kind and indent; the stack holds its parents'.
    pairs: Iterator[tuple[Any, Any]] = iter([(None, value)])
    is_dict, pad, sep = False, "\n", ""
    stack: list[tuple[Iterator[tuple[Any, Any]], bool, str]] = []
    while True:
        for key, value in pairs:
            out.append(sep + encode_basestring(key) + ": " if is_dict else sep)
            sep = "," + pad
            if isinstance(value, str):
                out.append(encode_basestring(value))
            elif isinstance(value, Constraint):
                out.append(_CONSTRAINT_JSON.format("sub" if isinstance(value, Sub) else "eq",
                                                   encode_basestring(str(value.lhs)),
                                                   encode_basestring(str(value.rhs)), pad))
            elif isinstance(value, (dict, list)):
                stack.append((pairs, is_dict, pad))
                is_dict = isinstance(value, dict)
                pairs = iter(value.items()) if is_dict else enumerate(value)
                out.append("{" if is_dict else "[")
                pad += "  "
                sep = pad
                break
            elif value is None or isinstance(value, bool):
                out.append("null" if value is None else "true" if value else "false")
            else:
                out.append(int.__repr__(value))  # a TypeError for any other type
        else:
            if not stack:
                return "".join(out)
            # An empty container closes on its opening line.
            out.append(("" if sep == pad else stack[-1][2]) + ("}" if is_dict else "]"))
            pairs, is_dict, pad = stack.pop()
            sep = "," + pad


# ---------------------------------------------------------------------------
# Driver

def nonnegative_int(text: str) -> int:
    """An ``int`` argument that may not be negative."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return int(text)


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # Built once per process; parsing leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="ruletypes",
        description="Type-check, infer, and solve rule expressions with "
                    "subtyping and variadic list operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "type-check every rule against its ground typings"),
        ("infer", "generate the constraint set of every rule"),
        ("solve", "generate constraints and run the resolution algorithm"),
        ("validate", "report signature well-formedness violations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", help="input file; omit with --seed")
        if name != "validate":
            p.add_argument("--trace", action="store_true",
                           help="print derivation trees and solver steps")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--seed", type=int, default=None,
                       help="run on generated corpus instance N instead of a file")
        if name == "solve":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check the outcome against brute-force enumeration")
            p.add_argument("--max-enum", type=nonnegative_int, default=1_000_000,
                           help="budget for brute-force enumeration with --oracle")
    return parser


def run(argv: list[str]) -> int:
    args = _arg_parser().parse_args(argv)
    as_json = args.format == "json"
    report: dict[str, Any] = {"command": args.command}
    out: list[str] = []

    if args.file is not None:
        name = args.file
        try:
            with open(args.file, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            problem = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            print(f"{args.file}: {problem}", file=sys.stderr)
            return 2
    elif args.seed is not None:
        name = f"<seed {args.seed}>"
        from .oracle import gen_instance
        ctx, rule = gen_instance(args.seed)
        source = render_instance(ctx, rule)
        if not as_json:
            out.append(source.rstrip("\n"))
    else:
        print("error: provide a file or --seed N", file=sys.stderr)
        return 2

    try:
        sf = parse(source)
    except ParseError as exc:
        print(f"{name}:{exc.pos}: parse error: {exc.message}", file=sys.stderr)
        return 2

    ctx = build_context(sf)
    violations = validate(ctx)

    if args.command == "validate":
        report.update(ok=not violations,
                      violations=[{"kind": v.kind, "detail": v.detail} for v in violations])
        print(json_text(report) if as_json else "\n".join(out + ([str(v) for v in violations] or ["ok"])))
        return 3 if violations else 0

    problems = [f"{name}: {v}" for v in violations]
    if args.command == "check" and not problems:
        problems = [f"{name}:{d.pos}: check mode needs a ground typing for "
                    f"{d.name}{'*' if isinstance(d, SvarDecl) else ''}" for d in sf.fresh_marked]
        problems += [f"{name}:{d.pos}: check mode needs ground match annotations"
                     for d in sf.rules if any(m.at is None for m in d.conds)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 3

    codes = [0]
    report["rules"] = []
    budget = args.max_enum if getattr(args, "oracle", False) else None
    render, rendered = (report_json, report["rules"]) if as_json else (report_text, out)
    for index, decl in enumerate(sf.rules, start=1):
        where = f"{name}:{decl.pos}"
        # Terms are walked recursively; a term too deep for the interpreter's
        # stack, to run or to render, is a per-rule error, not a crash.  So a
        # rule's output is rendered inside the guard and kept only once whole.
        try:
            code, result = rule_report(ctx, resolve_rule(decl, ctx), args.command, budget, args.trace)
            output = render(result, index, args.trace, where)
        except (RuleError, RecursionError) as exc:
            error = exc if isinstance(exc, RuleError) else RuleError(
                ErrKind.TOO_DEEP, "rule", "the rule nests too deeply to process")
            code, output = 1, render({"outcome": "error", "error": error}, index, args.trace, where)
        codes.append(code)
        rendered.append(output)

    report["exit"] = max(codes)
    if as_json or out:
        print(json_text(report) if as_json else "\n".join(out))
    return report["exit"]


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, inside the try
    except BrokenPipeError:
        # The reader went away (``ruletypes ... | head``): point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
