"""Command-line driver: read one signature + rules file, run checking,
inference, constraint solving, or context validation, and print derivations,
constraint sets, substitutions, and diagnostics as text or JSON.

Exit codes: 0 well-typed/solved, 1 type error/failed, 2 parse error,
3 ill-formed signature (a typing or match annotation at a type outside the
ground universe among them) or mode mismatch, 4 stuck, 5 enumeration budget
exceeded.  A file with several rules exits with the worst per-rule code.

The common argument forms are read directly: ``check``, ``infer``, ``solve``
or ``validate``, then one file operand that does not start with ``-`` and
the command's own ``--format text|json``, ``--trace`` and ``--oracle``, each
at most once, in any order.  Every other argv goes to argparse, which is
imported only then and is the one source of usage errors and ``--help``.
"""

from __future__ import annotations

import functools
import os
import sys
from json.encoder import encode_basestring
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterator

from . import checker, solver
from .context import Context, ErrKind, RuleError, validate
from .core import Cond, Constraint, ConstraintSet, Derivation, Eq, Rule, Sub, Substitution, TypeTerm
from .infer import FreshSupply, infer_rule, init_context
from .surface import ParseError, SvarDecl, build_context, parse

if TYPE_CHECKING:
    import argparse


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
        from . import oracle  # only here: a run without --oracle does without it
        try:
            found = oracle.enumerate_solutions(
                gamma, verdict.constraints, budget=oracle_budget, limit=1)
        except oracle.BudgetExceeded as exc:
            report["oracle"] = exc.with_traceback(None)  # its traceback would hold this frame, and so the report
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


def report_text(report: dict[str, Any], index: int, where: str) -> str:
    """A rule's report as text, with the derivation and the solver's steps
    if it holds them.  ``where`` (file and position) heads an error."""
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
    elif "derivation" in report:
        lines.append(f"{head}C = {report['constraints']}")
    if "derivation" in report:
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

_SEQUENCES = (list, tuple, ConstraintSet)  # what json_text writes as a list


def constraint_json(c: Constraint) -> dict[str, str]:
    """The JSON object ``json_text`` writes for a constraint; for callers
    that compare parsed output with constraints."""
    return {"kind": "sub" if isinstance(c, Sub) else "eq",
            "lhs": str(c.lhs), "rhs": str(c.rhs)}


@functools.lru_cache(maxsize=64)  # bounded: a deep trace has a pad per level
def _templates(pad: str) -> dict[type, str]:
    """``%`` templates of JSON objects at indent ``pad``: a constraint's by its
    class, for its sides' ``_json``; a σ binding's under ``Substitution``, for
    the variable's id and the image's ``_json``; a typing's under ``Context``."""
    return {Eq: f'{{{pad}  "kind": "eq",{pad}  "lhs": %s,{pad}  "rhs": %s{pad}}}',
            Sub: f'{{{pad}  "kind": "sub",{pad}  "lhs": %s,{pad}  "rhs": %s{pad}}}',
            Substitution: f'{{{pad}  "var": "α%d",{pad}  "type": %s{pad}}}',
            Context: f'{{{pad}  "name": %s,{pad}  "type": %s{pad}}}'}


def json_text(value: Any) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for a report: the
    one place that decides how a report value is written.  Tuples and
    constraint sets print as lists, constraints as ``constraint_json``, σ
    and Γ as lists of ``{"var", "type"}`` and ``{"name", "type"}`` objects,
    derivations, solver steps and rule errors as objects of their fields,
    and the oracle's BudgetExceeded as ``"budget-exceeded"``.  One pass with
    an explicit stack, so that any nesting depth renders; a non-empty list
    of constraints, a σ or a Γ is written in one join."""
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
                out.append(_templates(pad)[value.__class__] % (value.lhs._json, value.rhs._json))
            elif value.__class__ in _SEQUENCES and value and {Eq, Sub}.issuperset(map(type, value)):
                item = _templates(inner := pad + "  ")
                out.append("[" + inner + ("," + inner).join(
                    [item[c.__class__] % (c.lhs._json, c.rhs._json) for c in value]) + pad + "]")
            elif isinstance(value, (Substitution, Context)):
                item = _templates(inner := pad + "  ")[value.__class__]
                rows = ([item % (v, t._json) for v, t in value.items()] if isinstance(value, Substitution)
                        else [item % (encode_basestring(n), t._json) for n, t in _typings(value)])
                out.append("[" + inner + ("," + inner).join(rows) + pad + "]" if rows else "[]")
            elif value is None or isinstance(value, bool):
                out.append("null" if value is None else "true" if value else "false")
            else:
                if isinstance(value, Derivation):
                    conclusion: dict[str, Any] = {"subject": str(value.subject), "type": str(value.type)}
                    if value.constraints is not None:
                        conclusion["constraints"] = value.constraints
                    value = {"rule": value.rule, "conclusion": conclusion, "premises": value.premises}
                elif isinstance(value, solver.TraceStep):
                    value = {"rule": value.rule, "consumed": value.consumed, "produced": value.produced,
                             "bound": [{"var": f"α{v}", "type": str(t)} for v, t in value.bound]}
                elif isinstance(value, RuleError):
                    value = {"kind": str(value.kind), "path": value.path, "detail": value.detail}
                elif isinstance(value, Exception):  # the oracle's BudgetExceeded, the one other error
                    out.append('"budget-exceeded"')
                    continue
                elif value.__class__ not in _SEQUENCES and not isinstance(value, dict):
                    out.append(int.__repr__(value))  # a TypeError for any other type
                    continue
                stack.append((pairs, is_dict, pad))
                is_dict = isinstance(value, dict)
                pairs = iter(value.items()) if is_dict else enumerate(value)
                out.append("{" if is_dict else "[")
                pad += "  "
                sep = pad
                break
        else:
            if not stack:
                return "".join(out)
            # An empty container closes on its opening line.
            out.append(("" if sep == pad else stack[-1][2]) + ("}" if is_dict else "]"))
            pairs, is_dict, pad = stack.pop()
            sep = "," + pad


# ---------------------------------------------------------------------------
# Driver

_MAX_ENUM = 1_000_000


def nonnegative_int(text: str) -> int:
    """An ``int`` argument that may not be negative."""
    import argparse
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return int(text)


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # Built once per process; parsing leaves the parser unchanged.
    import argparse
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
        p.add_argument("file", help="input file")
        if name != "validate":
            p.add_argument("--trace", action="store_true",
                           help="print derivation trees and solver steps")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if name == "solve":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check the outcome against brute-force enumeration")
            p.add_argument("--max-enum", type=nonnegative_int, default=_MAX_ENUM,
                           help="budget for brute-force enumeration with --oracle")
    return parser


# Each command's options on the direct path, besides --format.
_FLAGS = {"check": ("--trace",), "infer": ("--trace",), "solve": ("--trace", "--oracle"),
          "validate": ()}


def _common_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_arg_parser().parse_args(argv)`` returns, read directly if
    ``argv`` has a common form (see the module docstring); else None."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    args: dict[str, Any] = {"command": argv[0], "file": None, "format": None,
                            **{flag[2:]: False for flag in flags}}
    rest = iter(argv[1:])
    for token in rest:
        if token == "--format" and args["format"] is None:
            args["format"] = next(rest, None)
            if args["format"] not in ("text", "json"):
                return None
        elif token in flags and not args[token[2:]]:
            args[token[2:]] = True
        elif args["file"] is None and not token.startswith("-"):
            args["file"] = token
        else:
            return None
    if args["file"] is None:
        return None
    args["format"] = args["format"] or "text"
    if argv[0] == "solve":
        args["max_enum"] = _MAX_ENUM
    return SimpleNamespace(**args)


def run(argv: list[str]) -> int:
    args = _common_args(argv) or _arg_parser().parse_args(argv)
    as_json = args.format == "json"
    report: dict[str, Any] = {"command": args.command}
    name = args.file
    try:
        with open(name, "rb") as fh:  # parse breaks the lines itself
            source = fh.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        problem = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        print(f"{name}: {problem}", file=sys.stderr)
        return 2

    try:
        sf = parse(source)
    except ParseError as exc:
        print(f"{name}:{exc.pos}: parse error: {exc.message}", file=sys.stderr)
        return 2

    ctx, rules = build_context(sf), sf.rules
    violations = validate(ctx, [d.rule for d in rules])

    if args.command == "validate":
        report.update(ok=not violations,
                      violations=[{"kind": v.kind, "detail": v.detail} for v in violations])
        print(json_text(report) if as_json else ("\n".join(map(str, violations)) or "ok"))
        return 3 if violations else 0

    problems = [f"{name}: {v}" for v in violations]
    if args.command == "check" and not problems:
        problems = [f"{name}:{d.pos}: check mode needs a ground typing for "
                    f"{d.name}{'*' if isinstance(d, SvarDecl) else ''}" for d in sf.fresh_marked]
        problems += [f"{name}:{d.pos}: check mode needs ground match annotations" for d in rules
                     if any(m.at is None for m in d.rule.matches)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 3

    codes = [0]
    rendered = report["rules"] = []
    budget = args.max_enum if getattr(args, "oracle", False) else None
    for index, decl in enumerate(rules, start=1):
        # Checking and inference walk terms recursively, so a term too deep
        # for the interpreter's stack is a per-rule error, not a crash.
        # Rendering keeps its own stacks, and runs after the guard.
        try:
            code, result = rule_report(ctx, decl.rule, args.command, budget, args.trace)
        except RecursionError:
            error = RuleError(ErrKind.TOO_DEEP, "rule", "the rule nests too deeply to process")
            code, result = 1, {"outcome": "error", "error": error}
        except RuleError as exc:  # kept past the block: its traceback would hold this frame, and so the report
            exc.__traceback__ = exc.__context__ = None
            code, result = 1, {"outcome": "error", "error": exc}
        codes.append(code)
        rendered.append({"index": index, **result} if as_json
                        else report_text(result, index, f"{name}:{decl.pos}"))

    report["exit"] = max(codes)
    if as_json or rendered:
        print(json_text(report) if as_json else "\n".join(rendered))
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
