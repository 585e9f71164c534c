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
from itertools import chain
from json.encoder import encode_basestring
from typing import Any, Iterator

from . import checker, oracle, solver
from .context import Context, ErrKind, RuleError, validate
from .core import Cond, Constraint, ConstraintSet, Derivation, Rule, Sub, Substitution
from .infer import FreshSupply, infer_rule, init_context
from .surface import ParseError, RuleDecl, build_context, parse, render_instance, resolve_rule


# ---------------------------------------------------------------------------
# Text rendering

def _judgment(d: Derivation) -> str:
    subject = f"({d.subject})" if isinstance(d.subject, (Cond, Rule)) else str(d.subject)
    return f"{subject} : {d.type}"


def _judgment_constraints(d: Derivation) -> dict[int, ConstraintSet]:
    """The constraint set of every inference judgment in ``d``, keyed by node
    id: its premises' sets, then the node's own constraints."""
    sets: dict[int, ConstraintSet] = {}
    for node in reversed(list(d.walk())):  # every node after its premises
        if node.constraints is not None:
            sets[id(node)] = ConstraintSet(chain(
                *(sets[id(p)] for p in node.premises), node.constraints))
    return sets


def render_derivation(d: Derivation) -> str:
    """One judgment per line, two spaces of indent per premise depth, the
    rule label right-aligned after the widest judgment; an inference
    judgment also lists its own constraints that no premise's set has."""
    sets = _judgment_constraints(d)
    rows: list[tuple[str, str]] = []
    stack = [(0, d)]
    while stack:
        depth, node = stack.pop()
        body = "  " * depth + _judgment(node)
        if node.constraints is not None:
            inherited = set(chain(*(sets[id(p)] for p in node.premises)))
            new = [c for c in node.constraints if c not in inherited]
            body += " • {" + ", ".join(str(c) for c in new) + "}"
        rows.append((body, node.rule))
        stack.extend((depth + 1, p) for p in reversed(node.premises))
    width = max(len(body) for body, _ in rows)
    return "\n".join(f"{body:<{width}}  [{rule}]" for body, rule in rows)


def render_trace(steps: tuple[solver.TraceStep, ...]) -> str:
    lines = []
    for step in steps:
        consumed = ", ".join(str(c) for c in step.consumed)
        parts = [f"({step.rule}) {consumed}"]
        if step.produced:
            parts.append("=> " + ", ".join(str(c) for c in step.produced))
        for var, image in step.bound:
            parts.append(f"bind α{var} ↦ {image}")
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON rendering

def constraint_json(c: Constraint) -> dict[str, str]:
    return {"kind": "sub" if isinstance(c, Sub) else "eq",
            "lhs": str(c.lhs), "rhs": str(c.rhs)}


def derivation_json(d: Derivation) -> dict[str, Any]:
    sets = _judgment_constraints(d)
    root: list[dict[str, Any]] = []
    stack = [(d, root)]  # a node, and its parent's premise list
    while stack:
        node, siblings = stack.pop()
        conclusion: dict[str, Any] = {"subject": str(node.subject), "type": str(node.type)}
        if node.constraints is not None:
            conclusion["constraints"] = [constraint_json(c) for c in sets[id(node)]]
        siblings.append({"rule": node.rule, "conclusion": conclusion, "premises": []})
        stack.extend((p, siblings[-1]["premises"]) for p in reversed(node.premises))
    return root[0]


def subst_json(s: Substitution) -> list[dict[str, str]]:
    return [{"var": f"α{v}", "type": str(t)} for v, t in s.items()]


def json_text(value: Any) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for a report (dicts
    with string keys, lists, strings, ints, booleans, None), written in one
    pass with an explicit stack, so that any nesting depth renders."""
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
            p.add_argument("--max-enum", type=int, default=1_000_000,
                           help="budget for brute-force enumeration with --oracle")
    return parser


def _run_rule(args: argparse.Namespace, ctx: Context, decl: RuleDecl,
              index: int, entry: dict[str, Any], out: list[str]) -> int:
    """Check, infer or solve one rule, filling its report entry for JSON or
    its text lines; returns the rule's exit code, or raises
    :class:`RuleError` when the rule gets no verdict.  Constraint sets,
    substitutions and traces are rendered only in the selected format."""
    try:
        rule = resolve_rule(decl, ctx)
        as_json = args.format == "json"

        def trace_derivation(d: Derivation) -> None:
            if args.trace and as_json:
                entry["derivation"] = derivation_json(d)
            elif args.trace:
                out.append(render_derivation(d))

        if args.command == "check":
            outcome = checker.check_rule(ctx, rule)
            if isinstance(outcome, checker.CheckErr):
                raise RuleError(outcome.kind, outcome.path, outcome.detail)
            entry["outcome"] = "well-typed"
            out.append(f"rule {index}: well-typed")
            trace_derivation(outcome.derivation)
            return 0

        # infer / solve share the generation step
        fresh = FreshSupply()
        gamma = init_context(ctx, rule, fresh)
        result = infer_rule(gamma, rule, fresh)

        typings = list(gamma.var_types.items()) + [(f"{n}*", t) for n, t in gamma.star_types.items()]
        if as_json:
            entry["context"] = [{"name": n, "type": str(t)} for n, t in typings]
            entry["constraints"] = [constraint_json(c) for c in result.constraints]

        if args.command == "infer":
            if not as_json:
                out.append(f"rule {index}: Γ = {{{', '.join(f'{n} : {t}' for n, t in typings)}}}")
                out.append(f"rule {index}: C = {result.constraints}")
            trace_derivation(result.derivation)
            return 0

        outcome = solver.solve(gamma, result.constraints)
        if args.trace and not as_json:
            out.append(f"rule {index}: C = {result.constraints}")
        trace_derivation(result.derivation)
        if isinstance(outcome, solver.Solved):
            code = 0
            if as_json:
                entry.update(result="solved", substitution=subst_json(outcome.subst))
            else:
                out.append(f"rule {index}: solved σ = {outcome.subst}")
        elif isinstance(outcome, solver.Failed):
            code = 1
            if as_json:
                entry.update(result="failed", fail_rule=outcome.fail_rule,
                             witness=[constraint_json(c) for c in outcome.witness])
            else:
                witness = ", ".join(str(c) for c in outcome.witness)
                out.append(f"rule {index}: failed by detection rule ({outcome.fail_rule}) on {witness}")
        else:
            code = 4
            if as_json:
                entry.update(result="stuck", residual=[constraint_json(c) for c in outcome.residual])
            else:
                out.append(f"rule {index}: stuck with residual {outcome.residual}")
        if args.trace and as_json:
            entry["steps"] = [{"rule": s.rule,
                               "consumed": [constraint_json(c) for c in s.consumed],
                               "produced": [constraint_json(c) for c in s.produced],
                               "bound": [{"var": f"α{v}", "type": str(t)} for v, t in s.bound]}
                              for s in outcome.trace]
        elif args.trace:
            out.append(render_trace(outcome.trace))

        if args.oracle:
            try:
                found = oracle.enumerate_solutions(
                    gamma, result.constraints, budget=args.max_enum, limit=1)
            except oracle.BudgetExceeded as exc:
                entry["oracle"] = "budget-exceeded"
                out.append(f"rule {index}: oracle: {exc}")
                return 5
            solved = isinstance(outcome, solver.Solved)
            satisfiable = bool(found)
            entry["oracle"] = "satisfiable" if satisfiable else "unsatisfiable"
            if isinstance(outcome, solver.Stuck):
                out.append(f"rule {index}: oracle: set is {entry['oracle']} (outcome stuck)")
            elif solved != satisfiable:
                out.append(f"rule {index}: oracle DISAGREES with the solver "
                           f"(solver {'solved' if solved else 'failed'}, "
                           f"enumeration found {'a' if satisfiable else 'no'} solution)")
                code = 1
            else:
                out.append(f"rule {index}: oracle agrees")
        return code
    except RecursionError:
        # Terms are walked recursively; a term too deep for the
        # interpreter's stack is a per-rule error, not a crash.
        raise RuleError(ErrKind.TOO_DEEP, "rule", "the rule nests too deeply to process") from None


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
        except OSError as exc:
            print(f"{args.file}: {exc.strerror}", file=sys.stderr)
            return 2
    elif args.seed is not None:
        name = f"<seed {args.seed}>"
        ctx, rule = oracle.gen_instance(args.seed)
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
        report["ok"] = not violations
        report["violations"] = [{"kind": v.kind, "detail": v.detail} for v in violations]
        if as_json:
            print(json_text(report))
        else:
            print("\n".join(out + ([str(v) for v in violations] or ["ok"])))
        return 3 if violations else 0

    if violations:
        for v in violations:
            print(f"{name}: {v}", file=sys.stderr)
        return 3

    if args.command == "check":
        mode_problems = [f"{name}:{d.pos}: check mode needs a ground typing for "
                         f"{getattr(d, 'name', '?')}" for d in sf.fresh_marked]
        for decl in sf.rules:
            if any(m.at is None for m in decl.conds):
                mode_problems.append(
                    f"{name}:{decl.pos}: check mode needs ground match annotations")
        if mode_problems:
            for p in mode_problems:
                print(p, file=sys.stderr)
            return 3

    codes = [0]
    rule_reports: list[dict[str, Any]] = []
    report["rules"] = rule_reports

    for index, decl in enumerate(sf.rules, start=1):
        entry: dict[str, Any] = {"index": index}
        lines: list[str] = []
        try:
            codes.append(_run_rule(args, ctx, decl, index, entry, lines))
        except RuleError as exc:
            entry = {"index": index, "outcome": "error",
                     "error": {"kind": str(exc.kind), "path": exc.path, "detail": exc.detail}}
            lines = [f"{name}:{decl.pos}: rule {index}: error {exc}"]
            codes.append(1)
        rule_reports.append(entry)
        out.extend(lines)

    if as_json:
        report["exit"] = max(codes)
        print(json_text(report))
    elif out:
        print("\n".join(out))
    return max(codes)


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
