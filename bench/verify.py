"""Verdict verification against references independent of the checker and
the solver under test.  Runs outside the timed loop, on each op's reference
output.

- ``check``: equals ``oracle.derivation_search`` on every match side at its
  annotation and every action at its declared sort; an accepted rule's
  derivation passes ``oracle.validate_derivation``.
- ``infer``/``solve``: the CLI prints the constraint set the library infers.
- ``solve``: ``Solved``/``Failed`` agrees with whether
  ``oracle.enumerate_solutions(..., limit=1)`` finds a solution.  A search
  over the budget leaves the op unverified, and is counted.
- Generator guarantees: directed rules check well-typed and never end
  ``Failed``.
- The committed corpus reproduces ``summary.txt``; ``example4`` reproduces
  ``golden/example4_solve.txt``.
- No op fails: an op that raised or exited with a code other than a
  verdict code makes the run wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field

from ruletypes import checker, cli, oracle
from ruletypes.core import Conj, DecoratedSort, Decoration, Match, Sort
from ruletypes.infer import FreshSupply, InferError, infer_rule, init_context
from ruletypes.surface import build_context, parse, resolve_rule

from workloads import OP_KINDS, Case

ENUM_BUDGET = 20_000


@dataclass
class Verification:
    problems: list[str] = field(default_factory=list)
    checked_ops: int = 0
    enumerated: int = 0
    unverified: int = 0     # enumeration budget exceeded
    solve_ops: int = 0
    decided: int = 0        # solve ops ending Solved or Failed


def _load(path) -> tuple:
    sf = parse(path.read_text(encoding="utf-8"))
    ctx = build_context(sf)
    return ctx, resolve_rule(sf.rules[0], ctx)


def _matches(cond) -> list[Match]:
    if isinstance(cond, Match):
        return [cond]
    assert isinstance(cond, Conj)
    return [m for c in cond.conds for m in _matches(c)]


def _dsort(text: str) -> DecoratedSort | None:
    """Parse a printed ground type ``S^d`` / ``S^?``; None for a variable."""
    if "^" not in text:
        return None
    sort, deco = text.split("^", 1)
    return DecoratedSort(Sort(sort), Decoration(None if deco == "?" else deco))


def _oracle_check(ctx, rule) -> bool:
    for m in _matches(rule.cond):
        at = m.at.dsort
        if not (oracle.derivation_search(ctx, m.pattern, at)
                and oracle.derivation_search(ctx, m.subject, at)):
            return False
    for action in rule.actions:
        own = ctx.sortof(action)
        if own is None or not oracle.derivation_search(ctx, action, own):
            return False
    return True


def _satisfiable(gamma, constraints, pins) -> bool | None:
    """Whether enumeration finds a solution; None when over budget.  The
    solver's own ground bindings are tried first as a witness."""
    try:
        if pins and oracle.enumerate_solutions(gamma, constraints, budget=ENUM_BUDGET,
                                               fixed=pins, limit=1):
            return True
        return bool(oracle.enumerate_solutions(gamma, constraints, budget=ENUM_BUDGET, limit=1))
    except oracle.BudgetExceeded:
        return None


def verify_case(case: Case, refs: list[dict], v: Verification) -> None:
    by_kind = dict(zip(OP_KINDS, refs))

    def bad(msg: str) -> None:
        v.problems.append(f"{case.name}: {msg}")

    failed = [k for k, r in by_kind.items() if r["error"] is not None]
    if failed:
        for k in failed:
            bad(f"{k} op failed: {by_kind[k]['error']}")
        return
    out = {k: json.loads(r["stdout"])["rules"][0] for k, r in by_kind.items()}

    # check
    ctx, rule = _load(case.check_path)
    accepted = out["check"]["outcome"] == "well-typed"
    if accepted != _oracle_check(ctx, rule):
        bad(f"check says {out['check']['outcome']}, derivation search disagrees")
    if accepted:
        outcome = checker.check_rule(ctx, rule)
        if not isinstance(outcome, checker.WellTyped):
            bad("library check rejects what the CLI accepted")
        else:
            for problem in oracle.validate_derivation(ctx, outcome.derivation):
                bad(f"invalid derivation: {problem}")
    v.checked_ops += 1

    # infer and solve
    ctx, rule = _load(case.infer_path)
    fresh = FreshSupply()
    gamma = init_context(ctx, rule, fresh)
    try:
        constraints = infer_rule(gamma, rule, fresh).constraints
    except InferError as exc:
        for k in ("infer", "solve"):
            if out[k].get("error", {}).get("kind") != str(exc.kind):
                bad(f"{k}: CLI does not report the inference error {exc.kind}")
        return
    expected = [cli.constraint_json(c) for c in constraints]
    for k in ("infer", "solve"):
        if out[k].get("constraints") != expected:
            bad(f"{k}: printed constraints differ from the inferred set")

    result = out["solve"]["result"]
    v.solve_ops += 1
    if result in ("solved", "failed"):
        v.decided += 1
        pins = {}
        for b in out["solve"].get("substitution", []):
            ds = _dsort(b["type"])
            if ds is not None:
                pins[int(b["var"][1:])] = ds
        sat = _satisfiable(gamma, constraints, pins if result == "solved" else None)
        v.enumerated += 1
        if sat is None:
            v.unverified += 1
        elif sat != (result == "solved"):
            bad(f"solver says {result}, enumeration finds {'a' if sat else 'no'} solution")

    # generator guarantees and committed references
    if case.directed and (not accepted or result == "failed"):
        bad(f"directed rule: check {out['check']['outcome']}, solve {result}")
    if case.summary is not None:
        check_word = "well-typed" if accepted else out["check"]["error"]["kind"]
        solve_word = f"failed({out['solve']['fail_rule']})" if result == "failed" else result
        line = f"{case.name} check={check_word} solve={solve_word}"
        if line != case.summary:
            bad(f"corpus summary: got {line!r}, committed {case.summary!r}")
    if case.golden_solve is not None:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.run(["solve", str(case.infer_path)])
        if text.getvalue() != case.golden_solve.read_text(encoding="utf-8"):
            bad("solve output differs from the committed golden")


def verify(cases: list[Case], reference: list[dict]) -> Verification:
    """``reference`` holds one entry per op, three per case in OP_KINDS order."""
    v = Verification()
    for i, case in enumerate(cases):
        verify_case(case, reference[3 * i: 3 * i + 3], v)
    return v
