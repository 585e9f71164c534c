#!/usr/bin/env python3
"""Regenerate the committed corpus fixtures: one instance file per seed plus
a summary of check/solve outcomes, used as a regression net.

Usage: python3 scripts/gen_corpus.py [--count N] [--out DIR]
"""

import argparse
import pathlib

from ruletypes.cli import rule_report
from ruletypes.context import RuleError
from ruletypes.oracle import erase_annotations, gen_instance, strip_typings
from ruletypes.surface import render_instance


def outcomes(ctx, rule) -> tuple[str, str]:
    """The summary words of an instance: its check verdict (the rejection's
    kind) and the result of solving its inference form."""
    try:
        check_line = rule_report(ctx, rule, "check")[1]["outcome"]
    except RuleError as exc:
        check_line = str(exc.kind)
    _, report = rule_report(strip_typings(ctx), erase_annotations(rule), "solve")
    solve_line = report["result"]
    if solve_line == "failed":
        solve_line += f"({report['fail_rule']})"
    return check_line, solve_line


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(__file__).parent.parent / "tests" / "fixtures" / "corpus")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    summary = []
    for seed in range(args.count):
        ctx, rule = gen_instance(seed)
        (args.out / f"seed_{seed:03}.rules").write_text(render_instance(ctx, rule))
        check_line, solve_line = outcomes(ctx, rule)
        summary.append(f"seed_{seed:03} check={check_line} solve={solve_line}")
    (args.out / "summary.txt").write_text("\n".join(summary) + "\n")
    print(f"wrote {args.count} instances + summary to {args.out}")


if __name__ == "__main__":
    main()
