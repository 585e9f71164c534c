#!/usr/bin/env python3
"""Time ``ruletypes.solver.solve`` of two checkouts in one process, on the
seed-1 inputs of both benchmark workloads, and print the median time ratio.

    python3 scripts/solver_ab.py ../parent . --rounds 21

Each checkout's package is loaded from its ``src`` under a module name of
its own, so that both live in one interpreter.  ``bench/workloads.build``
of this repository writes the inputs into a temporary directory (bench/ is
only read).  Each checkout parses every rule's inference form and generates
its constraints with its own modules, untimed.  The script then asserts
that both checkouts reach the same outcome, with the same trace, on every
rule.  A round solves every rule once per checkout, the checkouts' order
alternating from round to round, and the script prints, per workload, the
median over rounds of the ratio B/A of solver time.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def load(checkout: Path, alias: str) -> ModuleType:
    """The ``ruletypes`` package of ``checkout``, imported as ``alias``."""
    init = checkout / "src" / "ruletypes" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def build_inputs(out: Path) -> dict[str, list[Path]]:
    """The inference-form files of every workload's seed-1 cases."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # corpus-mix draws on ruletypes
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = False
    return {name: [case.infer_path for case in workloads.build(name, SEED, ROOT, out / name)]
            for name in workloads.WORKLOADS}


def problems(rt: ModuleType, paths: list[Path]) -> list[tuple[Any, Any]]:
    """Each rule's inference context and constraints, as ``ruletypes solve`` builds them."""
    out = []
    for path in paths:
        source = rt.parse(path.read_text(encoding="utf-8"))
        ctx = rt.build_context(source)
        for decl in source.rules:
            fresh = rt.FreshSupply()
            try:
                gamma = rt.init_context(ctx, decl.rule, fresh)
                out.append((gamma, rt.infer_rule(gamma, decl.rule, fresh).constraints))
            except rt.RuleError:
                pass
    return out


def signature(outcome: Any) -> tuple:
    """An outcome and its trace as plain strings and ints."""
    kind = type(outcome).__name__
    if kind == "Solved":
        detail: Any = str(outcome.subst)
    elif kind == "Failed":
        detail = (outcome.fail_rule, [str(c) for c in outcome.witness])
    else:
        detail = [str(c) for c in outcome.residual]
    steps = [(s.rule, [str(c) for c in s.consumed], [str(c) for c in s.produced],
              [(v, str(t)) for v, t in s.bound], s.degree_after) for s in outcome.trace]
    return kind, detail, steps


def solve_all(rt: ModuleType, items: list[tuple[Any, Any]]) -> int:
    solve = rt.solve
    gc.collect()
    t0 = time.perf_counter_ns()
    for gamma, constraints in items:
        solve(gamma, constraints)
    return time.perf_counter_ns() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the checkout to compare against")
    parser.add_argument("b", type=Path, help="the checkout measured")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds (default 21)")
    opts = parser.parse_args(argv)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    for c in (opts.a, opts.b):
        if not (c / "src" / "ruletypes" / "solver.py").is_file():
            parser.error(f"{c} has no src/ruletypes/solver.py")
    sides = (load(opts.a.resolve(), "ruletypes_a"), load(opts.b.resolve(), "ruletypes_b"))

    with tempfile.TemporaryDirectory() as tmp:
        inputs = build_inputs(Path(tmp))
        work = {name: [problems(rt, paths) for rt in sides] for name, paths in inputs.items()}

    for name, (items_a, items_b) in work.items():
        if len(items_a) != len(items_b):
            sys.exit(f"{name}: the checkouts generate {len(items_a)} and {len(items_b)} constraint sets")
        for i, (pa, pb) in enumerate(zip(items_a, items_b)):
            if signature(sides[0].solve(*pa)) != signature(sides[1].solve(*pb)):
                sys.exit(f"{name}: rule {i} ends differently, or with another trace")

    print(f"solver time B/A, median of {opts.rounds} round(s); A = {opts.a}, B = {opts.b}")
    for name, items in work.items():
        ratios, totals = [], ([], [])
        for r in range(opts.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            ns = {side: solve_all(sides[side], items[side]) for side in order}
            totals[0].append(ns[0])
            totals[1].append(ns[1])
            ratios.append(ns[1] / ns[0])
        print(f"{name:>11}: {len(items[0])} sets, A {statistics.median(totals[0]) / 1e6:.2f} ms, "
              f"B {statistics.median(totals[1]) / 1e6:.2f} ms per round, B/A {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
