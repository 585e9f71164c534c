#!/usr/bin/env python3
"""Time whole CLI ops (``cli.run``) of two checkouts in one process, on the
seed-1 inputs of both benchmark workloads, and print the median time ratio.

    python3 scripts/op_ab.py ../parent . --kind infer --rounds 21

Each checkout's package is loaded from its ``src`` under a module name of
its own, so that both live in one interpreter.  ``bench/workloads.build``
of this repository writes the inputs into a temporary directory (bench/ is
only read): the checking form for ``check``, the inference form for
``infer`` and ``solve``.  First, untimed, every op runs on both checkouts in
text and JSON, with and without ``--trace``, and the script exits non-zero
unless stdout, stderr and the exit code are byte-equal.  Then a round runs
every op of a workload once per checkout, as the benchmark does (``--format
json``, no trace), the checkouts' order alternating from round to round,
and the script prints, per workload and kind, the median over rounds of
the ratio B/A of the round's op time, then the ratio B/A of the p50 and of
the tail percentile of single ops, pooled over rounds.  The tail is the
benchmark's (``bench/run.py``): the highest usual percentile with at least
ten of a round's ops beyond it, p95 on corpus-mix and p80 on wide-lists.
Without ``--kind``, every kind is compared.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
KINDS = ("check", "infer", "solve")
VARIANTS = (["--format", "json"], ["--format", "json", "--trace"], [], ["--trace"])


def load(checkout: Path, alias: str) -> ModuleType:
    """The ``ruletypes.cli`` module of ``checkout``, its package imported as ``alias``."""
    init = checkout / "src" / "ruletypes" / "__init__.py"
    spec = importlib.util.spec_from_file_location(alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.cli")


def bench(name: str) -> ModuleType:
    """The module ``name`` of this repository's ``bench/``."""
    if str(ROOT / "bench") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # corpus-mix draws on ruletypes
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = False


def build_inputs(out: Path) -> dict[str, dict[str, list[str]]]:
    """Each workload's input files per op kind, for its seed-1 cases."""
    workloads = bench("workloads")
    inputs = {}
    for name in workloads.WORKLOADS:
        cases = workloads.build(name, SEED, ROOT, out / name)
        inputs[name] = {kind: [str(c.check_path if kind == "check" else c.infer_path) for c in cases]
                        for kind in KINDS}
    return inputs


def run(cli: ModuleType, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one ``cli.run``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def time_ops(cli: ModuleType, kind: str, paths: list[str]) -> list[int]:
    """Nanoseconds of each ``kind --format json`` op, one per path."""
    ops = [[kind, path, "--format", "json"] for path in paths]
    runner, clock, times = cli.run, time.perf_counter_ns, []
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in ops:
            t0 = clock()
            runner(argv)
            times.append(clock() - t0)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the checkout to compare against")
    parser.add_argument("b", type=Path, help="the checkout measured")
    parser.add_argument("--kind", choices=KINDS, action="append",
                        help="an op kind to compare (repeatable; default every kind)")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds (default 21)")
    opts = parser.parse_args(argv)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    for c in (opts.a, opts.b):
        if not (c / "src" / "ruletypes" / "cli.py").is_file():
            parser.error(f"{c} has no src/ruletypes/cli.py")
    kinds = opts.kind or list(KINDS)
    sides = (load(opts.a.resolve(), "ruletypes_a"), load(opts.b.resolve(), "ruletypes_b"))

    with tempfile.TemporaryDirectory() as tmp:
        inputs = build_inputs(Path(tmp))
        for name, by_kind in inputs.items():
            for kind in kinds:
                for path in by_kind[kind]:
                    for variant in VARIANTS:
                        op = [kind, path, *variant]
                        if run(sides[0], op) != run(sides[1], op):
                            sys.exit(f"{name}: the checkouts print differently on {' '.join(op)}")

        stats = bench("run")
        print(f"op time B/A, median of {opts.rounds} round(s); A = {opts.a}, B = {opts.b}")
        for name, by_kind in inputs.items():
            for kind in kinds:
                paths, ratios, totals, pooled = by_kind[kind], [], ([], []), ([], [])
                for r in range(opts.rounds):
                    order = (0, 1) if r % 2 == 0 else (1, 0)
                    ns = {side: time_ops(sides[side], kind, paths) for side in order}
                    for side in (0, 1):
                        totals[side].append(sum(ns[side]))
                        pooled[side].extend(ns[side])
                    ratios.append(totals[1][-1] / totals[0][-1])
                tail = stats.tail_percentile(len(paths))
                a, b = ({p: stats.percentile(pooled[side], p) for p in (50, tail)} for side in (0, 1))
                print(f"{name:>11} {kind:>5}: {len(paths)} ops, A {statistics.median(totals[0]) / 1e6:.1f} ms, "
                      f"B {statistics.median(totals[1]) / 1e6:.1f} ms per round, "
                      f"B/A {statistics.median(ratios):.3f}; p50 B/A {b[50] / a[50]:.3f}, "
                      f"p{tail} B/A {b[tail] / a[tail]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
