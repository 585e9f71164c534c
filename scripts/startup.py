#!/usr/bin/env python3
"""Time fresh ``python -m ruletypes.cli`` processes, start-up included, for
one or more checkouts, and print the median and quartiles of each.

    python3 scripts/startup.py . ../other-checkout --runs 21

Each round runs every checkout once, in turn, so that a slow spell on the
host falls on all of them.  A checkout's package is imported from its
``src``; the command runs in the checkout, on ``check
tests/fixtures/example2.rules --format json`` unless ``--args`` gives
another.  One untimed run per checkout comes first.  The environment is
inherited: with ``PYTHONDONTWRITEBYTECODE`` set, every run compiles the
package.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(checkout: Path, args: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ruletypes.cli", *args], cwd=checkout, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--runs", type=int, default=15, help="timed runs per checkout")
    parser.add_argument("--args", default="check tests/fixtures/example2.rules --format json",
                        help="the CLI arguments, run in each checkout")
    opts = parser.parse_args(argv)
    if opts.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    checkouts = [c.resolve() for c in opts.checkouts]
    for c in checkouts:
        if not (c / "src" / "ruletypes" / "cli.py").is_file():
            parser.error(f"{c} has no src/ruletypes/cli.py")
    args = shlex.split(opts.args)

    times: dict[Path, list[float]] = {c: [] for c in checkouts}
    for c in checkouts:
        run_once(c, args)
    for _ in range(opts.runs):
        for c in checkouts:
            times[c].append(run_once(c, args))
    print(f"{opts.runs} runs each of: python -m ruletypes.cli {' '.join(args)}")
    for c, ts in times.items():
        q1, median, q3 = statistics.quantiles(ts, n=4)
        print(f"{median * 1e3:7.1f} ms median  (quartiles {q1 * 1e3:.1f}–{q3 * 1e3:.1f} ms, "
              f"min {min(ts) * 1e3:.1f} ms)  {c}")


if __name__ == "__main__":
    main()
