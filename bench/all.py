#!/usr/bin/env python3
"""Run every workload, each in a fresh process, untraced and then traced,
and print every metric by name with its unit.

Usage, from the repository root:

    python3 bench/all.py [--seed N] [--seconds S]

Without ``--seed`` every workload runs on the default seed; ``--seed 7`` is
the held-out seed.  The combined results, including the traced run's
counters and tracing overhead, are written to ``.bench_work/all-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    import workloads

    combined = {}
    status = 0
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    for name in workloads.WORKLOADS:
        combined[name] = {"seed": seed}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} seed {seed} trace {trace}: exit {proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            combined[name]["trace" if trace else "end_to_end"] = json.loads(
                (ROOT / ".bench_work" / f"{name}-{seed}-{trace}" / "summary.json").read_text(encoding="utf-8"))
    out = ROOT / ".bench_work" / f"all-{seed}.json"
    out.write_text(json.dumps(combined, indent=2), encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
