#!/usr/bin/env python3
"""Write ``bench/digests.json``: the input digest of every workload for
seeds 0-99.  ``run.py`` refuses a run whose inputs differ from the record,
which proves that two commits were measured on byte-identical inputs.

Usage, from the repository root:  python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(100)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scratch = ROOT / ".bench_work" / "digests"
    record = {}
    for name in workloads.WORKLOADS:
        record[name] = {}
        for seed in SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            workloads.build(name, seed, ROOT, scratch)
            record[name][str(seed)] = workloads.digest(sorted(scratch.iterdir()), scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(SEEDS)} seeds for {', '.join(record)}")


if __name__ == "__main__":
    main()
