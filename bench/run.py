#!/usr/bin/env python3
"""Benchmark of the ``ruletypes`` CLI: time to verdict for check, infer and
solve ops on one workload.

Usage, from the repository root:

    python3 bench/run.py --workload corpus-mix --seed 1 --seconds 50 --trace 0

Set-up writes the workload's inputs under ``.bench_work/`` and checks
their digest.  A fresh worker process (``bench/worker.py``) then runs the
ops in a closed loop with one client; with ``--trace 1`` it replays every
op through the package's layers and records spans instead.  Every verdict
is verified (``bench/verify.py``) before any number is printed.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Exit code 0 on a verified run, 1 on a wrong verdict,
2 when the repository is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 8  # before the worker, and as many again after it
MIN_PASSES = 3
WORKER_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 30
SOLVER_RULES = ("1", "2", "3", "4", "5", "6", "7a", "7b", "8", "9", "10", "11", "12", "13", "14")
SPAN_METRICS = {
    "surface.parse": "surface.parse_ms",
    "surface.build_context": "surface.build_context_ms",
    "surface.resolve_rule": "surface.resolve_rule_ms",
    "context.validate": "context.validate_ms",
    "checker.check_rule": "checker.check_rule_ms",
    "infer.init_context": "infer.init_context_ms",
    "infer.infer_rule": "infer.infer_rule_ms",
    "solver.solve": "solver.solve_ms",
}
COUNTERS = (
    ["surface.source_bytes", "surface.decls", "checker.derivation_nodes", "checker.rejected",
     "infer.constraints", "infer.derivation_nodes", "infer.stored_constraints", "infer.errors",
     "solver.steps"]
    + [f"solver.steps.{r}" for r in SOLVER_RULES]
    + ["solver.solved"] + [f"solver.failed.{k}" for k in range(1, 6)] + ["solver.stuck"]
)
COUNTER_UNITS = {"surface.source_bytes": "bytes"}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ProbeTimeout(Exception):
    pass


def _probe_timeout(signum, frame):
    raise ProbeTimeout


def measure_setup(op: dict, probes: int) -> list[tuple[float, int]]:
    """(wall time, exit code) of fresh ``python3 -m ruletypes.cli``
    processes running the workload's first op: interpreter start, package
    import and one verdict, as a shell user pays it.

    The wait blocks in ``waitpid`` and an alarm bounds it.  ``Popen.wait``
    with a timeout polls instead, with sleeps growing to 50 ms, and would
    round every probe up to the next poll: 164 or 214 ms."""
    argv = [sys.executable, "-m", "ruletypes.cli", op["kind"], op["path"], "--format", "json"]
    env = worker_env()
    cpus = sorted(os.sched_getaffinity(0))
    signal.signal(signal.SIGALRM, _probe_timeout)
    samples = []
    for k in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpus[k % len(cpus)]}))
        signal.alarm(PROBE_TIMEOUT_S)
        try:
            code = proc.wait()
        except ProbeTimeout:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        samples.append((time.perf_counter() - t0, code))
    return samples


def run_worker(job: dict, job_path: Path) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], env=worker_env())
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(Path(job["results_path"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metrics

def tail_percentile(n: int) -> int:
    """The highest of the usual percentiles with at least ten of ``n`` ops
    beyond it (the median when ``n`` is too small for any)."""
    return next((p for p in (99, 98, 95, 90, 80, 75) if n * (100 - p) // 100 >= 10), 50)


def end_to_end(ops, res, v, setup: list[float]) -> tuple[dict, list[str]]:
    """Percentiles over every timed run of the ops of a kind.  The tail
    percentile leaves at least ten ops of the kind beyond it, whatever the
    number of passes, so that many rules set it and not the luck of a few.
    Not a per-op minimum over passes: that is an extreme of about ten
    samples, and on the same runs its widest spread over seeds was larger
    (see bench/README.md)."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for op, ts in zip(ops, res["times_ns"]):
        by_kind[op["kind"]].extend(t / 1e6 for t in ts)
    loop_s = sum(res["pass_ns"]) / 1e9
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "ops_per_s": (len(ops) * res["passes"] / loop_s, "1/s")}
    notes = [f"setup_s: median of {len(setup)} fresh interpreters",
             f"ops_per_s: one client, closed loop; {res['passes']} passes over {len(ops)} ops "
             f"took {loop_s:.2f} s"]
    for kind in ("check", "infer", "solve"):
        xs = by_kind[kind]
        p = tail_percentile(len(xs) // res["passes"])
        tail = percentile(xs, p)
        metrics[f"{kind}_p50_ms"] = (percentile(xs, 50), "ms")
        metrics[f"{kind}_tail_ms"] = (tail, "ms")
        notes.append(f"{kind}_tail_ms: p{p} of {len(xs)} runs of {len(xs) // res['passes']} ops, "
                     f"{sum(x > tail for x in xs)} runs beyond it")
    metrics["decided_share"] = (v.decided / max(1, v.solve_ops), "ratio")
    metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
    notes.append(f"failed_op_share: {res['failed'] / res['attempted']:.6f} "
                 f"({res['failed']} of {res['attempted']} ops)")
    return metrics, notes


def per_layer(ops, res, spans_path: Path) -> tuple[dict, list[str]]:
    """Per-op medians of span self time (layer spans are leaves under the
    op's root span, so self time is duration), then the median over the ops
    that make the call; counters from the first replay pass."""
    op_of_seq = res["op_of_seq"]
    per_op: dict[str, dict[int, dict[int, int]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    layer_sum: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            if s["parent"] is None:
                continue
            i = op_of_seq[s["op"]]
            per_op[s["name"]][i][s["op"]] += s["end"] - s["start"]
            layer_sum[i][s["op"]] += s["end"] - s["start"]

    metrics: dict[str, tuple[float, str]] = {}
    for span, name in SPAN_METRICS.items():
        medians = [statistics.median(seqs.values()) / 1e6 for seqs in per_op[span].values()]
        metrics[name] = (statistics.median(medians), "ms")

    counters = res["counters"][0]
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), COUNTER_UNITS.get(name, "count"))
    solve_ns = sum(sum(seqs.values()) / len(seqs) for seqs in per_op["solver.solve"].values())
    metrics["solver.us_per_step"] = (solve_ns / 1e3 / max(1, counters.get("solver.steps", 0)), "us")

    for kind in ("check", "infer", "solve"):
        selfs = [statistics.median(res["times_ns"][i]) - statistics.median(layer_sum[i].values())
                 for i, op in enumerate(ops) if op["kind"] == kind and i in layer_sum]
        metrics[f"cli.self_ms.{kind}"] = (statistics.median(selfs) / 1e6, "ms")
    replayed = [(t, u) for t, u in zip(res["traced_ns"], res["replay_ns"]) if t]
    overhead = [statistics.median(t) - statistics.median(u) for t, u in replayed]
    untraced = statistics.median(statistics.median(u) for _, u in replayed)
    metrics["trace.overhead_ms"] = (statistics.median(overhead) / 1e6, "ms")
    notes = [f"tracing overhead: {statistics.median(overhead) / 1e6:.4f} ms per op "
             f"({100 * statistics.median(overhead) / untraced:.2f}% of the median untraced replay)",
             f"replay passes: {res['passes']}; spans written to {spans_path.relative_to(ROOT)}"]
    return metrics, notes


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small rules per workload, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "ruletypes" / "__init__.py").is_file():
        fail_setup(f"no ruletypes package under {SRC}; run from a repository checkout")
    if not (ROOT / "tests" / "fixtures" / "corpus" / "summary.txt").is_file():
        fail_setup("the committed corpus fixtures are missing")
    sys.path.insert(0, str(SRC))
    import workloads
    from verify import verify

    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    cases = workloads.build(args.workload, args.seed, ROOT, inputs, tiny=args.tiny)

    digest = workloads.digest(sorted(inputs.iterdir()), inputs)
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    known = None if args.tiny else recorded.get(args.workload, {}).get(str(args.seed))
    print(f"inputs: {len(cases)} rules, digest {digest} "
          f"({'unrecorded seed' if known is None else 'matches record' if known == digest else 'MISMATCH'})")
    if known is not None and known != digest:
        print(f"WRONG: input digest {digest} differs from the recorded {known}")
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1

    ops = [{"id": f"{c.name}:{k}", "kind": k,
            "path": str(c.check_path if k == "check" else c.infer_path)}
           for c in cases for k in workloads.OP_KINDS]
    job = {"ops": ops, "seconds": args.seconds, "min_passes": MIN_PASSES,
           "mode": "traced" if args.trace else "timed",
           "results_path": str(work / "results.json"), "spans_path": str(work / "spans.jsonl")}
    # Probes run before and after the worker, so that one slow spell on the
    # host does not cover them all.  The first probe also writes the
    # package's bytecode and is not recorded.
    setup: list[tuple[float, int]] = []
    if not args.trace:
        measure_setup(ops[0], 1)
        setup += measure_setup(ops[0], SETUP_PROBES)
    res = run_worker(job, work / "job.json")
    if not args.trace:
        setup += measure_setup(ops[0], SETUP_PROBES)

    v = verify(cases, res["reference"])
    problems = list(v.problems)
    problems += [f"output differs from the reference pass: {m}" for m in res["mismatches"]]
    if res["failed"]:
        problems.append(f"{res['failed']} of {res['attempted']} ops failed")
    problems += [f"set-up probe exited {code}, the first op's reference exit code is "
                 f"{res['reference'][0]['code']}"
                 for _, code in setup if code != res["reference"][0]["code"]][:1]
    if args.trace:
        if any(c != res["counters"][0] for c in res["counters"]):
            problems.append("counters differ between replay passes")

    print(f"verification: {v.checked_ops} check verdicts against derivation search; "
          f"{v.enumerated} solve verdicts enumerated, {v.unverified} over budget (unverified); "
          f"{len(problems)} problems")
    for e in res["errors"]:
        print(f"failed op: {e}")
    if problems:
        for p in problems[:50]:
            print(f"WRONG: {p}")
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": {}}))
        return 1

    if args.trace:
        metrics, notes = per_layer(ops, res, Path(job["spans_path"]))
        notes.append("counters: " + json.dumps(res["counters"][0], sort_keys=True))
    else:
        metrics, notes = end_to_end(ops, res, v, [t for t, _ in setup])

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "digest": digest, "notes": notes,
               "metrics": {k: {"value": val, "unit": u} for k, (val, u) in metrics.items()}}
    if args.trace:
        summary["counters"] = res["counters"][0]
    (work / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")

    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.6f} {unit}")
    print(json.dumps({"correct": True, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
