"""The measured process of one benchmark run: one client, one thread, a
closed loop of in-process ``ruletypes.cli.run`` calls.

Usage: python3 bench/worker.py JOB.json

JOB names the ops, the mode and where to write results.  Both modes first
make one untimed reference pass, whose outputs the parent verifies; every
later execution of an op must print exactly its reference output.

- ``timed``: complete passes over all ops until ``seconds`` have elapsed
  (at least ``min_passes``), each op timed around ``cli.run`` and each
  pass timed as a whole.
- ``traced``: complete passes (at least two) in which every op runs three
  times back to back: through ``cli.run`` untimed by spans, then replayed
  through the package's exported functions in the order ``cli.run`` calls
  them, once with a no-op recorder and once recording one span per call.
  Counters are taken from each pass and must repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from ruletypes import checker, cli, solver
from ruletypes.context import validate
from ruletypes.infer import FreshSupply, InferError, infer_rule, init_context
from ruletypes.surface import build_context, parse, resolve_rule

now = time.perf_counter_ns
VALID_CODES = {"check": {0, 1}, "infer": {0, 1}, "solve": {0, 1, 4}}


def run_cli(kind: str, path: str) -> tuple[int | None, int, str, str | None]:
    """One op through the public CLI contract: (exit code or None if it
    raised, elapsed ns, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = now()
        try:
            code = cli.run([kind, path, "--format", "json"])
        except (Exception, SystemExit) as exc:  # a failed op, counted not raised
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = now()
    if code is not None and code not in VALID_CODES[kind]:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, t1 - t0, out.getvalue(), error


# ---------------------------------------------------------------------------
# Traced replay

class Recorder:
    """Keeps spans in memory as (name, start_ns, end_ns, op_id, parent).  A
    layer span's parent is its op's root span, whose id is the op id."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int | None]] = []
        self.op = 0

    def call(self, name, fn, *args):
        t0 = now()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, now(), self.op, self.op))


class NullRecorder:
    """The same interface, recording nothing: the untraced replay."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


def replay(kind: str, path: str, rec) -> list:
    """Run one op's pipeline the way ``cli.run`` does, minus argument
    parsing and rendering; returns each rule's outcome object."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    sf = rec.call("surface.parse", parse, source)
    ctx = rec.call("surface.build_context", build_context, sf)
    if rec.call("context.validate", validate, ctx):
        return []
    outcomes = []
    for decl in sf.rules:
        rule = rec.call("surface.resolve_rule", resolve_rule, decl, ctx)
        if kind == "check":
            outcomes.append(rec.call("checker.check_rule", checker.check_rule, ctx, rule))
            continue
        fresh = FreshSupply()
        gamma = rec.call("infer.init_context", init_context, ctx, rule, fresh)
        try:
            result = rec.call("infer.infer_rule", infer_rule, gamma, rule, fresh)
        except InferError as exc:
            outcomes.append(exc)
            continue
        if kind == "infer":
            outcomes.append(result)
        else:
            outcomes.append((result, rec.call("solver.solve", solver.solve, gamma, result.constraints)))
    return outcomes


def verdict_of_replay(kind: str, outcomes: list) -> list[str]:
    out = []
    for o in outcomes:
        if isinstance(o, InferError):
            out.append(f"error:{o.kind}")
        elif kind == "check":
            out.append("well-typed" if isinstance(o, checker.WellTyped) else f"error:{o.kind}")
        elif kind == "infer":
            out.append("ok")
        else:
            out.append(solve_verdict(o[1]))
    return out


def solve_verdict(o) -> str:
    if isinstance(o, solver.Solved):
        return "solved"
    if isinstance(o, solver.Failed):
        return f"failed({o.fail_rule})"
    return "stuck"


def verdict_of_cli(kind: str, stdout: str) -> list[str]:
    out = []
    for entry in json.loads(stdout)["rules"]:
        if entry.get("outcome") == "error":
            out.append(f"error:{entry['error']['kind']}")
        elif kind == "check":
            out.append("well-typed")
        elif kind == "infer":
            out.append("ok")
        else:
            result = entry["result"]
            out.append(f"failed({entry['fail_rule']})" if result == "failed" else result)
    return out


def count(kind: str, path: str, outcomes: list, counters: Counter) -> None:
    """Deterministic per-call counters, taken after the op's spans close."""
    source = Path(path).read_bytes()
    counters["surface.source_bytes"] += len(source)
    counters["surface.decls"] += len(parse(source.decode("utf-8")).decls)
    for o in outcomes:
        if isinstance(o, InferError):
            counters["infer.errors"] += 1
            continue
        if kind == "check":
            if isinstance(o, checker.WellTyped):
                counters["checker.derivation_nodes"] += sum(1 for _ in o.derivation.walk())
            else:
                counters["checker.rejected"] += 1
            continue
        result = o if kind == "infer" else o[0]
        counters["infer.constraints"] += len(result.constraints)
        for node in result.derivation.walk():
            counters["infer.derivation_nodes"] += 1
            counters["infer.stored_constraints"] += len(node.constraints or ())
        if kind == "solve":
            outcome = o[1]
            counters["solver.steps"] += len(outcome.trace)
            for step in outcome.trace:
                counters[f"solver.steps.{step.rule}"] += 1
            if isinstance(outcome, solver.Failed):
                counters[f"solver.failed.{outcome.fail_rule}"] += 1
            else:
                counters["solver." + solve_verdict(outcome)] += 1


# ---------------------------------------------------------------------------

def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    ops = job["ops"]
    result: dict = {"attempted": 0, "failed": 0, "mismatches": [], "errors": []}

    def execute(op) -> tuple[int | None, int, str, str | None]:
        code, ns, stdout, error = run_cli(op["kind"], op["path"])
        result["attempted"] += 1
        if error is not None:
            result["failed"] += 1
            if len(result["errors"]) < 20:
                result["errors"].append(f"{op['id']}: {error}")
        return code, ns, stdout, error

    reference = []
    for op in ops:
        code, _, stdout, error = execute(op)
        reference.append({"code": code, "stdout": stdout, "error": error})
    result["reference"] = reference

    def same(i: int, code, stdout) -> None:
        if (code, stdout) != (reference[i]["code"], reference[i]["stdout"]):
            if len(result["mismatches"]) < 20:
                result["mismatches"].append(ops[i]["id"])

    # Each pass runs pinned to the next allowed CPU in turn.  Interference
    # from other work on the host comes in spells, often on one CPU at a
    # time, so that a spell then slows only some of an op's runs.
    cpus = sorted(os.sched_getaffinity(0))

    def pin(k: int) -> None:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})

    times: list[list[int]] = [[] for _ in ops]
    deadline = time.monotonic() + job["seconds"]
    passes = 0
    if job["mode"] == "timed":
        result["pass_ns"] = []
        while passes < job["min_passes"] or time.monotonic() < deadline:
            pin(passes)
            # Every other pass runs backwards, so that each op's runs are
            # spread unevenly in time rather than one pass length apart.
            order = range(len(ops)) if passes % 2 == 0 else range(len(ops) - 1, -1, -1)
            start = now()
            for i in order:
                code, ns, stdout, _ = execute(ops[i])
                times[i].append(ns)
                same(i, code, stdout)
            result["pass_ns"].append(now() - start)
            passes += 1
    else:
        rec, null = Recorder(), NullRecorder()
        replay_ns: list[list[int]] = [[] for _ in ops]
        traced_ns: list[list[int]] = [[] for _ in ops]
        pass_counters = []
        op_of_seq: list[int] = []

        def untraced(i: int, kind: str, path: str) -> None:
            t0 = now()
            replay(kind, path, null)
            replay_ns[i].append(now() - t0)

        def traced(i: int, kind: str, path: str) -> list:
            rec.op = len(op_of_seq)
            op_of_seq.append(i)
            t0 = now()
            outcomes = replay(kind, path, rec)
            t1 = now()
            rec.spans.append((f"op.{kind}", t0, t1, rec.op, None))
            traced_ns[i].append(t1 - t0)
            return outcomes

        while passes < max(2, job["min_passes"]) or time.monotonic() < deadline:
            counters: Counter = Counter()
            pin(passes)
            for i, op in enumerate(ops):
                kind, path = op["kind"], op["path"]
                code, ns, stdout, _ = execute(op)
                times[i].append(ns)
                same(i, code, stdout)
                if reference[i]["error"] is not None:
                    continue  # a failed op makes the run wrong; not replayed

                # Alternate which replay goes first, so neither is always
                # the one that finds the caches warm.
                if passes % 2:
                    outcomes = traced(i, kind, path)
                untraced(i, kind, path)
                if not passes % 2:
                    outcomes = traced(i, kind, path)

                if passes == 0 and verdict_of_replay(kind, outcomes) != verdict_of_cli(
                        kind, reference[i]["stdout"]):
                    result["mismatches"].append(f"{op['id']} (replay verdict)")
                count(kind, path, outcomes, counters)
            pass_counters.append(dict(sorted(counters.items())))
            passes += 1
        result["replay_ns"] = replay_ns
        result["traced_ns"] = traced_ns
        result["counters"] = pass_counters
        Path(job["spans_path"]).write_text(
            "\n".join(json.dumps(dict(zip(("name", "start", "end", "op", "parent"), s)))
                      for s in rec.spans) + "\n", encoding="utf-8")
        result["op_of_seq"] = op_of_seq

    result["passes"] = passes
    result["times_ns"] = times
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["results_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
