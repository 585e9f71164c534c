"""Constraint resolution: decides satisfiability of a constraint set under a
context by interleaving the failure-detection scan with the numbered
simplification rules.

Each step first scans for the five failure patterns, then applies the
lowest-numbered resolution rule that matches, at its first match in
insertion order.  The engine is incremental: a step touches only the
constraints it consumes, produces or rewrites.

- **Stable slots.**  After the initial deduplication every constraint keeps
  its position as a slot number.  A rule produces at most one constraint,
  which takes the first consumed slot, so slot order is the insertion order
  of the work list.  When two constraints become equal the lower slot
  survives.
- **Maintained indexes.**  Ground lower bounds ``S <: α``, ground upper
  bounds ``α <: S`` and variable bounds ``α <: β`` sit in sorted per-variable
  buckets (the last also by ``β``), every variable has the set of slots it
  occurs in, and each rule has a queue of candidate first slots, checked
  against the indexes when read.
- **Fresh-slot failure scan.**  The previous scan found nothing, so a new
  failing pair involves a constraint placed since then: a *fresh* slot.  The
  scan pairs only fresh slots with their bucket partners and takes the
  lexicographically smallest failing pair of each pattern, which is the
  witness of a nested scan over every pair.
- **Bindings rewrite only their occurrences.**  A binding ``α ↦ t``
  rewrites the slots in α's occurrence set, each in place.

Once patterns (1)–(3) have passed, every pair in a bucket qualifies, so
rules (6), (7) and (9)–(12) fire on bucket heads.  The trace is identical to
that of a rescan of the whole list at every step, which the tests check
against a reference copy of it.  Every applied rule removes at least one
constraint: the (total, subtype-count) degree decreases lexicographically at
every step.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from heapq import heappop, heappush
from typing import Iterable, Union

from .context import Context
from .core import (
    Constraint,
    ConstraintSet,
    Eq,
    GroundType,
    Sub,
    Substitution,
    TypeTerm,
    TypeVar,
    Value,
)


class TraceStep(Value):
    """One applied resolution rule: its number, what it consumed and
    produced, any binding it recorded, and the degree left behind."""

    rule: str
    consumed: tuple[Constraint, ...]
    produced: tuple[Constraint, ...]
    bound: tuple[tuple[int, TypeTerm], ...]
    degree_after: tuple[int, int]


class Solved(Value):
    subst: Substitution
    trace: tuple[TraceStep, ...]


class Failed(Value):
    fail_rule: int
    witness: tuple[Constraint, ...]
    trace: tuple[TraceStep, ...]


class Stuck(Value):
    residual: ConstraintSet
    trace: tuple[TraceStep, ...]


SolveOutcome = Union[Solved, Failed, Stuck]


def degree(constraints: Iterable[Constraint]) -> tuple[int, int]:
    """The termination measure: (number of constraints, number of subtype
    constraints)."""
    items = list(constraints)
    return len(items), sum(1 for c in items if isinstance(c, Sub))


# Rules that consume a pair meeting at a variable β: the buckets of β their
# first and second consumed constraints come from.  Rules (6) and (7) take
# the first two entries of one bucket.
_PAIRS = {"6": ("lower", "lower"), "7": ("upper", "upper"), "9": ("chain_in", "chain"),
          "10": ("lower", "chain"), "11": ("chain_in", "upper"), "12": ("lower", "upper")}
_RULES = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14")
_BOUNDS = ("lower", "upper", "chain")


def _kind(ctx: Context, c: Constraint) -> str:
    """The shape of a constraint: the rule (1)–(5) that consumes it alone,
    the failure pattern (``f4``/``f5``) it fails alone, or its bucket."""
    lhs, rhs = c.lhs, c.rhs
    left, right, eq = isinstance(lhs, TypeVar), isinstance(rhs, TypeVar), isinstance(c, Eq)
    if left != right:
        return ("4" if left else "5") if eq else "upper" if left else "lower"
    if lhs == rhs:
        return "1" if eq else "2"
    if eq:
        return "4" if left else "f5"
    if left:
        return "chain"
    return "3" if ctx.subtype_holds(lhs.dsort, rhs.dsort) else "f4"


def _homes(kind: str, c: Constraint) -> tuple[tuple[str, int], ...]:
    """The (bucket, variable) entries that hold a bound of this kind."""
    if kind == "chain":
        return ("chain", c.lhs.id), ("chain_in", c.rhs.id)
    return ((kind, c.rhs.id if kind == "lower" else c.lhs.id),)


class _State:
    """The work list as stable slots, with its buckets and occurrence sets
    kept up to date on every add and remove.  ``items[s]`` is ``None`` once
    slot ``s`` is empty, and ``fresh`` lists the slots filled since the last
    failure scan.

    Each rule has a heap of candidates ``(first slot, β or partner slot)``
    that may be stale; ``step`` drops stale heads.  Rules (1)–(5) are queued
    on add.  The other queues are brought up to date only when the search
    reaches them: rules (6), (7) and (9)–(12) from the ``dirty`` buckets,
    rules (8), (13) and (14) from the ``pending`` bound slots."""

    def __init__(self, ctx: Context, constraints: Iterable[Constraint]):
        self.ctx = ctx
        self.items: list[Constraint | None] = list(dict.fromkeys(constraints))
        self.kinds: list[str | None] = [None] * len(self.items)
        self.where: dict[Constraint, int] = {}
        self.buckets: dict[str, dict[int, list[int]]] = {
            name: defaultdict(list) for name in ("lower", "upper", "chain", "chain_in")}
        self.occ: dict[int, set[int]] = defaultdict(set)
        self.queues: dict[str, list[tuple[int, int]]] = {rule: [] for rule in _RULES}
        self.n = self.nsub = 0
        self.fresh: list[int] = []
        self.pending: list[int] = []
        self.dirty: set[tuple[str, int]] = set()
        for s, c in enumerate(self.items):
            self._add(s, c)

    def _add(self, s: int, c: Constraint) -> None:
        self.items[s], self.where[c] = c, s
        kind = self.kinds[s] = _kind(self.ctx, c)
        self.n += 1
        self.nsub += isinstance(c, Sub)
        self.fresh.append(s)
        if kind in _BOUNDS:
            self.pending.append(s)
            for home in _homes(kind, c):
                insort(self.buckets[home[0]][home[1]], s)
                self.dirty.add(home)
        elif kind in _RULES:
            heappush(self.queues[kind], (s, 0))
        for t in (c.lhs, c.rhs):
            if isinstance(t, TypeVar):
                self.occ[t.id].add(s)

    def _remove(self, s: int) -> None:
        c, kind = self.items[s], self.kinds[s]
        self.items[s] = self.kinds[s] = None
        del self.where[c]
        self.n -= 1
        self.nsub -= isinstance(c, Sub)
        if kind in _BOUNDS:
            for home in _homes(kind, c):
                bucket = self.buckets[home[0]][home[1]]
                del bucket[bisect_left(bucket, s)]
                self.dirty.add(home)
        for t in (c.lhs, c.rhs):
            if isinstance(t, TypeVar):
                occ = self.occ[t.id]
                occ.discard(s)
                if len(occ) == 1:  # the last occurrence may now fire (13)/(14)
                    self.pending.extend(occ)

    def _insert(self, s: int, c: Constraint) -> None:
        """Place ``c`` at slot ``s`` unless it already sits in a lower one."""
        m = self.where.get(c)
        if m is not None:
            if m < s:
                return
            self._remove(m)
        self._add(s, c)

    def _pair(self, rule: str, v: int) -> tuple[int, int] | None:
        a, b = _PAIRS[rule]
        first, second = self.buckets[a].get(v), self.buckets[b].get(v)
        if a == b:
            return (first[0], first[1]) if first and len(first) > 1 else None
        return (first[0], second[0]) if first and second else None

    def _queue_pairs(self) -> None:
        for name, v in self.dirty:
            for rule, homes in _PAIRS.items():
                if name in homes and (pair := self._pair(rule, v)) is not None:
                    heappush(self.queues[rule], (pair[0], v))
        self.dirty.clear()

    def _queue_bounds(self) -> None:
        queues, items, occ = self.queues, self.items, self.occ
        for s in self.pending:
            c = items[s]
            if c is None or self.kinds[s] not in _BOUNDS:
                continue
            m = self.where.get(Sub(c.rhs, c.lhs))
            if m is not None:
                heappush(queues["8"], (min(s, m), max(s, m)))
            if any(isinstance(t, TypeVar) and len(occ[t.id]) == 1 for t in (c.lhs, c.rhs)):
                heappush(queues["13"], (s, 0))
                heappush(queues["14"], (s, 0))
        self.pending.clear()

    def _match(self, rule: str, s: int, v: int) -> tuple[int, ...] | None:
        """The slots ``rule`` consumes on the queued candidate ``(s, v)``, or
        ``None`` when the candidate is stale."""
        kind = self.kinds[s]
        if rule in _PAIRS:
            pair = self._pair(rule, v)
            return pair if pair is not None and pair[0] == s else None
        if rule == "8":
            a, b = self.items[s], self.items[v]
            ok = kind in _BOUNDS and self.kinds[v] in _BOUNDS and a.lhs == b.rhs and a.rhs == b.lhs
            return (s, v) if ok else None
        if rule == "13":
            return (s,) if kind in ("upper", "chain") and len(self.occ[self.items[s].lhs.id]) == 1 else None
        if rule == "14":
            return (s,) if kind in ("lower", "chain") and len(self.occ[self.items[s].rhs.id]) == 1 else None
        return (s,) if kind == rule else None

    def failure(self) -> tuple[int, tuple[Constraint, ...]] | None:
        """The first failure pattern that a pair involving a fresh slot hits,
        with the lexicographically smallest such pair as its witness."""
        items, kinds, lower, upper = self.items, self.kinds, self.buckets["lower"], self.buckets["upper"]
        holds, common = self.ctx.subtype_holds, self.ctx.common_supersort
        found: list[tuple[int, tuple[int, ...]]] = []
        for s in self.fresh:
            kind = kinds[s]
            if kind == "lower":
                c = items[s]
                v, a = c.rhs.id, c.lhs.dsort
                found += [(1, (s, j)) for j in upper.get(v, ()) if not holds(a, items[j].rhs.dsort)]
                found += [(2, (min(s, k), max(s, k))) for k in lower[v]
                          if k != s and common(a, items[k].lhs.dsort) is None]
            elif kind == "upper":
                c = items[s]
                v, a = c.lhs.id, c.rhs.dsort
                found += [(1, (i, s)) for i in lower.get(v, ()) if not holds(items[i].lhs.dsort, a)]
                found += [(3, (min(s, k), max(s, k))) for k in upper[v] if k != s
                          and not holds(a, items[k].rhs.dsort) and not holds(items[k].rhs.dsort, a)]
            elif kind in ("f4", "f5"):
                found.append((int(kind[1]), (s,)))
        self.fresh.clear()
        if not found:
            return None
        pattern, slots = min(found)
        return pattern, tuple(items[i] for i in slots)

    def step(self) -> TraceStep | None:
        """Apply the lowest-numbered rule at its first match, or return
        ``None`` when no rule applies."""
        for rule in _RULES:
            if rule == "6":
                self._queue_pairs()
            elif rule == "8":
                self._queue_bounds()
            queue = self.queues[rule]
            while queue and (slots := self._match(rule, *queue[0])) is None:
                heappop(queue)
            if queue:
                break
        else:
            return None
        items = self.items
        consumed = tuple(items[i] for i in slots)
        ci, cj = consumed[0], consumed[-1]
        produced: tuple[Constraint, ...] = ()
        binding: tuple[int, TypeTerm] | None = None
        if rule in ("4", "13"):
            binding = (ci.lhs.id, ci.rhs)
        elif rule in ("5", "14"):
            binding = (ci.rhs.id, ci.lhs)
        elif rule == "6":
            produced = (Sub(GroundType(self.ctx.common_supersort(ci.lhs.dsort, cj.lhs.dsort)), ci.rhs),)
        elif rule == "7":
            rule, produced = ("7a", (ci,)) if self.ctx.subtype_holds(ci.rhs.dsort, cj.rhs.dsort) else ("7b", (cj,))
        elif rule == "8":
            produced = (Eq(ci.lhs, ci.rhs),)
        elif rule in _PAIRS:
            produced = (Sub(ci.lhs, cj.rhs),)
            binding = (ci.rhs.id, ci.lhs if rule == "11" else cj.rhs)

        for s in slots:
            self._remove(s)
        for c in produced:
            self._insert(min(slots), c)
        if binding is not None:
            var, image = binding
            for s in list(self.occ.pop(var, ())):
                c = items[s]
                if c is not None:
                    lhs, rhs = c.lhs, c.rhs
                    self._remove(s)
                    self._insert(s, type(c)(image if isinstance(lhs, TypeVar) and lhs.id == var else lhs,
                                            image if isinstance(rhs, TypeVar) and rhs.id == var else rhs))
        return TraceStep(rule, consumed, produced, (binding,) if binding is not None else (),
                         (self.n, self.nsub))


def detect_failure(ctx: Context, constraints: Iterable[Constraint]) -> tuple[int, tuple[Constraint, ...]] | None:
    """Scan for the five unsatisfiability patterns; the first hit, in rule
    order then insertion order, is returned with its witness constraints."""
    return _State(ctx, constraints).failure()


def solve(ctx: Context, constraints: ConstraintSet | Iterable[Constraint]) -> SolveOutcome:
    """Run the resolution loop to completion.

    Returns ``Solved`` with the accumulated substitution (normalized, and
    restricted to the original variables) when the set empties, ``Failed``
    with the failure rule and witness when a detection pattern fires, and
    ``Stuck`` with the residual set if no rule applies.
    """
    state = _State(ctx, constraints)
    original_vars = set(state.occ)
    trace: list[TraceStep] = []

    while state.n:
        hit = state.failure()
        if hit is not None:
            rule, witness = hit
            return Failed(rule, witness, tuple(trace))
        step = state.step()
        if step is None:
            return Stuck(ConstraintSet(c for c in state.items if c is not None), tuple(trace))
        trace.append(step)

    subst = Substitution((v, t) for step in trace for v, t in step.bound if v in original_vars)
    return Solved(subst, tuple(trace))
