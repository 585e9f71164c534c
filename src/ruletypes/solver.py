"""Constraint resolution: decides satisfiability of a constraint set under a
context by interleaving the failure-detection scan with the numbered
simplification rules.

Each step first scans for the five failure patterns, then applies the
lowest-numbered resolution rule that matches, at its first match in
insertion order, touching only the constraints it consumes, produces or
rewrites.  No step hashes a term's fields: the engine works on integer
codes, the tags of hash-consing (Filliâtre and Conchon).  In one ``solve``
α_k is ``2k`` (k < 2^39), the i-th ground type met ``2i+1``, a constraint
``((l << 40 | r) << 1) | is_sub``; subtyping and joins are memoized by codes.

- **Stable slots.**  Each distinct constraint keeps a slot, with its key,
  sides and kind in arrays; the input fills them in order, so each bucket
  starts as appends.  A rule's product takes its first consumed slot, and
  of two equal constraints the lower slot survives.  Bounds sit in sorted
  per-variable buckets, and once patterns (1)–(3) have passed, every pair
  in a bucket qualifies: rules (6), (7) and (9)–(12) fire on bucket heads.
- **One heap of candidates** ``(rule, slot, β or partner slot)``, checked at
  the top: the loop consumes a live one of (1)–(5) inline and drops stale
  ones as they surface.  Rules (1)–(5) are pushed on placing; once the top
  is (6) or above, the loop pushes those of (6)–(14) on what changed since,
  except on buckets emptied since.  The heap and the occurrence sets are
  built in one pass once the first failure scan has passed.
- **A binding rewrites in place.**  The bound variable leaves the set with
  its buckets and occurrences; each slot it occurs in keeps its index, and
  only its key, sides and kind change.  Only the image variable gains the
  slot as an occurrence; a chain also leaves its bucket under its other
  variable, and placing files the slot as what it has become.  Skipping a
  removal and insertion loses no candidate: one becomes eligible only when
  a slot is placed, which the rewrite does, or when an occurrence set
  shrinks to one, which only a removal does, and both still push.
- **The failure scan** pairs the bounds and failing slots filled since the
  last scan, the only ones it reads, with their bucket partners, and takes
  the smallest failing pair; with none filled, it does not run.
- **The trace is built when read**: ``trace`` decodes the step log, a tuple
  of ints per step, through a per-solve constraint cache seeded with the
  input's.  The witness and the residual are decoded at the end.  σ is
  read off the log back to front: a bound variable leaves the set, so each
  image resolves through later bindings alone, and σ comes out normal.

The trace is that of a rescan of the whole list at every step, which the
tests check against a reference copy.  Every step lowers the degree.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from typing import Iterable, Union

from .context import Context
from .core import Constraint, ConstraintSet, DecoratedSort, Eq, Sub, Substitution, TypeTerm, TypeVar, Value


class TraceStep(Value):
    """One applied resolution rule: its number, what it consumed and
    produced, any binding it recorded, and the degree left behind."""

    rule: str
    consumed: tuple[Constraint, ...]
    produced: tuple[Constraint, ...]
    bound: tuple[tuple[int, TypeTerm], ...]
    degree_after: tuple[int, int]


class _Logged(Value):
    """Base of the outcomes, whose ``trace`` decodes the step log of ``solve`` on first read."""

    @cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        log, grounds, cache = self._log
        dec = partial(_constraint, grounds, cache)
        return tuple(TraceStep(str(rule), (dec(first),) if second < 0 else (dec(first), dec(second)),
                               () if made < 0 else (dec(made),),
                               () if var < 0 else ((var >> 1, _term(grounds, image)),), (n, nsub))
                     for rule, first, second, made, var, image, n, nsub in log)


class Solved(_Logged):
    subst: Substitution
    trace: tuple[TraceStep, ...]


class Failed(_Logged):
    fail_rule: int
    witness: tuple[Constraint, ...]
    trace: tuple[TraceStep, ...]


class Stuck(_Logged):
    residual: ConstraintSet
    trace: tuple[TraceStep, ...]


SolveOutcome = Union[Solved, Failed, Stuck]


def degree(constraints: Iterable[Constraint]) -> tuple[int, int]:
    """The termination measure: (number of constraints, number of subtype constraints)."""
    items = list(constraints)
    return len(items), sum(1 for c in items if isinstance(c, Sub))


# A slot's kind: 0 when empty, 1–5 the rule that consumes it alone, -4 and -5
# the failure pattern it hits alone, or a bound, whose bucket is kind - 6.
_LOWER, _UPPER, _CHAIN = 6, 7, 8
# Rules that consume a pair meeting at a variable β: the buckets of β (0 lower,
# 1 upper, 2 chain by its α, 3 chain by its β) their first and second consumed
# constraints come from.  Rules (6) and (7) take the first two of one bucket.
_PAIRS = {6: (0, 0), 7: (1, 1), 9: (3, 2), 10: (0, 2), 11: (3, 1), 12: (0, 1)}
_TOUCHING = [[rule for rule, homes in _PAIRS.items() if bucket in homes] for bucket in range(4)]
_SIDE = (1 << 40) - 1  # a key's right side, after its Sub bit


def _homes(kind: int, l: int, r: int) -> tuple[tuple[int, int], ...]:
    return ((2, l), (3, r)) if kind == _CHAIN else ((0, r),) if kind == _LOWER else ((1, l),)


def _term(grounds: list[DecoratedSort], code: int) -> TypeTerm:
    return grounds[code >> 1] if code & 1 else TypeVar(code >> 1)


def _constraint(grounds: list[DecoratedSort], cache: dict[int, Constraint], key: int) -> Constraint:
    c = cache.get(key)
    if c is None:
        c = cache[key] = (Sub if key & 1 else Eq)(_term(grounds, key >> 41), _term(grounds, key >> 1 & _SIDE))
    return c


class _State:
    """The work list as stable slots and its indexes: the live constraints are the keys of ``where``.
    ``fresh``: the bounds and failing slots filled since the last failure scan; ``dirty``,
    ``pending``: the buckets and bound slots changed since the last refresh."""

    def __init__(self, ctx: Context, constraints: Iterable[Constraint]):
        self.ctx = ctx
        # Ground types by code, codes by ground, constraints by key, holds and common by codes.
        self.grounds, self.codes, self.cache, self.memo = [], {}, {}, {}
        keys, L, R, K = self.keys, self.L, self.R, self.K = [], [], [], []
        where, fresh = self.where, self.fresh = {}, []
        self.occ, self.heap, self.dirty, self.pending, self.log = defaultdict(set), [], set(), [], []
        lower, upper, by_l, by_r = self.buckets = {}, {}, {}, {}  # variable → sorted slots
        code, codes, cache, holds, nsub = self.code, self.codes, self.cache, self.holds, 0
        for c in constraints:  # slots are numbered in order, so a bucket takes an append
            l, r = c
            l = l.id << 1 if l.__class__ is TypeVar else codes.get(l) or code(l)
            r = r.id << 1 if r.__class__ is TypeVar else codes.get(r) or code(r)
            if (l | r) > _SIDE:
                raise ValueError(f"type variable ids must be below 2^39: {c}")
            sub = c.__class__ is Sub
            if (key := (l << 40 | r) << 1 | sub) in where:
                continue
            s = where[key] = len(keys)
            cache[key], nsub = c, nsub + sub
            keys.append(key)
            L.append(l)
            R.append(r)
            if l == r:
                kind = 2 if sub else 1
            elif not sub:
                kind = 4 if not l & 1 else 5 if not r & 1 else -5
            elif not l & 1:
                kind = _CHAIN if not r & 1 else _UPPER
            else:
                kind = _LOWER if not r & 1 else 3 if holds(l, r) else -4
            K.append(kind)
            if kind == _CHAIN:
                by_l.setdefault(l, []).append(s)
                by_r.setdefault(r, []).append(s)
            elif kind >= _LOWER or kind < 0:  # what the scan reads
                fresh.append(s)
                if kind == _LOWER:
                    lower.setdefault(r, []).append(s)
                elif kind == _UPPER:
                    upper.setdefault(l, []).append(s)
        self.nsub = nsub

    def code(self, ground: DecoratedSort) -> int:
        c = self.codes.get(ground)  # decorated sorts are interned: an identity hash
        if c is None:
            c = self.codes[ground] = len(self.grounds) << 1 | 1
            self.grounds.append(ground)
        return c

    def holds(self, a: int, b: int) -> bool:
        if (key := a << 41 | b << 1) not in self.memo:
            self.memo[key] = self.ctx.subtype_holds(self.grounds[a >> 1], self.grounds[b >> 1])
        return self.memo[key]

    def common(self, a: int, b: int) -> DecoratedSort | None:
        if (key := a << 41 | b << 1 | 1) not in self.memo:
            self.memo[key] = self.ctx.common_supersort(self.grounds[a >> 1], self.grounds[b >> 1])
        return self.memo[key]

    def _place(self, s: int, key: int) -> None:
        """Fill slot ``s`` with ``key`` and index it for the scan and the steps, all but its occurrences."""
        l, r, sub = key >> 41, key >> 1 & _SIDE, key & 1
        self.keys[s], self.L[s], self.R[s], self.where[key] = key, l, r, s
        if l == r:
            kind = 2 if sub else 1
        elif not sub:
            kind = 4 if not l & 1 else 5 if not r & 1 else -5
        elif not l & 1:
            kind = _CHAIN if not r & 1 else _UPPER
        else:
            kind = _LOWER if not r & 1 else 3 if self.holds(l, r) else -4
        self.K[s] = kind
        if kind == _LOWER or kind == _UPPER or kind < 0:  # what the scan reads
            self.fresh.append(s)
        if kind >= _LOWER:
            for home in _homes(kind, l, r):
                insort(self.buckets[home[0]].setdefault(home[1], []), s)
                self.dirty.add(home)
            self.pending.append(s)
        elif kind > 0:
            heappush(self.heap, (kind, s, 0))

    def _remove(self, s: int) -> None:
        key, kind, l, r = self.keys[s], self.K[s], self.L[s], self.R[s]
        del self.where[key]
        self.K[s], self.nsub = 0, self.nsub - (key & 1)
        if kind >= _LOWER:
            for home in _homes(kind, l, r):
                bucket = self.buckets[home[0]].get(home[1])  # none for the variable being bound
                if bucket is not None:
                    del bucket[bisect_left(bucket, s)]
                    self.dirty.add(home)
        for v in (l, r):
            occ = self.occ.get(v)  # none for a ground, or for the variable being bound
            if occ is not None:
                occ.discard(s)
                if len(occ) == 1:  # the last occurrence may now fire (13)/(14)
                    self.pending.extend(occ)

    def _insert(self, s: int, key: int) -> None:
        """Place ``key`` at slot ``s`` unless it already sits in a lower one."""
        m = self.where.get(key)
        if m is not None:
            if m < s:
                return
            self._remove(m)
        self._place(s, key)
        self.nsub += key & 1
        for v in (self.L[s], self.R[s]):
            if not v & 1:
                self.occ[v].add(s)

    def _pair(self, rule: int, v: int) -> tuple[int, int] | None:
        a, b = _PAIRS[rule]
        first, second, same = self.buckets[a].get(v, ()), self.buckets[b].get(v, ()), a == b
        return (first[0], second[same]) if first and len(second) > same else None

    def _refresh(self) -> None:
        """Push the candidates of (6)–(14) on what changed since the last push."""
        heap, K, L, R, occ, buckets = self.heap, self.K, self.L, self.R, self.occ, self.buckets
        for bucket, v in self.dirty:
            for rule in _TOUCHING[bucket] if buckets[bucket].get(v) else ():  # an emptied bucket has no pair
                if (pair := self._pair(rule, v)) is not None:
                    heappush(heap, (rule, pair[0], v))
        self.dirty.clear()
        for s in self.pending:
            kind, l, r = K[s], L[s], R[s]
            if kind < _LOWER:
                continue
            m = self.where.get((r << 40 | l) << 1 | 1)
            if m is not None:
                heappush(heap, (8, min(s, m), max(s, m)))
            if kind != _LOWER and len(occ[l]) == 1:
                heappush(heap, (13, s, 0))
            if kind != _UPPER and len(occ[r]) == 1:
                heappush(heap, (14, s, 0))
        self.pending.clear()

    def _match(self, rule: int, s: int, v: int) -> tuple[int, ...] | None:
        """The slots ``rule`` (6 or above) consumes on the candidate ``(s, v)``; ``None`` when it is stale."""
        kind = self.K[s]
        if rule in _PAIRS:
            pair = self._pair(rule, v)
            return pair if pair is not None and pair[0] == s else None
        if rule == 8:
            ok = kind >= _LOWER and self.K[v] >= _LOWER and self.L[s] == self.R[v] and self.R[s] == self.L[v]
            return (s, v) if ok else None
        side, kinds = (self.L, (_UPPER, _CHAIN)) if rule == 13 else (self.R, (_LOWER, _CHAIN))
        return (s,) if kind in kinds and len(self.occ[side[s]]) == 1 else None

    def failure(self) -> tuple[int, tuple[int, ...]] | None:
        """The first failure pattern that a pair involving a fresh slot hits,
        with the lexicographically smallest such pair of slots."""
        K, L, R, (lower, upper, _, _), holds, common = self.K, self.L, self.R, self.buckets, self.holds, self.common
        found = []  # (pattern, slots)
        for s in self.fresh:
            kind = K[s]
            if kind == _LOWER:
                v, a = R[s], L[s]
                found += [(1, (s, j)) for j in upper.get(v, ()) if not holds(a, R[j])]
                found += [(2, (min(s, k), max(s, k))) for k in lower[v] if k != s and common(a, L[k]) is None]
            elif kind == _UPPER:
                v, a = L[s], R[s]
                found += [(1, (i, s)) for i in lower.get(v, ()) if not holds(L[i], a)]
                found += [(3, (min(s, k), max(s, k))) for k in upper[v]
                          if k != s and not holds(a, R[k]) and not holds(R[k], a)]
            elif kind < 0:
                found.append((-kind, (s,)))
        self.fresh.clear()
        return min(found) if found else None

    def decode(self, slots: Iterable[int]) -> tuple[Constraint, ...]:
        return tuple(_constraint(self.grounds, self.cache, self.keys[s]) for s in slots)

    def subst(self) -> Substitution:
        """σ, read off the log back to front: normal already (see the module docstring)."""
        sigma: dict[int, int] = {}  # by codes
        for _, _, _, _, var, image, _, _ in reversed(self.log):
            if var >= 0:
                sigma[var] = sigma.get(image, image)
        return Substitution._unchecked({var >> 1: _term(self.grounds, image) for var, image in sigma.items()})


def detect_failure(ctx: Context, constraints: Iterable[Constraint]) -> tuple[int, tuple[Constraint, ...]] | None:
    """Scan for the five unsatisfiability patterns; the first hit, in rule
    order then insertion order, is returned with its witness constraints."""
    hit = (state := _State(ctx, constraints)).failure()
    return None if hit is None else (hit[0], state.decode(hit[1]))


def solve(ctx: Context, constraints: ConstraintSet | Iterable[Constraint]) -> SolveOutcome:
    """Run the resolution loop to completion.

    Returns ``Solved`` with the accumulated substitution (normalized; the
    rules bind only variables of the input) when the set empties, ``Failed``
    with the failure rule and witness when a detection pattern fires, and
    ``Stuck`` with the residual set if no rule applies.
    """
    hit = (state := _State(ctx, constraints)).failure()
    heap, K, L, R, keys, where, occ = state.heap, state.K, state.L, state.R, state.keys, state.where, state.occ
    buckets, fresh, pending, dirty, log = state.buckets, state.fresh, state.pending, state.dirty, state.log
    if hit is None:  # index the slots for the steps
        for s, kind in enumerate(K):
            if kind >= _LOWER:
                pending.append(s)
            elif kind > 0:
                heap.append((kind, s, 0))
            for v in (L[s], R[s]):
                if not v & 1:
                    occ[v].add(s)
        heapify(heap)
        dirty.update((b, v) for b, bucket in enumerate(buckets) for v in bucket)
    while hit is None and where:
        if heap and heap[0][0] < 6:  # rules (1)–(5): a live candidate is consumed here, a stale one dropped
            rule, ci, _ = heappop(heap)
            if K[ci] != rule:
                continue
            key, l, r = keys[ci], L[ci], R[ci]
            del where[key]
            K[ci], state.nsub = 0, state.nsub - (key & 1)
            var, image = (l, r) if rule == 4 else (r, l) if rule == 5 else (-1, 0)
            if not r & 1 and r != var:  # the occurrence it leaves; the bound variable's go below
                (left := occ[r]).discard(ci)
                if len(left) == 1:
                    pending.extend(left)
            entry = (rule, key, -1, -1, var, image)
        else:
            state._refresh()
            while heap and (slots := state._match(*heap[0])) is None:
                heappop(heap)
            if not heap:
                outcome = Stuck._unchecked(ConstraintSet(state.decode(s for s, kind in enumerate(K) if kind)))
                break
            rule = heappop(heap)[0]
            ci, cj = slots[0], slots[-1]
            label, made, var, image = rule, -1, -1, 0  # the label as ``trace`` prints it, after ``str``
            if rule == 13:
                var, image = L[ci], R[ci]
            elif rule == 14:
                var, image = R[ci], L[ci]
            elif rule == 6:
                made = (state.code(state.common(L[ci], L[cj])) << 40 | R[ci]) << 1 | 1
            elif rule == 7:
                label, made = ("7a", keys[ci]) if state.holds(R[ci], R[cj]) else ("7b", keys[cj])
            elif rule == 8:
                made = (L[ci] << 40 | R[ci]) << 1
            elif rule > 8:
                made = (L[ci] << 40 | R[cj]) << 1 | 1
                var, image = R[ci], L[ci] if rule == 11 else R[cj]
            entry = (label, keys[ci], keys[cj] if cj != ci else -1, made, var, image)
            for s in slots:
                state._remove(s)
            if made >= 0:
                state._insert(min(slots), made)
        if var >= 0:
            for bucket in buckets:  # the variable leaves the set, and so do its buckets
                if var in bucket:
                    del bucket[var]
            for s in occ.pop(var, ()):  # rewrite each occurrence in place
                if not (kind := K[s]):
                    continue
                key, l, r = keys[s], L[s], R[s]
                new = ((image if l == var else l) << 40 | (image if r == var else r)) << 1 | key & 1
                if (m := where.get(new)) is not None:
                    state._remove(max(m, s))  # of two equal constraints, the lower slot survives
                    if m < s:
                        continue
                del where[key]
                if kind == _CHAIN:  # it leaves its bucket on the other side too
                    home = (3, r) if l == var else (2, l)
                    bucket = buckets[home[0]][home[1]]
                    del bucket[bisect_left(bucket, s)]
                    dirty.add(home)
                state._place(s, new)
                if not image & 1:
                    occ[image].add(s)
        log.append(entry + (len(where), state.nsub))
        if fresh:
            hit = state.failure()
    else:
        outcome = Failed._unchecked(hit[0], state.decode(hit[1])) if hit is not None else Solved._unchecked(
            state.subst())
    object.__setattr__(outcome, "_log", (log, state.grounds, state.cache))  # the trace, undecoded
    return outcome
