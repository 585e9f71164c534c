"""Test-support engine: brute-force satisfiability of constraint sets by
backtracking enumeration, exhaustive derivation search over the raw checking
rules, a node-by-node derivation validator, and the seeded random-instance
generators that drive the property suites.
"""

from __future__ import annotations

import random

from .context import Context, SynRank, VariadicRank, validate
from .core import (
    Conj,
    Constraint,
    ConstraintSet,
    DecoratedSort,
    Derivation,
    Eq,
    ListApp,
    Match,
    Rule,
    Sort,
    StarVar,
    Sub,
    Substitution,
    SynApp,
    Term,
    TypeTerm,
    TypeVar,
    Value,
    Var,
    WtType,
    apply_subst,
    conjoin,
    type_vars,
)


class BudgetExceeded(Exception):
    """Raised when enumeration would examine more candidates than allowed."""


# ---------------------------------------------------------------------------
# Ground universe and satisfiability by enumeration

def ground_universe(ctx: Context) -> tuple[DecoratedSort, ...]:
    """The ground universe: each declared sort with the don't-care decoration,
    then every rank codomain.  It is exactly the set of ground types that
    :func:`~ruletypes.context.validate` admits in a typing or a match
    annotation, so a validated context's typings add nothing to it."""
    ranks = (*ctx.syn_ranks.values(), *ctx.var_ranks.values())
    return (*map(DecoratedSort, ctx.sorts), *(rank.codomain for rank in ranks))


def enumerate_solutions(
    ctx: Context,
    constraints: ConstraintSet | list[Constraint],
    budget: int = 1_000_000,
    fixed: dict[int, DecoratedSort] | None = None,
    limit: int | None = None,
) -> list[Substitution]:
    """All total ground assignments to the constraint variables that satisfy
    every constraint.

    The search assigns variables in first-occurrence order and prunes as soon
    as a constraint is fully decided, so it covers the full assignment space
    without materializing it; ``budget`` caps the number of candidate
    extensions examined.  ``fixed`` pins chosen variables before the search
    and ``limit`` stops after that many solutions.
    """
    items = list(dict.fromkeys(constraints))
    universe = ground_universe(ctx)

    order: list[int] = []
    for c in items:
        for side in (c.lhs, c.rhs):
            if isinstance(side, TypeVar) and side.id not in order:
                order.append(side.id)

    assignment: dict[int, DecoratedSort] = {}
    if fixed:
        for var, value in fixed.items():
            if var in order:
                assignment[var] = value

    def value(t: TypeTerm) -> DecoratedSort:
        return assignment[t.id] if isinstance(t, TypeVar) else t

    def holds(c: Constraint) -> bool:
        lhs, rhs = value(c.lhs), value(c.rhs)
        if isinstance(c, Eq):
            return lhs == rhs
        return ctx.subtype_holds(lhs, rhs)

    # Each constraint is checked at the level that assigns the last of its
    # variables; one with none free is checked now.
    todo = [v for v in order if v not in assignment]
    level = {v: i for i, v in enumerate(todo)}
    watches: list[list[Constraint]] = [[] for _ in todo]
    for c in items:
        levels = [level[v] for v in type_vars(c.lhs) | type_vars(c.rhs) if v in level]
        if levels:
            watches[max(levels)].append(c)
        elif not holds(c):
            return []

    solutions: list[Substitution] = []
    examined = 0
    stack = [iter(universe)]  # a depth-first search; per level, the values not yet tried
    while stack:
        if (i := len(stack) - 1) == len(todo):
            stack.pop()
            solutions.append(Substitution({v: assignment[v] for v in order}))
            if limit is not None and len(solutions) >= limit:
                break
            continue
        for u in stack[-1]:
            examined += 1
            if examined > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} candidates")
            assignment[todo[i]] = u
            if all(holds(c) for c in watches[i]):
                stack.append(iter(universe))
                break
        else:
            stack.pop()
    return solutions


# ---------------------------------------------------------------------------
# Exhaustive derivation search over the raw checking rules

def derivation_search(
    ctx: Context,
    e: Term,
    target: DecoratedSort,
    depth: int | None = None,
) -> bool:
    """Backward search over all checking-rule instances, independent of the
    checker's deterministic strategy; ``depth`` bounds only the length of
    coercion chains (structural premises reset it)."""
    if depth is None:
        depth = len(ctx.sorts) + 2
    universe = ground_universe(ctx)
    memo: dict[tuple[Term, DecoratedSort, int], bool] = {}

    def structural(e: Term, target: DecoratedSort) -> bool:
        if isinstance(e, (Var, StarVar)):
            return ctx.sortof(e) == target
        if isinstance(e, SynApp):
            rank = ctx.syn_ranks.get(e.op)
            if rank is None or len(e.args) != len(rank.domain) or rank.codomain != target:
                return False
            return all(search(a, rank.domain[i], depth) for i, a in enumerate(e.args))
        if isinstance(e, ListApp):
            rank = ctx.var_ranks.get(e.op)
            if rank is None or rank.codomain != target:
                return False
            # A spine is typed at its operator's codomain S^f by the list
            # rules only: no coercion reaches S^f from another type.  So the
            # premises down the spine are its arguments', one per element.
            for arg in e.args:
                if ctx.sortof(arg) == rank.codomain:  # T-Merge
                    if not search(arg, rank.codomain, depth):
                        return False
                elif isinstance(arg, StarVar) or not search(arg, rank.elem, depth):  # T-Elem
                    return False
            return True  # the empty list's axiom, or every element's premise
        return False

    def search(e: Term, target: DecoratedSort, k: int) -> bool:
        key = (e, target, k)
        if key in memo:
            return memo[key]
        memo[key] = False  # cut accidental cycles while computing
        found = structural(e, target)
        if not found and k > 0:
            own = ctx.sortof(e)
            if (not found and target.deco.is_any and own is not None
                    and not own.deco.is_any and own.sort == target.sort):
                found = search(e, own, k - 1)
            if not found:
                for u in universe:
                    if u != target and ctx.subtype_holds(u, target) and search(e, u, k - 1):
                        found = True
                        break
        memo[key] = found
        return found

    return search(e, target, depth)


# ---------------------------------------------------------------------------
# Derivation validator: re-check every node against the rule schemas

def validate_derivation(ctx: Context, d: Derivation) -> list[str]:
    """Walk a checking derivation and re-check each node's shape, concluded
    type, and side conditions against its rule schema; an empty list means
    the tree is a genuine derivation."""
    problems: list[str] = []

    def bad(node: Derivation, msg: str) -> None:
        problems.append(f"{node.rule} on {node.subject}: {msg}")

    def expect_ground(node: Derivation) -> DecoratedSort | None:
        if isinstance(node.type, DecoratedSort):
            return node.type
        bad(node, f"expected a ground type, got {node.type}")
        return None

    def visit(node: Derivation) -> bool:
        rule, subject = node.rule, node.subject

        if rule in ("T-Var", "T-SVar"):
            want = Var if rule == "T-Var" else StarVar
            if not isinstance(subject, want):
                bad(node, "subject has the wrong shape")
            elif node.premises:
                bad(node, "leaf rule with premises")
            elif ctx.raw_typing(subject) != node.type:
                bad(node, f"declared typing is {ctx.raw_typing(subject)}, concluded {node.type}")

        elif rule == "T-Fun":
            rank = ctx.syn_ranks.get(subject.op) if isinstance(subject, SynApp) else None
            if rank is None:
                bad(node, "no rank for the operator")
            elif node.type != rank.codomain:
                bad(node, f"conclusion should be {rank.codomain}")
            elif len(node.premises) != len(subject.args):
                bad(node, "premise count differs from argument count")
            else:
                for i, p in enumerate(node.premises):
                    if p.subject != subject.args[i] or p.type != rank.domain[i]:
                        bad(node, f"argument premise {i} malformed")

        elif rule in ("T-Empty", "T-Elem", "T-Merge"):
            rank = ctx.var_ranks.get(subject.op) if isinstance(subject, ListApp) else None
            if rank is None:
                bad(node, "no variadic rank for the operator")
                return False
            if node.type != rank.codomain:
                bad(node, f"conclusion should be {rank.codomain}")
                return False
            if rule == "T-Empty":
                if subject.args or node.premises:
                    bad(node, "empty-list rule applied to a nonempty list")
                return False
            if not subject.args or len(node.premises) != 2:
                bad(node, "list rule needs a last argument and two premises")
                return False
            spine = ListApp(subject.op, subject.args[:-1])
            last = subject.args[-1]
            p_spine, p_last = node.premises
            if p_spine.subject != spine or p_spine.type != rank.codomain:
                bad(node, "leading-sublist premise malformed")
            if p_last.subject != last:
                bad(node, "last-argument premise subject mismatch")
            if rule == "T-Elem":
                if isinstance(last, StarVar):
                    bad(node, "element rule applied to a star variable")
                if ctx.sortof(last) == rank.codomain:
                    bad(node, "element rule applied where the list rule is required")
                if p_last.type != rank.elem:
                    bad(node, f"element premise should conclude {rank.elem}")
            else:
                if ctx.sortof(last) != rank.codomain:
                    bad(node, "merge rule applied where its side condition fails")
                if p_last.type != rank.codomain:
                    bad(node, f"merge premise should conclude {rank.codomain}")

        elif rule == "Sub":
            if len(node.premises) != 1 or node.premises[0].subject != subject:
                bad(node, "subtype step needs one premise on the same term")
                return False
            conclusion = expect_ground(node)
            premise = node.premises[0]
            if premise.rule == "Sub":
                bad(node, "consecutive subtype steps (derivation not in normal form)")
            if conclusion is not None and isinstance(premise.type, DecoratedSort):
                if not ctx.subtype_holds(premise.type, conclusion):
                    bad(node, f"{premise.type} is not below {conclusion}")

        elif rule == "Gen":
            if len(node.premises) != 1 or node.premises[0].subject != subject:
                bad(node, "erasure step needs one premise on the same term")
                return False
            conclusion = expect_ground(node)
            premise = node.premises[0]
            own = ctx.sortof(subject)
            pt = premise.type
            if conclusion is None or not isinstance(pt, DecoratedSort):
                return False
            if not conclusion.deco.is_any or pt.deco.is_any or pt.sort != conclusion.sort:
                bad(node, "erasure must drop a real decoration, keeping the sort")
            if own != pt:
                bad(node, "erasure applies only at the term's own declared type")

        elif rule == "T-Match":
            if not isinstance(subject, Match) or not isinstance(subject.at, DecoratedSort):
                bad(node, "match node needs a ground annotation")
                return False
            if not isinstance(node.type, WtType) or len(node.premises) != 2:
                bad(node, "match concludes wt from two premises")
                return False
            p_pat, p_sub = node.premises
            if p_pat.subject != subject.pattern or p_pat.type != subject.at:
                bad(node, "pattern premise malformed")
            if p_sub.subject != subject.subject or p_sub.type != subject.at:
                bad(node, "subject premise malformed")

        elif rule == "T-Conj":
            if not isinstance(node.type, WtType):
                bad(node, f"conjunction concludes wt, not {node.type}")
            if not isinstance(subject, Conj) or len(node.premises) != len(subject.conds):
                bad(node, "conjunction premises must match the members")
            elif any(p.subject != c for p, c in zip(node.premises, subject.conds)):
                bad(node, "conjunction premise order mismatch")

        elif rule == "T-Rule":
            if not isinstance(node.type, WtType):
                bad(node, f"rule concludes wt, not {node.type}")
            if not isinstance(subject, Rule) or len(node.premises) != 1 + len(subject.actions):
                bad(node, "rule node needs the condition plus one premise per action")
                return False
            if node.premises[0].subject != subject.cond:
                bad(node, "condition premise mismatch")
            for i, action in enumerate(subject.actions):
                p = node.premises[1 + i]
                own = ctx.sortof(action)
                if p.subject != action or own is None or p.type != own:
                    bad(node, f"action premise {i} must conclude the term's declared type")

        else:
            bad(node, "not a checking rule")
        return True

    # Pre-order with a stack, as a list spine nests one premise per element.
    stack = [d]
    while stack:
        node = stack.pop()
        if visit(node):
            stack.extend(reversed(node.premises))
    return problems


# ---------------------------------------------------------------------------
# Instantiation of a solved inference problem for re-checking

def instantiate_for_check(ctx: Context, rule: Rule, subst: Substitution) -> tuple[Context, Rule]:
    """Apply a solution to the inference context's typings and to the rule's
    match annotations, grounding any residual variables with an arbitrary
    universe element, so the checker can re-run the instance."""
    universe = ground_universe(ctx)
    if not universe:
        raise ValueError("cannot ground an instance over an empty universe")
    def ground(tt: TypeTerm) -> DecoratedSort:
        image = apply_subst(subst, tt)
        return image if isinstance(image, DecoratedSort) else universe[0]

    if any(m.at is None for m in rule.matches):
        raise ValueError("instantiation needs materialized annotations")
    ground_ctx = ctx.with_typings(
        var_types={name: ground(tt) for name, tt in ctx.var_types.items()},
        star_types={name: ground(tt) for name, tt in ctx.star_types.items()},
    )
    return ground_ctx, Rule(conjoin([Match(m.pattern, m.subject, ground(m.at)) for m in rule.matches]),
                            rule.actions)


def erase_annotations(rule: Rule) -> Rule:
    """Strip every match annotation so inference allocates fresh variables
    for them."""
    return Rule(conjoin([Match(m.pattern, m.subject, None) for m in rule.matches]), rule.actions)


def strip_typings(ctx: Context) -> Context:
    """The bare signature: sorts, subsort declarations, and ranks, with all
    variable and star-variable typings removed."""
    return ctx.with_typings()


# ---------------------------------------------------------------------------
# Seeded instance generators

class GenParams(Value):
    """Size knobs for the instance generator.

    ``directed`` is the probability of building a rule type-directed (well
    typed by construction, and inside the fragment where a checkable rule's
    constraints stay satisfiable); the rest are unconstrained noise rules.
    ``simple`` restricts to the baseline fragment: no variadic operators, no
    star variables, no subsort edges.
    """

    max_sorts: int = 4
    max_syn_ops: int = 4
    max_vops: int = 2
    max_depth: int = 3
    max_conds: int = 2
    max_actions: int = 2
    simple: bool = False
    directed: float = 0.8


MINIMAL = GenParams(max_sorts=1, max_syn_ops=1, max_vops=0, max_depth=0,
                    max_conds=1, max_actions=0, directed=1.0)


class _InstanceBuilder:
    def __init__(self, rng: random.Random, params: GenParams):
        self.rng = rng
        self.params = params
        self.var_types: dict[str, DecoratedSort] = {}
        self.star_types: dict[str, DecoratedSort] = {}
        self._var_count = 0
        self._star_count = 0
        self._build_signature()

    def _build_signature(self) -> None:
        rng, p = self.rng, self.params
        n_sorts = rng.randint(1, max(1, p.max_sorts))
        self.sorts = [Sort(f"S{i}") for i in range(n_sorts)]
        self.edges: list[tuple[Sort, Sort]] = []
        if not p.simple:
            for i in range(1, n_sorts):
                if rng.random() < 0.7:
                    self.edges.append((self.sorts[i], rng.choice(self.sorts[:i])))

        self.ranks: list[SynRank | VariadicRank] = []
        n_syn = rng.randint(1, max(1, p.max_syn_ops))
        arities = [rng.choice([0, 0, 1, 1, 2]) for _ in range(n_syn)]
        if 0 not in arities:
            arities[-1] = 0  # keep at least one constant so terms bottom out
        for i, arity in enumerate(arities):
            self.ranks.append(SynRank.make(
                f"f{i}",
                [rng.choice(self.sorts) for _ in range(arity)],
                rng.choice(self.sorts),
            ))
        self.vops: list[VariadicRank] = []
        if not p.simple and p.max_vops >= 1:
            for i in range(rng.randint(1, p.max_vops)):
                rank = VariadicRank.make(f"L{i}", rng.choice(self.sorts), rng.choice(self.sorts))
                self.vops.append(rank)
                self.ranks.append(rank)

        self.base_ctx = Context(self.sorts, self.edges, self.ranks)

    # -- helpers ------------------------------------------------------------

    def _descendants(self, s: Sort) -> list[Sort]:
        return [t for t in self.sorts if self.base_ctx.sort_leq(t, s)]

    def _new_var(self, sort: Sort) -> Var:
        name = f"v{self._var_count}"
        self._var_count += 1
        self.var_types[name] = DecoratedSort(sort)
        return Var(name)

    def _var_at_most(self, s: Sort) -> Var:
        fits = [n for n, d in self.var_types.items() if self.base_ctx.sort_leq(d.sort, s)]
        if fits and self.rng.random() < 0.5:
            return Var(self.rng.choice(fits))
        return self._new_var(self.rng.choice(self._descendants(s)))

    def _star_for(self, rank: VariadicRank) -> StarVar:
        fits = [n for n, d in self.star_types.items() if d == rank.codomain]
        if fits and self.rng.random() < 0.5:
            return StarVar(self.rng.choice(fits))
        name = f"w{self._star_count}"
        self._star_count += 1
        self.star_types[name] = rank.codomain
        return StarVar(name)

    def _ops_into(self, s: Sort) -> list[SynRank]:
        return [r for r in self.ranks
                if isinstance(r, SynRank) and self.base_ctx.sort_leq(r.codomain.sort, s)]

    def _vops_into(self, s: Sort) -> list[VariadicRank]:
        return [r for r in self.vops if self.base_ctx.sort_leq(r.codomain.sort, s)]

    # -- type-directed construction ------------------------------------------

    def checked_term(self, s: Sort, depth: int) -> Term:
        rng = self.rng
        if depth > 0 and rng.random() < 0.6:
            syn = self._ops_into(s)
            vop = self._vops_into(s)
            apps: list[SynRank | VariadicRank] = list(syn) + list(vop)
            if apps:
                rank = rng.choice(apps)
                if isinstance(rank, SynRank):
                    return SynApp(rank.op, tuple(
                        self.checked_term(d.sort, depth - 1) for d in rank.domain))
                return self.list_term(rank, depth - 1)
        return self._var_at_most(s)

    def list_term(self, rank: VariadicRank, depth: int) -> ListApp:
        rng = self.rng
        args: list[Term] = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3:
                args.append(self._star_for(rank))
            elif roll < 0.45 and depth > 0:
                args.append(self.list_term(rank, depth - 1))
            else:
                args.append(self.checked_term(rank.elem.sort, max(0, depth - 1)))
        return ListApp(rank.op, tuple(args))

    def natural_app(self, depth: int) -> tuple[Term, DecoratedSort]:
        rng = self.rng
        choices: list[SynRank | VariadicRank] = [r for r in self.ranks if isinstance(r, SynRank)]
        choices += self.vops
        rank = rng.choice(choices)
        if isinstance(rank, SynRank):
            term: Term = SynApp(rank.op, tuple(
                self.checked_term(d.sort, max(0, depth - 1)) for d in rank.domain))
        else:
            term = self.list_term(rank, depth)
        return term, rank.codomain

    def directed_match(self) -> Match:
        rng, p = self.rng, self.params
        has_apps = any(isinstance(r, SynRank) for r in self.ranks) or self.vops
        if not has_apps or rng.random() < 0.5:
            subject_sort = rng.choice(self.sorts)
            subject: Term = self._var_at_most(subject_sort)
            subject_sort = self.var_types[subject.name].sort
            pattern = self.checked_term(subject_sort, p.max_depth)
            ann = rng.choice(self.base_ctx.supersort_chain(subject_sort))
        else:
            subject, natural = self.natural_app(p.max_depth)
            # Same head operator on the pattern side keeps the subject's
            # pinned decorated type reachable from the pattern's.
            if isinstance(subject, SynApp):
                rank = self.base_ctx.syn_ranks[subject.op]
                pattern = SynApp(rank.op, tuple(
                    self.checked_term(d.sort, p.max_depth - 1) for d in rank.domain))
            else:
                rank = self.base_ctx.var_ranks[subject.op]
                pattern = self.list_term(rank, p.max_depth)
            ann = rng.choice(self.base_ctx.supersort_chain(natural.sort))
        return Match(pattern, subject, DecoratedSort(ann))

    # -- unconstrained construction -------------------------------------------

    def random_term(self, depth: int) -> Term:
        rng = self.rng
        roll = rng.random()
        syn = [r for r in self.ranks if isinstance(r, SynRank)]
        if depth > 0 and roll < 0.35 and syn:
            rank = rng.choice(syn)
            return SynApp(rank.op, tuple(self.random_term(depth - 1) for _ in rank.domain))
        if depth > 0 and roll < 0.55 and self.vops:
            rank = rng.choice(self.vops)
            args: list[Term] = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.3:
                    args.append(self._star_for(rank))
                else:
                    args.append(self.random_term(depth - 1))
            return ListApp(rank.op, tuple(args))
        return self._var_at_most(rng.choice(self.sorts))

    def noise_match(self) -> Match:
        depth = self.params.max_depth
        return Match(
            self.random_term(depth),
            self.random_term(depth),
            DecoratedSort(self.rng.choice(self.sorts)),
        )

    # -- assembly --------------------------------------------------------------

    def build(self) -> tuple[Context, Rule]:
        rng, p = self.rng, self.params
        directed = rng.random() < p.directed
        make = self.directed_match if directed else self.noise_match
        cond = conjoin([make() for _ in range(rng.randint(1, max(1, p.max_conds)))])

        actions: list[Term] = []
        names = list(self.var_types)
        for _ in range(rng.randint(0, p.max_actions)):
            if names and rng.random() < 0.7:
                actions.append(Var(rng.choice(names)))
            else:
                term, _ = self.natural_app(1)
                actions.append(term)

        return self.base_ctx.with_typings(self.var_types, self.star_types), Rule(cond, tuple(actions))


def gen_instance(seed: int, params: GenParams = GenParams()) -> tuple[Context, Rule]:
    """Deterministic pseudo-random well-formed signature and rule; the same
    seed and parameters always reproduce the same instance."""
    rng = random.Random(seed)
    instance = _InstanceBuilder(rng, params).build()
    assert not validate(instance[0], [instance[1]]), "generator produced an ill-formed instance"
    return instance


def gen_constraints(seed: int, max_vars: int = 5, max_constraints: int = 8) -> tuple[Context, ConstraintSet]:
    """A small random context together with a raw random constraint set,
    exercising solver paths that generated rule constraints rarely reach."""
    rng = random.Random(seed)
    builder = _InstanceBuilder(rng, GenParams(max_conds=1, max_actions=0))
    ctx = builder.base_ctx
    universe = ground_universe(ctx)
    n_vars = rng.randint(1, max_vars)

    def side() -> TypeTerm:
        if rng.random() < 0.55:
            return TypeVar(rng.randint(1, n_vars))
        return rng.choice(universe)

    out: list[Constraint] = []
    for _ in range(rng.randint(1, max_constraints)):
        lhs, rhs = side(), side()
        out.append(Eq(lhs, rhs) if rng.random() < 0.5 else Sub(lhs, rhs))
    return ctx, ConstraintSet(out)
