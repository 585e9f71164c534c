"""Symbolic values shared by the checker, the inference engine, and the
constraint solver: sorts, decorations, terms, type terms, constraints,
substitutions, and derivation trees.

Every value class of the package derives from :class:`Value`, which writes
each class's constructor, ``==`` and hash once, when the class is made, from
the fields its body annotates.  Values are immutable after construction and
safe to share across threads (a verdict's derivation tree is built on first
read).  Sorts, decorations, decorated sorts and type variables are
hash-consed (:class:`Interned`, a :class:`Value`), in per-class tables
bounded by the names declared and the largest type-variable id; they hash
by identity, and their text and its JSON string literal are computed once.
A ground type term is its decorated sort; a constraint is a pair, hashed in C.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

if TYPE_CHECKING:
    from .context import Context


class Value:
    """Base of the immutable value classes.  A subclass annotates its fields
    in order, a value in its body being the field's default, and gets a
    constructor that calls its ``__post_init__`` if it has one, ``==`` and a
    hash by class and the fields not named in its ``uncompared`` class
    keyword, the dataclass ``repr``, and copy and pickle support through the
    constructor.  The methods of ``_CODE`` and ``_UNCHECKED`` (a value
    without ``__post_init__``, from the fields no ``cached_property``
    computes) are written once per class, for its fields.  A subclass that
    declares ``__slots__`` writes its own constructor and ``_fields``, and
    its ``==`` and hash or keeps ``object``'s."""

    __slots__ = ()
    _CODE = """\
def __init__(self, {params}):
{sets}    {post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {equal}
    return NotImplemented
def __hash__(self):
    return hash(({hashed}))
"""
    _UNCHECKED = """\
@classmethod
def _unchecked(cls, {stored}):
    self = _new(cls)
{set_stored}    return self
"""

    def __init_subclass__(cls, uncompared: tuple[str, ...] = ()) -> None:
        if "__slots__" in cls.__dict__:  # a base with its own constructor: Interned, Constraint
            return
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        compared = [f for f in fields if f not in uncompared]
        stored = [f for f in fields if not isinstance(getattr(cls, f, None), cached_property)]
        methods: dict[str, object] = {}
        # Fields go in through object.__setattr__: writing ``self.__dict__``
        # builds faster but makes reading a field slower ever after.
        exec((cls._CODE + Value._UNCHECKED).format(
            params=", ".join(f"{f}=_d[{f!r}]" if f in defaults else f for f in fields),
            key="".join(f"{f}, " for f in fields),
            sets="".join(f"    _set(self, {f!r}, {f})\n" for f in fields),
            post="self.__post_init__()" if hasattr(cls, "__post_init__") else "pass",
            equal=" and ".join(f"self.{f} == other.{f}" for f in compared) or "True",
            hashed="".join(f"self.{f}, " for f in compared),
            stored=", ".join(stored),
            set_stored="".join(f"    _set(self, {f!r}, {f})\n" for f in stored),
        ), {"_d": defaults, "_set": object.__setattr__, "_new": object.__new__}, methods)
        for key, method in methods.items():
            setattr(cls, key, staticmethod(method) if key == "__new__" else method)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Interned(Value):
    """Base of the hash-consed values: ``Cls(*fields)`` returns the one object
    with those fields, so ``==`` and the hash are ``object``'s, by identity,
    and ``str`` (``_text``) and its JSON string literal (``_json``) are
    computed once.  The table insert is a ``dict.setdefault``, so threads
    racing to make one value all get the object that went in first."""

    __slots__ = ("_str", "_json")
    _CODE = """\
def __new__(cls, {params}):
    return cls._table[({key})]
"""

    def __init_subclass__(cls) -> None:
        cls._table = _Table(cls)
        super().__init_subclass__()

    def __str__(self) -> str:
        return self._str


class _Table(dict):
    """An interned class's values by their tuples of fields; looking one up makes it."""

    def __init__(self, cls: type[Interned]):
        self.cls = cls

    def __missing__(self, key: tuple) -> Interned:
        obj = self.cls._unchecked(*key)
        object.__setattr__(obj, "_str", obj._text())
        object.__setattr__(obj, "_json", encode_basestring(obj._str))
        return self.setdefault(key, obj)


def interned(cls: type[Interned]) -> Mapping[tuple, Interned]:
    """``cls``'s values by their tuples of fields, made when missing: a hot
    caller keeps it, since ``sorts[(name,)]`` skips the cost of ``Sort(name)``."""
    return cls._table


# ---------------------------------------------------------------------------
# Sorts and decorations

class Sort(Interned):
    """A base sort, compared by name."""

    name: str

    def _text(self) -> str:
        return self.name


class Decoration(Interned):
    """Head-operator decoration on a sort; ``symbol=None`` is the don't-care
    decoration, printed ``?``."""

    symbol: str | None = None

    @property
    def is_any(self) -> bool:
        return self.symbol is None

    def _text(self) -> str:
        return self.symbol if self.symbol is not None else "?"


ANY = Decoration()


# ---------------------------------------------------------------------------
# Type terms: decorated sorts (the ground ones), variables, and the
# well-typed sort

class TypeTerm:
    """Base class for type terms."""

    __slots__ = ()


class DecoratedSort(Interned, TypeTerm):
    """A sort paired with a decoration, e.g. ``Z^l`` or ``N^?``: a ground
    type term."""

    sort: Sort
    deco: Decoration = ANY

    def _text(self) -> str:
        return f"{self.sort}^{self.deco}"

    @property
    def dsort(self) -> DecoratedSort:
        """``self``, for callers written when ground types wrapped it."""
        return self


def dsort(sort_name: str, deco: str | None = None) -> DecoratedSort:
    """Shorthand constructor: ``dsort("Z", "l")`` is ``Z^l``, ``dsort("Z")``
    is ``Z^?``."""
    return DecoratedSort(Sort(sort_name), Decoration(deco))


class TypeVar(Interned, TypeTerm):
    """A type variable, printed ``α<n>``."""

    id: int

    def _text(self) -> str:
        return f"α{self.id}"


class WtType(TypeTerm, Value):
    """The special sort concluding condition- and rule-level judgments."""

    def __str__(self) -> str:
        return "wt"


WT = WtType()


def type_vars(t: TypeTerm) -> set[int]:
    return {t.id} if isinstance(t, TypeVar) else set()


# ---------------------------------------------------------------------------
# Terms of the rule language

class Term:
    """Base class for terms."""

    __slots__ = ()


class Var(Term, Value):
    name: str

    def __str__(self) -> str:
        return self.name


class StarVar(Term, Value):
    """A variable standing for a sublist segment; printed with a ``*``."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}*"


def _app_text(term: SynApp | ListApp) -> str:
    """``op(arg,...,arg)``, written from an explicit stack of the pieces left
    to print, so that a term of any nesting depth prints."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        if t.__class__ is SynApp or t.__class__ is ListApp:
            out.append(t.op + "(")
            stack.append(")")
            for arg in reversed(t.args[1:]):  # the first argument goes on top
                stack += (arg, ",")
            stack += t.args[:1]
        else:
            out.append(t if t.__class__ is str else str(t))
    return "".join(out)


class SynApp(Term, Value):
    """Application of a syntactic (fixed-arity) operator."""

    op: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    __str__ = _app_text


class ListApp(Term, Value):
    """Application of a variadic (associative list) operator."""

    op: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    __str__ = _app_text


class Cond:
    """Base class for rule conditions."""

    __slots__ = ()


class Match(Cond, Value):
    """A matching condition ``pattern << [at] subject``.

    ``at`` is a decorated sort in checking mode, a type variable in
    inference mode, or ``None`` for a surface ``[?]`` annotation that the
    inference engine has not freshened yet.
    """

    pattern: Term
    subject: Term
    at: TypeTerm | None

    def __str__(self) -> str:
        ann = "?" if self.at is None else str(self.at)
        return f"{self.pattern} << [{ann}] {self.subject}"


class Conj(Cond, Value):
    """A conjunction of at least two matches, never nested (a single match stays bare)."""

    conds: tuple[Match, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conds", tuple(self.conds))
        if len(self.conds) < 2:
            raise ValueError("a conjunction needs at least two conditions")
        if not all(isinstance(c, Match) for c in self.conds):
            raise ValueError("a conjunction joins matches only")

    def __str__(self) -> str:
        return " /\\ ".join(str(c) for c in self.conds)


def conjoin(matches: Sequence[Match]) -> Cond:
    """The condition of one or more matches: a single one bare, several conjoined."""
    return matches[0] if len(matches) == 1 else Conj(matches)


class Rule(Value):
    """A rule ``cond -> (e1, ..., en)``; the action may be empty.  The
    condition is one match or a :class:`Conj` of matches."""

    cond: Cond
    actions: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def matches(self) -> tuple[Match, ...]:
        """The condition's matches, in order."""
        return self.cond.conds if self.cond.__class__ is Conj else (self.cond,)

    def __str__(self) -> str:
        return f"{self.cond} -> ({', '.join(str(a) for a in self.actions)})"


# ---------------------------------------------------------------------------
# Constraints

class Constraint(Value, tuple):
    """Base class for constraints: the pair ``(lhs, rhs)`` of interned sides,
    hashed as that tuple, equal when of one class with the same sides, never
    holding ``wt``.  A maker that cannot produce ``wt`` skips that check, and
    every Python call, with ``tuple.__new__(Eq, (lhs, rhs))``."""

    __slots__ = ()
    _fields = ("lhs", "rhs")
    lhs = property(itemgetter(0))
    rhs = property(itemgetter(1))

    def __new__(cls, lhs: TypeTerm, rhs: TypeTerm):
        if isinstance(lhs, WtType) or isinstance(rhs, WtType):
            raise ValueError("wt cannot appear inside a constraint")
        return tuple.__new__(cls, (lhs, rhs))

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and other[0] is self[0] and other[1] is self[1]

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __str__(self) -> str:
        return f"{self[0]} {self._op} {self[1]}"


class Eq(Constraint):
    """Equality constraint ``lhs =_s rhs``."""

    __slots__ = ()
    _op = "=_s"


class Sub(Constraint):
    """Subtype constraint ``lhs <:_s rhs``."""

    __slots__ = ()
    _op = "<:_s"


class ConstraintSet:
    """An insertion-ordered, duplicate-free collection of constraints.

    Membership and equality follow set semantics; iteration order is the
    stable insertion order the solver scans in.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Constraint] = ()):
        object.__setattr__(self, "_items", tuple(dict.fromkeys(items)))

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, c: object) -> bool:
        return c in self._items

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return frozenset(self._items) == frozenset(other._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items))

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self._items) + "}"

    def __repr__(self) -> str:
        return f"ConstraintSet({list(self._items)!r})"


def free_type_vars(constraints: Iterable[Constraint]) -> set[int]:
    """The type variables occurring on either side of any constraint."""
    out: set[int] = set()
    for c in constraints:
        out |= type_vars(c.lhs)
        out |= type_vars(c.rhs)
    return out


# ---------------------------------------------------------------------------
# Substitutions

class Substitution:
    """A finite map from type-variable ids to type terms.

    Normalized eagerly: variable chains are path-compressed to a fixed point,
    identity bindings are dropped, and cyclic inputs are rejected, so equality
    of solutions is syntactic and application is idempotent.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Iterable[tuple[int, TypeTerm]] | dict[int, TypeTerm] = ()):
        # Identity bindings go first, so that a chain ending in one stops
        # there instead of looping on it.
        raw = {var: image for var, image in dict(mapping).items()
               if not (isinstance(image, TypeVar) and image.id == var)}
        normal: dict[int, TypeTerm] = {}
        for var, image in raw.items():
            path = {var: None}  # the chain walked; it stops at its end or at a variable already normal
            while isinstance(image, TypeVar) and image.id in raw:
                if image.id in path:
                    raise ValueError(f"cyclic substitution through α{image.id}")
                path[image.id] = None
                image = normal[image.id] if image.id in normal else raw[image.id]
            normal.update(dict.fromkeys(path, image))
        object.__setattr__(self, "_map", normal)

    @classmethod
    def _unchecked(cls, normal: dict[int, TypeTerm]) -> Substitution:
        """The substitution of a map that is normal already: no chains, no identity bindings."""
        object.__setattr__(subst := object.__new__(cls), "_map", normal)
        return subst

    def get(self, var: int) -> TypeTerm | None:
        return self._map.get(var)

    def items(self) -> list[tuple[int, TypeTerm]]:
        return sorted(self._map.items())

    def __contains__(self, var: object) -> bool:
        return var in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __str__(self) -> str:
        return "{" + ", ".join(f"α{v} ↦ {t}" for v, t in self.items()) + "}"

    def __repr__(self) -> str:
        return f"Substitution({self._map!r})"


def apply_subst(subst: Substitution, t: TypeTerm) -> TypeTerm:
    """Replace every bound variable in ``t`` by its image; decorated sorts
    and unbound variables are unchanged."""
    if isinstance(t, TypeVar):
        image = subst.get(t.id)
        return t if image is None else image
    return t


def subst_satisfies(subst: Substitution, c: Constraint, ctx: "Context") -> bool:
    """Whether the substitution satisfies one constraint under a context.

    An equality holds when both images are syntactically equal.  A subtype
    constraint holds when the images are syntactically equal (the relation is
    reflexive on type terms) or when both are decorated sorts that the
    context's decorated-subtype relation relates.
    """
    lhs = apply_subst(subst, c.lhs)
    rhs = apply_subst(subst, c.rhs)
    if isinstance(c, Eq):
        return lhs == rhs
    if lhs == rhs:
        return True
    if isinstance(lhs, DecoratedSort) and isinstance(rhs, DecoratedSort):
        return ctx.subtype_holds(lhs, rhs)
    return False


# ---------------------------------------------------------------------------
# Derivations

RULE_LABELS = frozenset({
    "T-Var", "T-SVar", "T-Fun", "T-Empty", "T-Elem", "T-Merge", "Sub", "Gen",
    "T-Match", "T-Conj", "T-Rule",
    "CT-Var", "CT-SVar", "CT-Fun", "CT-Empty", "CT-Elem", "CT-Merge",
    "CT-Star", "CT-Match", "CT-Conj", "CT-Rule",
})

Subject = Union[Term, Cond, Rule]


class Derivation(Value):
    """One applied rule instance: label, concluded judgment, premises.

    Checking derivations carry ``constraints=None``; inference derivations
    carry only the constraints their own rule emits.  A judgment's full
    constraint set is its premises' sets followed by those.
    """

    rule: str
    subject: Subject
    type: TypeTerm
    premises: tuple["Derivation", ...] = ()
    constraints: ConstraintSet | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", tuple(self.premises))
        if self.rule not in RULE_LABELS:
            raise ValueError(f"unknown rule label {self.rule!r}")

    def walk(self) -> Iterator["Derivation"]:
        """Every node, in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))


# One judgment, logged after its premises: rule, subject, type, premise count, own
# constraints (``None`` when checking).  A list step's subject is ``(application,
# prefix length)``.
Record = tuple[str, Union[Subject, tuple[ListApp, int]], TypeTerm, int, Union[Sequence[Constraint], None]]


class Derived:
    """A verdict that keeps its walk's post-order records and builds the
    derivation tree from them with a stack on first read.  The tree fixes the
    other fields; verdicts compare by identity, so compare two verdicts'
    ``derivation`` to tell whether they agree."""

    def __init__(self, records: Sequence[Record]):
        self._records = records

    @cached_property
    def derivation(self) -> Derivation:
        stack: list[Derivation] = []
        for rule, subject, type_, arity, own in self._records:
            if isinstance(subject, tuple):
                subject = ListApp(subject[0].op, subject[0].args[:subject[1]])
            premises = [stack.pop() for _ in range(arity)][::-1]
            stack.append(Derivation(rule, subject, type_, premises,
                                    None if own is None else ConstraintSet(own)))
        return stack.pop()
