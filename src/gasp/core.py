"""Propositional programs whose rule bodies are generalized atoms.

A generalized atom is an arbitrary Boolean function over a finite domain of
propositional atoms. Four concrete body shapes are provided: conjunctions of
literals, count aggregates, explicit DNF formulas, and opaque truth tables.
All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Iterator, Union

RESERVED_PREFIX = "__aux"
DEFAULT_ATOM_LIMIT = 20

_PLAIN_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_RESERVED_NAME = re.compile(r"__aux[A-Za-z0-9_]*\Z")


class GaspError(Exception):
    """Base class for all errors raised by this package."""


class UnsatisfiableBody(GaspError):
    """A body is false on every subset of its domain; it has no DNF."""


class TooManyAtoms(GaspError):
    """An exhaustive 2^n operation was asked for more atoms than allowed."""


class ReservedAtomError(GaspError):
    """A reserved `__aux` atom appeared where only source atoms are allowed."""


class DisjunctiveHead(GaspError):
    """Compilation input must have atomic heads (or be constraints)."""


# How a record's `__init__` sets its fields, past `Record.__setattr__`.
set_field = object.__setattr__


class Record:
    """Base of the immutable records: the AST values and the reports.

    A subclass names its fields in `__slots__` and sets them in `__init__`
    with `set_field`; after that no field can be assigned or deleted. A
    record equals only a record of the same class with the same field
    tuple, and hashes like that tuple, so hash values, and with them the
    iteration order of sets of records, are those of the equivalent tuples.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if not fields:  # an abstract base such as Body
            return
        cls._fields = fields
        # the field tuple, read by C-level getters rather than a loop
        if len(fields) == 1:
            get = operator.attrgetter(fields[0])

            def values(record):
                return (get(record),)
        else:
            values = operator.attrgetter(*fields)
        if "__eq__" in cls.__dict__:  # the class defines its own equality
            return

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Atom(Record):
    """A propositional atom, identified by name.

    Ordinary names start with a lowercase letter; names starting with
    `__aux` are reserved for compilation output and rejected wherever user
    input is expected. Atoms order by name.
    """

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        if not (_PLAIN_NAME.match(name) or _RESERVED_NAME.match(name)):
            raise ValueError(f"invalid atom name: {name!r}")
        set_field(self, "name", name)

    # Written out rather than inherited: these are the hottest methods of
    # the package, and the hash stays that of the 1-tuple (name,).
    def __hash__(self) -> int:
        return hash((self.name,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.name < other.name
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.name <= other.name
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.name > other.name
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.name >= other.name
        return NotImplemented

    @property
    def is_reserved(self) -> bool:
        return self.name.startswith(RESERVED_PREFIX)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


Interpretation = frozenset[Atom]

# Atom sets are hash-consed: CPython allocates at least 216 B for every
# frozenset, even an empty one, and heads, literal groups and decoded
# interpretations repeat the same few sets over and over. The table is
# emptied whenever it outgrows _ATOM_SETS_MAX, so it stays small.
_ATOM_SETS: dict[frozenset, frozenset] = {}
_ATOM_SETS_MAX = 1 << 12


def atom_set(items: Iterable[Atom] = ()) -> frozenset[Atom]:
    """The shared frozenset equal to `items`."""
    s = frozenset(items)
    shared = _ATOM_SETS.get(s)
    if shared is None:
        if len(_ATOM_SETS) >= _ATOM_SETS_MAX:
            _ATOM_SETS.clear()
        shared = _ATOM_SETS[s] = s
    return shared


_NAME = operator.attrgetter("name")


def in_name_order(items: Iterable[Atom]) -> list[Atom]:
    """The atoms sorted, by their names as strings rather than by one
    `Atom.__lt__` call per comparison."""
    return sorted(items, key=_NAME)


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


def interp_sort_key(interpretation: Iterable[Atom]) -> tuple[str, ...]:
    """Canonical ordering key for interpretations: the sorted name tuple.

    This defines canonical order; `lowering.rank_key` computes the same
    order on masks, and the tests check it against this key.
    """
    return tuple(sorted(a.name for a in interpretation))


def format_interpretation(interpretation: Iterable[Atom]) -> str:
    return "{" + ", ".join(sorted(a.name for a in interpretation)) + "}"


class Conjunct(Record):
    """A conjunction of literals, split into positive and negative atoms."""

    __slots__ = ("positives", "negatives")
    positives: frozenset[Atom]
    negatives: frozenset[Atom]

    def __init__(self, positives: Iterable[Atom], negatives: Iterable[Atom]):
        positives = atom_set(positives)
        negatives = atom_set(negatives)
        clash = positives & negatives
        if clash:
            names = ", ".join(sorted(a.name for a in clash))
            raise ValueError(f"atom(s) both positive and negative: {names}")
        set_field(self, "positives", positives)
        set_field(self, "negatives", negatives)

    def atoms(self) -> frozenset[Atom]:
        return self.positives | self.negatives

    def holds(self, interpretation: Interpretation) -> bool:
        return self.positives <= interpretation and not (self.negatives & interpretation)

    def literals(self) -> tuple[tuple[Atom, bool], ...]:
        """All literals, positives first, each group in canonical atom order."""
        pos = tuple((a, True) for a in sorted(self.positives))
        neg = tuple((a, False) for a in sorted(self.negatives))
        return pos + neg

    def sort_key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (tuple(sorted(a.name for a in self.positives)),
                tuple(sorted(a.name for a in self.negatives)))


class Body(Record):
    """Marker base for rule bodies.

    Every body exposes `domain` (a frozenset of the atoms it can observe)
    and `eval(interpretation)`. Truth only ever depends on the restriction
    of the interpretation to the domain.
    """

    __slots__ = ()

    domain: frozenset[Atom]

    def eval(self, interpretation: Interpretation) -> bool:
        raise NotImplementedError


class LiteralConjunction(Body):
    """Body that is a conjunction of literals; empty means always true."""

    __slots__ = ("conjunct",)
    conjunct: Conjunct

    def __init__(self, conjunct: Conjunct):
        set_field(self, "conjunct", conjunct)

    @property
    def domain(self) -> frozenset[Atom]:
        return self.conjunct.atoms()

    def eval(self, interpretation: Interpretation) -> bool:
        return self.conjunct.holds(interpretation)

    @property
    def is_always_true(self) -> bool:
        return not self.conjunct.positives and not self.conjunct.negatives


TOP = LiteralConjunction(Conjunct(frozenset(), frozenset()))

COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
}


class CountAggregate(Body):
    """Body comparing |atoms ∩ I| against a fixed bound."""

    __slots__ = ("atoms", "comparator", "bound")
    atoms: frozenset[Atom]
    comparator: str
    bound: int

    def __init__(self, atoms: Iterable[Atom], comparator: str, bound: int):
        atoms = atom_set(atoms)
        if not atoms:
            raise ValueError("count aggregate needs at least one atom")
        if comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator: {comparator!r}")
        if bound < 0:
            raise ValueError("count bound must be non-negative")
        set_field(self, "atoms", atoms)
        set_field(self, "comparator", comparator)
        set_field(self, "bound", bound)

    @property
    def domain(self) -> frozenset[Atom]:
        return self.atoms

    def eval(self, interpretation: Interpretation) -> bool:
        return COMPARATORS[self.comparator](len(self.atoms & interpretation), self.bound)


class Dnf(Body):
    """Body given as a disjunction of literal conjunctions (at least one)."""

    __slots__ = ("disjuncts",)
    disjuncts: tuple[Conjunct, ...]

    def __init__(self, disjuncts: Iterable[Conjunct]):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise ValueError("dnf body needs at least one disjunct")
        set_field(self, "disjuncts", disjuncts)

    @property
    def domain(self) -> frozenset[Atom]:
        out: frozenset[Atom] = frozenset()
        for d in self.disjuncts:
            out |= d.atoms()
        return out

    def eval(self, interpretation: Interpretation) -> bool:
        return any(d.holds(interpretation) for d in self.disjuncts)


class TruthTable(Body):
    """Body defined extensionally: the exact family of satisfying subsets.

    The domain is declared explicitly, so it may include atoms that no
    satisfying subset mentions (relevant but unmentioned atoms).
    """

    __slots__ = ("domain", "satisfying")
    domain: frozenset[Atom]
    satisfying: frozenset[frozenset[Atom]]

    def __init__(self, domain: Iterable[Atom], satisfying: Iterable[Iterable[Atom]]):
        domain = atom_set(domain)
        satisfying = frozenset(atom_set(s) for s in satisfying)
        for s in satisfying:
            if not s <= domain:
                extra = ", ".join(sorted(a.name for a in s - domain))
                raise ValueError(f"satisfying subset mentions atoms outside the domain: {extra}")
        set_field(self, "domain", domain)
        set_field(self, "satisfying", satisfying)

    def eval(self, interpretation: Interpretation) -> bool:
        return (interpretation & self.domain) in self.satisfying


GeneralizedAtomBody = Union[LiteralConjunction, CountAggregate, Dnf, TruthTable]


class Rule(Record):
    """A rule `head :- body`; an empty head is a constraint."""

    __slots__ = ("head", "body")
    head: frozenset[Atom]
    body: Body

    def __init__(self, head: Iterable[Atom], body: Body):
        set_field(self, "head", atom_set(head))
        set_field(self, "body", body)

    @property
    def is_constraint(self) -> bool:
        return not self.head

    def atoms(self) -> frozenset[Atom]:
        return self.head | self.body.domain


def subsets_in_canonical_order(domain: Iterable[Atom]) -> Iterator[frozenset[Atom]]:
    """All subsets of `domain`, ordered by their sorted-name tuples.

    The empty set comes first; {a} precedes {a,b} precedes {b}.
    """
    items = sorted(set(domain))

    def rec(prefix: list[Atom], rest: list[Atom]) -> Iterator[frozenset[Atom]]:
        yield frozenset(prefix)
        for i, x in enumerate(rest):
            yield from rec(prefix + [x], rest[i + 1:])

    yield from rec([], items)


# Sorted name tuples of the atom sets seen by the key functions. The sets
# are mostly the hash-consed ones, so a lookup usually hits on identity;
# the memo is emptied like _ATOM_SETS.
_NAMES: dict[frozenset, tuple[str, ...]] = {}


def _names(group: frozenset[Atom]) -> tuple[str, ...]:
    names = _NAMES.get(group)
    if names is None:
        if len(_NAMES) >= _ATOM_SETS_MAX:
            _NAMES.clear()
        names = _NAMES[group] = tuple(sorted(a.name for a in group))
    return names


def body_key(body: Body):
    """Canonical comparison key for a body.

    Keys are structural up to reordering, with two collapses: a DNF
    containing an empty disjunct is a tautology and keys like the empty
    literal conjunction, and a satisfiable truth table keys like its
    minterm DNF (which is how it is rendered).
    """
    if isinstance(body, LiteralConjunction):
        c = body.conjunct
        return ("lit", _names(c.positives), _names(c.negatives))
    if isinstance(body, CountAggregate):
        return ("count", _names(body.atoms), body.comparator, body.bound)
    if isinstance(body, Dnf):
        pairs = {(_names(d.positives), _names(d.negatives)) for d in body.disjuncts}
        return _dnf_key(pairs)
    if isinstance(body, TruthTable):
        if not body.satisfying:
            return ("table", _names(body.domain), ())
        dom = body.domain
        pairs = {(_names(s), _names(dom - s)) for s in body.satisfying}
        return _dnf_key(pairs)
    raise TypeError(f"not a body: {body!r}")


def _dnf_key(pairs: set[tuple[tuple[str, ...], tuple[str, ...]]]):
    if ((), ()) in pairs:
        return ("lit", (), ())
    return ("dnf", tuple(sorted(pairs)))


def rule_key(rule: Rule):
    return (_names(rule.head), body_key(rule.body))


class Program(Record):
    """A finite sequence of rules with set semantics.

    Construction collapses duplicate rules (first occurrence wins) using
    canonical rule keys, so equality and hashing are order-insensitive
    while rendering stays deterministic. The keys are recomputed when
    compared rather than stored, to keep programs small.
    """

    __slots__ = ("rules",)
    rules: tuple[Rule, ...]

    def __init__(self, rules: Iterable[Rule] = ()):
        seen = set()
        kept = []
        for r in rules:
            key = rule_key(r)
            if key not in seen:
                seen.add(key)
                kept.append(r)
        set_field(self, "rules", tuple(kept))

    def _keys(self) -> frozenset:
        return frozenset(rule_key(r) for r in self.rules)

    def atoms(self) -> frozenset[Atom]:
        out: frozenset[Atom] = frozenset()
        for r in self.rules:
            out |= r.atoms()
        return out

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return len(self.rules) == len(other.rules) and self._keys() == other._keys()

    def __hash__(self) -> int:
        return hash(self._keys())

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules)"


def _domain(body: Body, max_domain: int, what: str) -> tuple[list[Atom], dict[Atom, int]]:
    """The body's domain in canonical order, and each atom's position in it."""
    items = in_name_order(body.domain)
    if len(items) > max_domain:
        raise TooManyAtoms(f"{what} over {len(items)} atoms exceeds the limit of {max_domain}")
    return items, {a: i for i, a in enumerate(items)}


def to_dnf(body: Body, max_domain: int = DEFAULT_ATOM_LIMIT) -> Dnf:
    """Minterm DNF of a body: one full conjunct per satisfying subset.

    Disjuncts come out in the canonical subset order, so the result is a
    unique normal form for each (domain, truth function) pair. Raises
    UnsatisfiableBody when no subset of the domain satisfies the body.
    """
    items, index = _domain(body, max_domain, "dnf expansion")
    vector = lowering.truth_vector(body, index, len(items))
    if not vector:
        raise UnsatisfiableBody("body is false on every subset of its domain")
    dom = body.domain
    disjuncts = []
    for subset in lowering.interpretations(items, lowering.members(vector)):
        disjuncts.append(Conjunct(subset, dom - subset))
    return Dnf(tuple(disjuncts))


def is_convex(body: Body, max_domain: int = DEFAULT_ATOM_LIMIT) -> bool:
    """Whether truth survives between any two nested satisfying subsets.

    The body is non-convex exactly when some false J has a satisfying
    subset below it and a satisfying superset above it, which the subset
    and superset closures of the truth vector decide at once.
    """
    items, index = _domain(body, max_domain, "convexity scan")
    n = len(items)
    cols = lowering.columns(n)
    true = lowering.truth_vector(body, index, n, cols)
    false = lowering.full(n) ^ true
    return not false & lowering.upward(true, cols) & lowering.downward(true, cols)


def is_convex_program(program: Program, max_domain: int = DEFAULT_ATOM_LIMIT) -> bool:
    return all(is_convex(r.body, max_domain) for r in program.rules)


# lowering builds vectors from the classes above, so it is imported last
from . import lowering  # noqa: E402
