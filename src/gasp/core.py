"""Propositional programs whose rule bodies are generalized atoms.

A generalized atom is an arbitrary Boolean function over a finite domain of
propositional atoms. Four concrete body shapes are provided: conjunctions of
literals, count aggregates, explicit DNF formulas, and opaque truth tables.
All values are immutable after construction and safe to share.

This is the AST layer: it imports no other gasp module. The analyses
that read a body's truth function (`to_dnf`, `is_convex`) live in
`lowering`, beside the truth vectors they are computed from.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator

RESERVED_PREFIX = "__aux"
DEFAULT_ATOM_LIMIT = 20

_PLAIN_NAME = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_RESERVED_NAME = re.compile(RESERVED_PREFIX + r"[A-Za-z0-9_]*\Z")


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


# How constructors set fields past `Record.__setattr__`: `Record.__init__`,
# and field by field the AST records, built per rule, minterm or query.
set_field = object.__setattr__


class Record:
    """Base of the immutable records: the AST values and the reports.

    A subclass names its fields in `__slots__`, and `Record.__init__`
    stores its positional arguments in that order: the constructor of the
    reports and of the compilation's fresh names. A record that checks or
    defaults its arguments ends its own `__init__` in `super().__init__`.
    The AST records (the bodies, `Rule` and `Program`) are built once per
    rule, minterm or query, so their constructors normalise their
    arguments and store each field with `set_field`, skipping the generic
    loop. A record that keeps a derived value in a slot of its own names
    its fields in `_fields` instead, so the slot takes no part in them.
    After construction no field can be assigned or deleted. A record
    equals only a record of the same class with the same field tuple, and
    hashes like that tuple, so hash values, and with them the iteration
    order of sets of records, are those of the equivalent tuples; each
    class gets the getter of its field tuple, `_values`, and `Program`
    overrides this equality with its own.

    `Atom` keeps the same contract but is not a subclass: it is the
    1-tuple `(name,)` itself, so that its hash and order are the tuple's,
    computed in C.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields") or cls.__dict__.get("__slots__", ())
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
        cls._values = staticmethod(values)

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} values, not {len(values)}")
        for name, value in zip(fields, values):
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


# The one atom of each name made so far (see `Atom`).
_ATOMS: dict[str, Atom] = {}


class Atom(tuple):
    """A propositional atom, identified by name.

    Ordinary names start with a lowercase letter and are not the keyword
    `not`; names starting with `__aux` are reserved for compilation output
    and rejected wherever user input is expected. Atoms order by name.

    An atom is the 1-tuple `(name,)`: its hash and its order are the
    tuple's, computed in C, and `name` is read by a C getter. It equals no
    plain tuple, and it cannot be iterated, so an atom passed where a
    collection of atoms is expected raises TypeError rather than reading
    as its name. Each name has one atom object (`__new__` returns the one
    made first), so lookups in sets and dicts meet the identical object and
    never call `__eq__`; the table holds one entry per distinct name.
    """

    __slots__ = ()
    _fields = ("name",)
    name = property(operator.itemgetter(0))
    # defining __eq__ would drop the inherited hash; keep the tuple's
    __hash__ = tuple.__hash__

    def __new__(cls, name: str):
        atom = _ATOMS.get(name)
        if atom is None:
            if not (_PLAIN_NAME.match(name) or _RESERVED_NAME.match(name)) or name == "not":
                raise ValueError(f"invalid atom name: {name!r}")
            atom = _ATOMS[name] = tuple.__new__(cls, (name,))
        return atom

    # Python asks the subclass first, so a plain tuple gets False from
    # here in both directions instead of the tuple's own answer.
    def __eq__(self, other):
        if other.__class__ is Atom:
            return self[0] == other[0]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is Atom:
            return self[0] != other[0]
        return True if isinstance(other, tuple) else NotImplemented

    def __iter__(self):
        raise TypeError("'Atom' object is not iterable")

    def __reduce__(self):  # copy and pickle through __new__
        return Atom, (self[0],)

    @property
    def is_reserved(self) -> bool:
        return self[0].startswith(RESERVED_PREFIX)

    def __str__(self) -> str:
        return self[0]

    def __repr__(self) -> str:
        return f"Atom({self[0]!r})"


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


def body_key(body: Body):
    """Canonical comparison key for a body, built from its own atom sets.

    Keys are structural up to reordering, with two collapses: a DNF
    containing an empty disjunct is a tautology and keys like the empty
    literal conjunction, and a satisfiable truth table keys like its
    minterm DNF (which is how it is rendered). A disjunct keys as the pair
    (positives, atoms), so a table row s over domain D is (s, D), with D
    shared by every row. The atom sets are unordered: nothing is sorted.
    """
    if isinstance(body, LiteralConjunction):
        c = body.conjunct
        return ("lit", c.positives, c.negatives)
    if isinstance(body, CountAggregate):
        return ("count", body.atoms, body.comparator, body.bound)
    if isinstance(body, Dnf):
        return _dnf_key({(d.positives, d.atoms()) for d in body.disjuncts})
    if isinstance(body, TruthTable):
        dom = body.domain
        if not body.satisfying:
            return ("table", dom)
        return _dnf_key({(s, dom) for s in body.satisfying})
    raise TypeError(f"not a body: {body!r}")


def _dnf_key(pairs: set[tuple[frozenset[Atom], frozenset[Atom]]]):
    """The key of the disjunction of the (positives, atoms) pairs. No atom
    is both positive and negative, so a pair's atoms less its positives are
    its negatives, and equal pairs are equal conjuncts; the pairs form a set
    of frozensets, so neither the order of disjuncts nor of atoms counts."""
    empty = frozenset()
    if (empty, empty) in pairs:
        return ("lit", empty, empty)
    return ("dnf", frozenset(pairs))


def rule_key(rule: Rule):
    return (rule.head, body_key(rule.body))


class Program(Record):
    """A finite sequence of rules with set semantics.

    Construction collapses duplicate rules (first occurrence wins) using
    canonical rule keys, so equality and hashing are order-insensitive
    while rendering stays deterministic. The keys are recomputed when
    compared rather than stored, to keep programs small. The atom set is
    kept, shared through `atom_set`: it is read many times per query. It
    is not a field, so equality, hashing, repr and pickling see only the
    rules.
    """

    __slots__ = ("rules", "_atoms")
    _fields = ("rules",)
    rules: tuple[Rule, ...]

    def __init__(self, rules: Iterable[Rule] = ()):
        seen = set()
        kept = []
        atoms = set()
        for r in rules:
            key = rule_key(r)
            if key not in seen:
                seen.add(key)
                kept.append(r)
                atoms |= r.head
                atoms |= r.body.domain
        set_field(self, "rules", tuple(kept))
        set_field(self, "_atoms", atom_set(atoms))

    def _keys(self) -> frozenset:
        return frozenset(rule_key(r) for r in self.rules)

    def atoms(self) -> frozenset[Atom]:
        return self._atoms

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
