"""Bit-sliced form of a program, the input of the enumeration kernel:
a `LoweredProgram`, whose one constructor is `lower`.

Atoms get bit positions in reverse name order (`positions`, the one
place that numbers atoms): over a universe of n atoms the name-first
atom holds bit n - 1 and the name-last bit 0, so an interpretation is a
mask J < 2^n. A *vector* is a Python int with one bit per mask: bit J
is set when some property holds at J. The column of atom i, X_i, is the
vector of the masks that contain i, and every body becomes a vector
through `truth_vector`, built from columns by AND, OR and shifts. A count body against the bound k reads "at least k"
and "at least k + 1" of its m members off counters kept up to
min(k + 1, m) (`at_least`), 2 * min(k + 1, m) - 1 steps per member; the
kernel counts the true atoms of a disjunctive head with the same
counters, up to two. A truth table over the whole universe is its own
vector, one bit per satisfying subset; any other is the OR of one minterm
conjunction per satisfying subset, so it costs what its minterm DNF
costs. A vector takes 2^n / 8 bytes (128 KiB at n = 20). The
columns and the all-masks vector of a width (`columns`, `full`) are built
once and shared by every later caller: (n + 1) * 2^n / 8 bytes per width
used. Besides the kernel, the completion works on these vectors, and
`core.to_dnf`, `core.is_convex` and `compile.closure_rules` on the
vector of one body over its own domain (`body_vector`).

`members` lists the masks of a vector: one with at most 64 set bits is
peeled from its top bit down, any other is cut into 64-bit words whose
zero words are skipped in C. Masks go back to atom sets only here, through
`decode`, which builds each set as the union of two frozensets over the
low and the high half of the universe, taken from lazily filled tables
whose entries are unions of one-atom sets. Union and hashing reuse
the stored hashes of those sets, so each atom is hashed at most once per
call, not once per element. `interpretations` sorts the masks by their
rank, the position of the set among all 2^n subsets in canonical order,
and decodes them in that order. With the name-first atom on top, the
rank of a mask m is the closed form (popcount(m) - m - (m & -m)) mod 2^n
(`rank_key`). `semantics.enumerate_candidates` sorts only the supported
models of its one scan so and decodes each of them once, since every
answer set is among them. The completion, whose tables are sets, and the closure rules, which sort
their cubes themselves, decode in mask order.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Sequence

from .core import (
    Atom,
    Body,
    CountAggregate,
    Dnf,
    LiteralConjunction,
    Program,
    Rule,
    TooManyAtoms,
    TruthTable,
    atom_set,
)

# Enumeration modes of the kernel.
ENUM_MODELS = 0
ENUM_SUPPORTED = 1
ENUM_FLP = 2
ENUM_SFLP = 3

_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_EMPTY: frozenset[Atom] = frozenset()

# The width tables of `full` and `columns`: an entry is never changed
# once stored, so every caller may share it.
_FULL: dict[int, int] = {}
_COLUMNS: dict[int, tuple[int, ...]] = {}

# `members` peels a vector with at most this many set bits from the top:
# below it that beats the word scan at every width up to 2^20 bits.
_PEELED = 64


class LoweredProgram:
    """Rules over a fixed universe and their head masks; `lower` sets the
    fields."""

    __slots__ = ("atoms", "index", "n", "heads", "rules")
    atoms: tuple[Atom, ...]
    index: dict[Atom, int]
    n: int
    heads: list[int]
    rules: tuple[Rule, ...]


def lower(
    rules: Program | Sequence[Rule],
    atoms: Iterable[Atom] | None = None,
    limit: int | None = None,
    what: str = "enumeration",
) -> LoweredProgram:
    """The rules, a `Program` or any sequence of rules, over the universe
    `atoms` (default: the rules' atoms) as `positions` numbers it:
    for every query and each part the kernel splits off. TooManyAtoms,
    naming `what`, when the universe has more than `limit` atoms."""
    if atoms is None:
        atoms = rules.atoms() if isinstance(rules, Program) else set().union(*map(Rule.atoms, rules))
    rules = rules.rules if isinstance(rules, Program) else tuple(rules)
    items, index = positions(atoms, limit, what)
    heads = []
    for rule in rules:
        mask = 0
        for a in rule.head:
            mask |= 1 << index[a]
        heads.append(mask)
    lp = LoweredProgram()
    lp.atoms, lp.index, lp.n, lp.heads, lp.rules = tuple(items), index, len(items), heads, rules
    return lp


def positions(
    atoms: Iterable[Atom], limit: int | None = None, what: str = ""
) -> tuple[list[Atom], dict[Atom, int]]:
    """The atoms in the order of their bit positions and the position of
    each; TooManyAtoms, naming `what` and the limit, when there are more
    than `limit` of them. This is the one place that numbers atoms: in
    reverse name order, the name-first atom on the top bit, so that a
    mask's canonical rank is a closed form of the mask (`rank_key`)."""
    items = sorted(atoms, reverse=True)
    if limit is not None and len(items) > limit:
        raise TooManyAtoms(f"{what} over {len(items)} atoms exceeds the limit of {limit}")
    return items, {a: i for i, a in enumerate(items)}


def body_vector(body: Body, limit: int | None = None, what: str = "") -> tuple[list[Atom], int]:
    """The body's domain in bit order (`positions`, with its `limit` and
    `what`) and the body's vector over that domain alone: the first step
    of a body's DNF, convexity test and closure rules."""
    items, index = positions(body.domain, limit, what)
    return items, truth_vector(body, index, len(items))


def full(n: int) -> int:
    """The vector of all 2^n masks, built once per width."""
    out = _FULL.get(n)
    if out is None:
        out = _FULL.setdefault(n, (1 << (1 << n)) - 1)
    return out


def columns(n: int) -> tuple[int, ...]:
    """X_0 .. X_{n-1}, built once per width: period 2^(i+1), each period
    2^i clear bits then 2^i set bits, repeated by doubling up to 2^n bits."""
    out = _COLUMNS.get(n)
    if out is not None:
        return out
    size = 1 << n
    cols = []
    for i in range(n):
        half = 1 << i
        vector = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            vector |= vector << width
            width <<= 1
        cols.append(vector)
    return _COLUMNS.setdefault(n, tuple(cols))


def members(vector: int) -> list[int]:
    """The masks whose bits are set in a vector, in increasing order.

    A vector with few set bits is peeled from its top bit down, each step
    a `bit_length`, a shift and an XOR. Any other is cut into 64-bit
    words; the zero words are skipped in C (`itertools.compress` over the
    words of its bytes), which costs about 30 us per 1024 words however
    few bits are set, and the bits of the others are peeled off, lowest
    first.
    """
    out = []
    if vector.bit_count() <= _PEELED:
        while vector:
            i = vector.bit_length() - 1
            out.append(i)
            vector ^= 1 << i
        out.reverse()
        return out
    count = (vector.bit_length() + 63) >> 6
    data = vector.to_bytes(count << 3, "little")
    for k in compress(range(count), memoryview(data).cast("Q")):
        base = (k << 6) - 1
        word = int.from_bytes(data[k << 3:(k + 1) << 3], "little")
        while word:
            low = word & -word
            out.append(base + low.bit_length())
            word ^= low
    return out


def rank_key(n: int) -> Callable[[int], int]:
    """The sort key of masks over n atoms that gives canonical order (see
    `core.interp_sort_key`): the position of the set among all 2^n subsets
    in that order.

    Canonical order is the preorder of the tree whose children extend a set
    by a name-later atom. With the name-first atom on the top bit, the rank
    of a mask m != 0 is popcount(m) + 2^n - m - (m & -m); taken mod 2^n,
    the same expression gives the empty mask rank 0.
    """
    top = (1 << n) - 1

    def rank(mask: int) -> int:
        return (mask.bit_count() - mask - (mask & -mask)) & top

    return rank


def interpretations(atoms: Sequence[Atom], masks: list[int]) -> list[frozenset[Atom]]:
    """The sets with the given masks over `atoms` (bit i is atoms[i], the
    atoms in reverse name order), in canonical order: the masks sorted by
    their `rank_key` rank, each decoded to the shared set of
    `core.atom_set`."""
    return decode(atoms, sorted(masks, key=rank_key(len(atoms))))


def decode(atoms: Sequence[Atom], masks: list[int]) -> list[frozenset[Atom]]:
    """The sets with the given masks over `atoms`, in the order of `masks`,
    each the shared set of `core.atom_set`.

    Each set is the union of a frozenset over the low half of the universe
    and one over the high half; the two tables are filled as masks need
    their entries, each entry a union of one-atom sets, which are made on
    first use, so that only they hash their atom.
    """
    if not masks:
        return []
    half = len(atoms) >> 1
    low_mask = (1 << half) - 1
    singles: list[frozenset[Atom] | None] = [None] * len(atoms)
    low: dict[int, frozenset[Atom]] = {0: _EMPTY}
    high: dict[int, frozenset[Atom]] = {0: _EMPTY}
    out = []
    for m in masks:
        lo = m & low_mask
        hi = m >> half
        lo_set = low.get(lo)
        if lo_set is None:
            lo_set = low[lo] = _subset(atoms, singles, lo, 0)
        hi_set = high.get(hi)
        if hi_set is None:
            hi_set = high[hi] = _subset(atoms, singles, hi, half)
        out.append(atom_set(lo_set | hi_set))
    return out


def _subset(atoms: Sequence[Atom], singles: list, mask: int, offset: int) -> frozenset[Atom]:
    """The set of the atoms whose bits are set in `mask << offset`, as a
    union of the one-atom sets in `singles`, made where missing."""
    parts = []
    for i in (_BYTE_BITS[mask] if mask < 256 else members(mask)):
        i += offset
        single = singles[i]
        if single is None:
            single = singles[i] = frozenset((atoms[i],))
        parts.append(single)
    return _EMPTY.union(*parts)


def upward(family: int, cols: Sequence[int]) -> int:
    """The masks that have a subset (not necessarily proper) in `family`."""
    for i, x in enumerate(cols):
        family |= (family ^ (family & x)) << (1 << i)
    return family


def downward(family: int, cols: Sequence[int]) -> int:
    """The masks that have a superset (not necessarily proper) in `family`."""
    for i, x in enumerate(cols):
        family |= (family & x) >> (1 << i)
    return family


def truth_vector(body: Body, index: dict[Atom, int], n: int) -> int:
    """The vector of the masks over n atoms at which the body holds;
    `index` gives each atom of the body its bit position."""
    cols = columns(n)
    if isinstance(body, LiteralConjunction):
        c = body.conjunct
        return _conjunction(c.positives, c.negatives, index, n, cols)
    if isinstance(body, CountAggregate):
        return _count(body, index, n, cols)
    if isinstance(body, Dnf):
        out = 0
        for d in body.disjuncts:
            out |= _conjunction(d.positives, d.negatives, index, n, cols)
        return out
    if isinstance(body, TruthTable):
        return _table(body, index, n, cols)
    raise TypeError(f"not a body: {body!r}")


def _conjunction(positives, negatives, index, n, cols) -> int:
    out = full(n)
    for a in positives:
        out &= cols[index[a]]
    for a in negatives:
        out ^= out & cols[index[a]]
    return out


def _count(body: CountAggregate, index, n, cols) -> int:
    """Every comparator against the bound k reads two counters: at least
    k and at least k + 1 of the m members, where at least 0 holds every
    mask and more than m none. So `at_least` counts only up to
    min(k + 1, m), 2 * min(k + 1, m) - 1 big-int steps per member, and
    the comparator costs at most two more."""
    k = body.bound
    m = len(body.atoms)
    ge = at_least(cols, map(index.__getitem__, body.atoms), min(k + 1, m))
    ge_k = full(n) if k == 0 else ge[k - 1] if k <= m else 0
    ge_next = ge[k] if k < m else 0  # at least k + 1
    cmp = body.comparator
    if cmp == ">=":
        return ge_k
    if cmp == ">":
        return ge_next
    if cmp == "<":
        return full(n) ^ ge_k
    if cmp == "<=":
        return full(n) ^ ge_next
    if cmp == "=":
        return ge_k ^ ge_next
    return full(n) ^ ge_k ^ ge_next  # "!="


def at_least(cols: Sequence[int], bits: Iterable[int], top: int) -> list[int]:
    """Counters over the columns of the bit positions `bits`, top >= 1:
    entry c - 1 holds the masks where at least c of those atoms are true,
    for c = 1 .. top. Each column x raises the counts from the top down,
    at least c gaining the masks of x at least c - 1, then at least 1
    gains x: 2 * top - 1 big-int steps per atom. Count bodies use it, and
    so do disjunctive heads with top = 2 (where the head is hit, where
    two of its atoms are true)."""
    ge = [0] * top
    for i in bits:
        x = cols[i]
        c = top - 1
        while c:  # cheaper than a range for the one or two steps of most calls
            ge[c] |= ge[c - 1] & x
            c -= 1
        ge[0] |= x
    return ge


def _table(body: TruthTable, index, n, cols) -> int:
    """A table over the whole universe is its own vector: bit j is set for
    each satisfying subset, whose mask is j. Any other table is the OR of
    one minterm conjunction per satisfying subset, as its `dnf{...}` is."""
    if len(body.domain) == n:
        bits = bytearray(((1 << n) + 7) >> 3)
        for s in body.satisfying:
            j = 0
            for a in s:
                j |= 1 << index[a]
            bits[j >> 3] |= 1 << (j & 7)
        return int.from_bytes(bits, "little")
    out = 0
    for s in body.satisfying:
        out |= _conjunction(s, body.domain - s, index, n, cols)
    return out
