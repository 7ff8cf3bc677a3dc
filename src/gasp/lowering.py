"""Bit-sliced form of a program, the input of the enumeration kernel.

Atoms get bit positions in canonical (name) order, so an interpretation
over a universe of n atoms is a mask J < 2^n. A *vector* is a Python int
with one bit per mask: bit J is set when some property holds at J. The
column of atom i, X_i, is the vector of the masks that contain i, and
every body becomes a vector through `truth_vector`, built from columns by
AND, OR and shifts. A vector takes 2^n / 8 bytes (128 KiB at n = 20).
Besides the kernel, `core.to_dnf`, `core.is_convex` and the completion
work on these vectors.

Masks go back to atom sets through `decode`, which builds each set as the
union of two frozensets over the low and the high half of the universe,
taken from lazily filled tables. Union and hashing reuse the stored hashes
of the tables' entries, so no atom is hashed per element. `interpretations`
first orders the masks by an integer rank (`rank_key`), the position of
the set among all 2^n subsets in canonical order; the completion, whose
tables are sets, decodes without it.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

from .core import (
    Atom,
    Body,
    CountAggregate,
    Dnf,
    Interpretation,
    LiteralConjunction,
    Program,
    TruthTable,
    atom_set,
    in_name_order,
)

# Enumeration modes of the kernel.
ENUM_MODELS = 0
ENUM_SUPPORTED = 1
ENUM_FLP = 2
ENUM_SFLP = 3

_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_NONZERO = re.compile(rb"[^\x00]+")
_EMPTY: frozenset[Atom] = frozenset()
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # bits of each byte reversed


class LoweredProgram:
    """Rules over a fixed universe: head masks plus the bodies themselves."""

    __slots__ = ("atoms", "index", "n", "heads", "bodies")
    atoms: tuple[Atom, ...]
    index: dict[Atom, int]
    n: int
    heads: list[int]
    bodies: list[Body]

    def __init__(self, atoms: tuple[Atom, ...], index: dict[Atom, int], n: int,
                 heads: list[int], bodies: list[Body]):
        self.atoms = atoms
        self.index = index
        self.n = n
        self.heads = heads
        self.bodies = bodies

    @property
    def rule_count(self) -> int:
        return len(self.heads)

    def mask_of(self, interpretation: Interpretation) -> int:
        mask = 0
        for a in interpretation:
            mask |= 1 << self.index[a]
        return mask


def lower(program: Program, universe: tuple[Atom, ...] | None = None) -> LoweredProgram:
    """Fix a program's atom universe (defaults to atoms(P), sorted)."""
    if universe is None:
        universe = tuple(in_name_order(program.atoms()))
    lp = LoweredProgram(universe, {a: i for i, a in enumerate(universe)}, len(universe), [], [])
    for rule in program.rules:
        lp.heads.append(lp.mask_of(rule.head))
        lp.bodies.append(rule.body)
    return lp


def full(n: int) -> int:
    """The vector of all 2^n masks."""
    return (1 << (1 << n)) - 1


def columns(n: int) -> list[int]:
    """X_0 .. X_{n-1}: period 2^(i+1), each period 2^i clear bits then 2^i set
    bits, repeated by doubling up to 2^n bits."""
    size = 1 << n
    out = []
    for i in range(n):
        half = 1 << i
        vector = ((1 << half) - 1) << half
        width = half << 1
        while width < size:
            vector |= vector << width
            width <<= 1
        out.append(vector)
    return out


def members(vector: int) -> list[int]:
    """The masks whose bits are set in a vector, in increasing order."""
    out = []
    if vector.bit_length() <= 512:  # a few words: peel off the lowest bit
        while vector:
            low = vector & -vector
            out.append(low.bit_length() - 1)
            vector ^= low
        return out
    data = vector.to_bytes((vector.bit_length() + 7) >> 3, "little")
    for run in _NONZERO.finditer(data):
        base = run.start() << 3
        for byte in run.group():
            out.extend([base + i for i in _BYTE_BITS[byte]])
            base += 8
    return out


def rank_key(n: int) -> Callable[[int], int]:
    """The sort key of masks over n atoms that gives canonical order (see
    `core.interp_sort_key`): the position of the set among all 2^n subsets
    in that order.

    Canonical order is the preorder of the tree whose children extend a set
    by a larger atom, so with r the mask bit-reversed over n bits (atom 0 on
    top) the rank of a mask m != 0 is popcount(m) + 2^n - r - (r & -r); the
    empty mask has rank 0.
    """
    size = (n + 7) >> 3
    shift = 8 * size - n
    top = 1 << n

    def rank(mask: int) -> int:
        if not mask:
            return 0
        if size > 1:
            r = int.from_bytes(mask.to_bytes(size, "little").translate(_REVERSED), "big")
        else:
            r = _REVERSED[mask]
        r >>= shift
        return mask.bit_count() + top - r - (r & -r)

    return rank


def interpretations(atoms: Sequence[Atom], masks: list[int]) -> list[frozenset[Atom]]:
    """The sets with the given masks over `atoms` (bit i is atoms[i], the
    atoms in name order), in canonical order, each the shared set of
    `core.atom_set`."""
    if len(masks) > 1:
        masks = sorted(masks, key=rank_key(len(atoms)))
    return decode(atoms, masks)


def decode(atoms: Sequence[Atom], masks: list[int]) -> list[frozenset[Atom]]:
    """The sets with the given masks over `atoms`, in the order of `masks`,
    each the shared set of `core.atom_set`.

    Each set is the union of a frozenset over the low half of the universe
    and one over the high half; the two tables are filled as masks need
    their entries.
    """
    half = len(atoms) >> 1
    low_mask = (1 << half) - 1
    low_atoms, high_atoms = atoms[:half], atoms[half:]
    low: dict[int, frozenset[Atom]] = {0: _EMPTY}
    high: dict[int, frozenset[Atom]] = {0: _EMPTY}
    out = []
    for m in masks:
        lo = low.get(m & low_mask)
        if lo is None:
            lo = low[m & low_mask] = _subset(low_atoms, m & low_mask)
        hi = high.get(m >> half)
        if hi is None:
            hi = high[m >> half] = _subset(high_atoms, m >> half)
        out.append(atom_set(lo | hi))
    return out


def _subset(atoms: Sequence[Atom], mask: int) -> frozenset[Atom]:
    return frozenset([atoms[i] for i in (_BYTE_BITS[mask] if mask < 256 else members(mask))])


def upward(family: int, cols: list[int]) -> int:
    """The masks that have a subset (not necessarily proper) in `family`."""
    for i, x in enumerate(cols):
        family |= (family ^ (family & x)) << (1 << i)
    return family


def downward(family: int, cols: list[int]) -> int:
    """The masks that have a superset (not necessarily proper) in `family`."""
    for i, x in enumerate(cols):
        family |= (family & x) >> (1 << i)
    return family


def truth_vector(
    body: Body, index: dict[Atom, int], n: int, cols: list[int] | None = None
) -> int:
    """The vector of the masks over n atoms at which the body holds.

    `index` gives each atom of the body its bit position; `cols` passes
    `columns(n)` when the caller already has it.
    """
    if cols is None:
        cols = columns(n)
    if isinstance(body, LiteralConjunction):
        return _conjunction(body.conjunct, index, n, cols)
    if isinstance(body, CountAggregate):
        return _count(body, index, n, cols)
    if isinstance(body, Dnf):
        out = 0
        for d in body.disjuncts:
            out |= _conjunction(d, index, n, cols)
        return out
    if isinstance(body, TruthTable):
        return _table(body, index, n)
    raise TypeError(f"not a body: {body!r}")


def _conjunction(conjunct, index, n, cols) -> int:
    out = full(n)
    for a in conjunct.positives:
        out &= cols[index[a]]
    for a in conjunct.negatives:
        out ^= out & cols[index[a]]
    return out


def _count(body: CountAggregate, index, n, cols) -> int:
    """Dynamic programming over the members: exact[c] holds the masks with
    exactly c of the members seen so far; counts above the bound can only
    matter through the complement, so they are dropped."""
    cap = min(body.bound, len(body.atoms))
    exact = [full(n)] + [0] * cap
    for a in body.atoms:
        x = cols[index[a]]
        for c in range(cap, 0, -1):
            exact[c] = (exact[c] ^ (exact[c] & x)) | (exact[c - 1] & x)
        exact[0] ^= exact[0] & x
    below = 0  # masks with fewer than `bound` members
    for c in range(min(body.bound, cap + 1)):
        below |= exact[c]
    at = exact[body.bound] if body.bound <= cap else 0
    cmp = body.comparator
    if cmp == "<":
        return below
    if cmp == "<=":
        return below | at
    if cmp == "=":
        return at
    if cmp == "!=":
        return full(n) ^ at
    if cmp == ">=":
        return full(n) ^ below
    return full(n) ^ below ^ at  # ">"


def _table(body: TruthTable, index, n) -> int:
    """Shannon expansion of the table's bits, one universe variable at a
    time from the top, so that the cost follows the table's structure
    rather than its number of satisfying subsets."""
    positions = sorted(index[a] for a in body.domain)
    local = {a: j for j, a in enumerate(sorted(body.domain, key=index.__getitem__))}
    bits = bytearray(((1 << len(positions)) + 7) >> 3)
    for s in body.satisfying:
        j = 0
        for a in s:
            j |= 1 << local[a]
        bits[j >> 3] |= 1 << (j & 7)
    table = int.from_bytes(bits, "little")
    return _expand(table, positions, len(positions), n, {})


def _expand(table: int, positions: list[int], j: int, k: int, memo: dict) -> int:
    """The vector over variables 0..k-1 of the function whose truth table
    over positions[:j] (all below k) is `table`: the half where variable
    k-1 is clear, then the half where it is set."""
    if not table:
        return 0
    if table == full(j):
        return full(k)
    if j == k:  # positions[:j] are exactly 0..k-1, so the table is the vector
        return table
    key = (table, k)
    out = memo.get(key)
    if out is not None:
        return out
    half = 1 << (k - 1)
    if positions[j - 1] == k - 1:
        width = 1 << (j - 1)
        low = table & ((1 << width) - 1)
        high = table >> width
        lo = _expand(low, positions, j - 1, k - 1, memo)
        hi = lo if high == low else _expand(high, positions, j - 1, k - 1, memo)
    else:
        lo = hi = _expand(table, positions, j, k - 1, memo)
    out = lo | hi << half
    memo[key] = out
    return out
