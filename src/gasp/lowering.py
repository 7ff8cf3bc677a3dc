"""Bit-sliced form of a program, the input of the enumeration kernel:
a `LoweredProgram`, whose one constructor is `lower`.

Atoms get bit positions in reverse name order (`positions`, the one
place that numbers atoms): over a universe of n atoms the name-first
atom holds bit n - 1 and the name-last bit 0, so an interpretation is a
mask J < 2^n. A *vector* is a Python int with one bit per mask: bit J
is set when some property holds at J. The column of atom i, X_i, is the
vector of the masks that contain i, and every body becomes a vector
through `truth_vector`, built from columns by AND, OR and shifts. A
count body against the bound k reads "at least k" and "at least k + 1"
of its m members off counters kept up to min(k + 1, m) (`at_least`),
each started from its first term, at most 2 * min(k + 1, m) - 1 steps
per member; the kernel counts the true atoms of a disjunctive head with
the same counters, up to two. A truth table over the whole universe is
its own vector, one bit per satisfying subset; any other is the OR of one
minterm conjunction per satisfying subset, so it costs what its minterm
DNF costs. A vector takes 2^n / 8 bytes (128 KiB at n = 20). The
columns and the all-masks vector of a width (`columns`, `full`) are built
once and shared by every later caller: (n + 1) * 2^n / 8 bytes per width
used, and n // 2 - 1 vectors more where `ordered` reads a dense vector
as rows. Besides the kernel, the completion works on these vectors, and
`compile.closure_rules` and the body analyses defined here, `to_dnf`
and `is_convex`, on the vector of one body over its own domain
(`body_vector`).

`members` lists the masks of a vector at a cost that follows its set
bits more than its width: one `bit_count` over the vector picks the path.
At most `_PEELED` set bits come off the top by 64-bit windows, one shift
and one XOR over the vector each; more go to a scan of the whole vector
by 64-bit words, whose zero words are skipped in C. No sparse vector pays
a byte copy over its whole width. `ordered` lists them in canonical
order, the order of the kernel's answers: by their rank, the position of
the set among all 2^n subsets in canonical order. With the name-first
atom on top, the rank of a mask m is the closed form
(popcount(m) - m - (m & -m)) mod 2^n (`rank_key`). A vector with fewer
than 4 * 2^(n // 2) set bits, or over at most 8 atoms, has `members`
sorted by rank; a denser one is permuted row by row into canonical order
and its rows walked in the preorder of their high halves, with no key
call per mask.

Masks go back to atom sets only here, through `decode`, in the order
given. With fewer masks than the 2^(n // 2) entries of a table over the
low half of the universe, or over at most 8 atoms, it builds each set on
its own from the atoms that its mask's byte
selectors pick. With more, some low half must serve several masks, and
each set is the union of two frozensets from tables of every subset of
the low and of the high half of the universe, whose entries are unions
of one-atom sets: union and hashing reuse the stored hashes of those
sets, so each atom is hashed once per call, not once per element. The
completion, whose tables are sets, and the closure rules, which sort
their cubes themselves, decode in mask order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import compress

from .core import (
    DEFAULT_ATOM_LIMIT,
    Atom,
    Body,
    Conjunct,
    CountAggregate,
    Dnf,
    LiteralConjunction,
    Program,
    Rule,
    TooManyAtoms,
    TruthTable,
    UnsatisfiableBody,
    atom_set,
)

# Enumeration modes of the kernel.
ENUM_MODELS = 0
ENUM_SUPPORTED = 1
ENUM_FLP = 2
ENUM_SFLP = 3

_BYTE_SELECTORS = tuple(tuple(b >> i & 1 for i in range(8)) for b in range(256))
_EMPTY: frozenset[Atom] = frozenset()

# The width tables of `full`, `columns` and `ordered` (`_order_tables`):
# an entry is never changed once stored, so every caller may share it.
_FULL: dict[int, int] = {}
_COLUMNS: dict[int, tuple[int, ...]] = {}
_ORDER: dict[int, tuple] = {}

# `members` peels at most this many set bits off a vector's top; a vector
# with more goes to the word scan, whatever its width. One `bit_count` picks
# the path: 3.8 us over 2^16 bits, 15 us over 2^18 and 59 us over 2^20. A
# window costs one pass over what is left of the vector, the word scan one
# pass over its bytes plus its per-bit work, so peeling wins up to about
# this many spread bits: peeling 64 random bits took 0.52 of the scan's
# time at 2^16, 0.63 at 2^18 and 0.77 at 2^20, and 128 bits 0.66, 0.92 and
# 1.27. The 91 models of perfbench's 16-atom chain are peeled in 37-38 us
# against 64-66 us for the scan. The 159 models of an 18-atom chain
# (169-190 us) and the 278 of a 20-atom chain (0.59-0.65 ms) are scanned,
# where a projection of the bits still to come from those peeled so far
# took 63-144 us and 0.32-0.95 ms: less where the models cluster at the
# top, more where they grow denser below it, so that it could not be
# bounded (best of 20-60 calls, three name orders, one core of a shared
# 2-vCPU host, Python 3.11.7).
_PEELED = 128


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


def to_dnf(body: Body, max_domain: int = DEFAULT_ATOM_LIMIT) -> Dnf:
    """Minterm DNF of a body: one full conjunct per satisfying subset.

    Disjuncts come out in the canonical subset order, so the result is a
    unique normal form for each (domain, truth function) pair. Raises
    UnsatisfiableBody when no subset of the domain satisfies the body.
    """
    items, vector = body_vector(body, max_domain, "dnf expansion")
    if not vector:
        raise UnsatisfiableBody("body is false on every subset of its domain")
    dom = body.domain
    disjuncts = []
    for subset in decode(items, ordered(vector, len(items))):
        disjuncts.append(Conjunct(subset, dom - subset))
    return Dnf(tuple(disjuncts))


def is_convex(body: Body, max_domain: int = DEFAULT_ATOM_LIMIT) -> bool:
    """Whether truth survives between any two nested satisfying subsets.

    The body is non-convex exactly when some false J has a satisfying
    subset below it and a satisfying superset above it, which the subset
    and superset closures of the truth vector decide at once.
    """
    items, true = body_vector(body, max_domain, "convexity scan")
    n = len(items)
    cols = columns(n)
    false = full(n) ^ true
    return not false & upward(true, cols) & downward(true, cols)


def is_convex_program(program: Program, max_domain: int = DEFAULT_ATOM_LIMIT) -> bool:
    return all(is_convex(r.body, max_domain) for r in program.rules)


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

    One `bit_count` picks the path. At most `_PEELED` set bits come off
    from the top, by 64-bit windows from the top set bit down: each window
    is one shift and one XOR over the vector, and its bits are then read
    off a small int, so a sparse vector costs what its bits cost and bits
    that cluster share a window. More set bits than that go to a word scan
    of the whole vector: the zero 64-bit words are skipped in C
    (`itertools.compress` over the words of its bytes), which costs about
    30 us per 1024 words however few bits are set, and the bits of the
    others are peeled off, lowest first.
    """
    return _members(vector, vector.bit_count())


def _members(vector: int, count: int) -> list[int]:
    """`members` of a vector with `count` set bits."""
    out = []
    if count > _PEELED:
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
    while vector:  # highest first
        shift = vector.bit_length() - 64
        if shift > 0:
            word = vector >> shift
            vector ^= word << shift
            if word == 1 << 63:  # a bit alone in its window, as spread bits are
                out.append(shift + 63)
                continue
        else:
            shift, word, vector = 0, vector, 0
        while word:
            i = word.bit_length() - 1
            out.append(shift + i)
            word ^= 1 << i
    out.reverse()
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


def ordered(vector: int, n: int) -> list[int]:
    """The masks whose bits are set in a vector over n atoms, in canonical
    order: increasing `rank_key` rank.

    Sparse, with fewer than 4 * 2^h set bits, h = n // 2, or with n <= 8:
    `members`, sorted by rank. Dense: the vector is
    read as 2^(n - h) rows of 2^h bits, row `hi` holding the masks
    hi << h | lo. Canonical order over the low h atoms follows
    C_k = [0] ++ (t | C_{k-1}) ++ C_{k-1}[1:], t = 2^(k-1), so h - 1
    rounds permute every row at once, each within blocks of 2^k bits whose
    halves are already in C_{k-1} order: the first bit stays, the upper
    half moves down by 2^(k-1) - 1 and the rest of the lower half up by
    2^(k-1), three masked shifts over the vector. Then bit r of a row is
    the mask whose low part has rank r. The rows are walked in preorder
    of their high subsets: a row's mask with lo = 0 comes at the entry of
    the subtree of `hi`, and its other masks, lowest rank first, at the
    subtree's exit, after every mask with more high atoms. The walk runs
    backwards, peeling each row from its top bit, and the list is
    reversed at the end. Each bit costs a few small-int steps and no key
    call: the 3^7 models of the 14-atom choice gadgets take 0.22 ms
    against 0.65 ms for `members` sorted by rank, all 2^16 masks over 16
    atoms 5.2 ms against 21.6 ms. The rounds and the walk cost what the
    width and the rows cost, so a few bits per row do not pay for them:
    on random families over 9-20 atoms the rows took 1.0-2.6 times as
    long as the sort at 2^h set bits, 0.58-1.6 times at 2 * 2^h and
    0.47-0.94 times at 4 * 2^h (best of 7-10, one core of a shared 2-vCPU
    host, Python 3.11.7). The permutation's block vectors and the walk are
    built once per width (`_order_tables`): (h - 1) * 2^n / 8 bytes.
    """
    count = vector.bit_count()
    if n <= 8 or count < 4 << (n >> 1):
        return sorted(_members(vector, count), key=rank_key(n))
    starts, lows, walk, bits = _order_tables(n)
    cols = columns(n)
    for k, start in enumerate(starts, 2):
        half = 1 << (k - 1)
        up = vector & cols[k - 1]
        down = vector ^ up
        first = down & start
        vector = first | up >> (half - 1) | (down ^ first) << half
    width = 1 << ((n >> 1) - 3)  # bytes per row
    data = vector.to_bytes(1 << (n - 3), "little")
    out = []
    for start, base, leave in walk:
        if leave:
            word = int.from_bytes(data[start:start + width], "little") >> 1
            while word:
                r = word.bit_length()  # the rank of the row's highest mask left
                out.append(base | lows[r])
                word ^= bits[r]
        elif data[start] & 1:
            out.append(base)
    out.reverse()
    return out


def _order_tables(n: int) -> tuple[tuple[int, ...], list[int], list[tuple[int, int, bool]],
                                   list[int]]:
    """The tables of `ordered`'s dense path over n > 8 atoms, h = n // 2,
    built once per width: for k = 2 .. h the vector of the first bit of
    every block of 2^k bits; the low masks by rank, lows[r] of
    rank r over h atoms; the walk, backwards, as (byte offset of the row,
    hi << h, whether the subtree exits); and bits[r] = 2^(r - 1)."""
    out = _ORDER.get(n)
    if out is not None:
        return out
    h = n >> 1
    cols = columns(n)
    start = full(n) ^ cols[0]
    starts = []
    for x in cols[1:h]:
        start ^= start & x
        starts.append(start)
    width = 1 << (h - 3)
    walk = []
    stack = [(0, n - h, False)]  # (hi, the high atoms below hi's lowest, exiting)
    while stack:
        hi, below, leave = stack.pop()
        walk.append((hi * width, hi << h, leave))
        if not leave:
            stack.append((hi, below, True))
            stack.extend((hi | 1 << b, b, False) for b in range(below))
    walk.reverse()
    lows = sorted(range(1 << h), key=rank_key(h))
    bits = [0] + [1 << r for r in range(1 << h)]
    return _ORDER.setdefault(n, (tuple(starts), lows, walk, bits))


def decode(atoms: Sequence[Atom], masks: list[int]) -> list[frozenset[Atom]]:
    """The sets with the given masks over `atoms`, in the order of `masks`,
    each the shared set of `core.atom_set`.

    With fewer masks than the 2^h entries of a table over the low
    h = n // 2 bits, or with n <= 8, each set is built on its own: the
    atoms that the mask's per-byte selectors pick (`compress`), each of
    them hashed. Otherwise each set is the union of two entries of tables
    over the low h and the high n - h atoms (`_unions`), built in full,
    so that only their one-atom sets hash an atom. With 2^h masks or more
    some low entry must serve several masks, and the tables save more
    hashing than they cost: the 2187 models of the 14-atom choice gadgets
    take 1.2 ms through them (best of 200) and 2.2-2.7 ms set by set.
    Below that an entry may serve one mask alone: the 91 models of
    perfbench's 16-atom chain (atom names permuted) take 108-165 us set by
    set and 121-272 us through tables filled only where a mask needed an
    entry, three models of a 4-atom chain 2-4 us against 5-10 us (best of
    50-300 calls, as for `_PEELED`).
    """
    n = len(atoms)
    if n <= 8 or len(masks) < 1 << (n >> 1):
        out = []
        for m in masks:
            selectors = _BYTE_SELECTORS[m & 255]
            m >>= 8
            while m:
                selectors += _BYTE_SELECTORS[m & 255]
                m >>= 8
            out.append(atom_set(compress(atoms, selectors)))
        return out
    half = n >> 1
    low = _unions(atoms[:half])
    high = _unions(atoms[half:])
    low_mask = (1 << half) - 1
    return [atom_set(low[m & low_mask] | high[m >> half]) for m in masks]


def _unions(atoms: Sequence[Atom]) -> list[frozenset[Atom]]:
    """The set of every mask over `atoms`, indexed by mask: one doubling
    step per atom, each new entry an earlier one united with the atom's
    one-atom set, so each atom is hashed once."""
    table = [_EMPTY]
    for a in atoms:
        single = frozenset((a,))
        table += [s | single for s in table]
    return table


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
    for c = 1 .. top, and is 0 where there are fewer than c atoms. Each
    column x raises the counts from the top down, at least c gaining the
    masks of x at least c - 1, then at least 1 gains x: at most 2 * top - 1
    big-int steps per atom. A counter starts from its first term, the
    first column itself or the AND that first reaches it, so no step ORs
    into zero. Count bodies use it, and so do disjunctive heads with
    top = 2 (where the head is hit, where two of its atoms are true)."""
    ge = []
    for i in bits:
        x = cols[i]
        c = len(ge)
        if c < top:
            ge.append(ge[c - 1] & x if c else x)
            if not c:
                continue
        c -= 1
        while c:  # cheaper than a range for the one or two steps of most calls
            ge[c] |= ge[c - 1] & x
            c -= 1
        ge[0] |= x
    ge += [0] * (top - len(ge))
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
