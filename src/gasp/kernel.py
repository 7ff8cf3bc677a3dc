"""The enumeration kernel: bit-sliced set algebra on Python ints.

Every set of candidate masks is a vector (see `lowering`), so each step
below is a handful of big-int operations over all 2^n masks at once:

- models: the complement of the OR of the rules' violation vectors
  (body holds, head misses);
- supported models: the models where every true atom a lies in the
  support vector of a rule with a in its head, the masks where its body
  holds and no two head atoms are true. These come out of the loop that
  builds the violation vectors (`rule_vectors`), which the completion
  shares, and the SFLP test against each reduct reads them too;
- FLP / SFLP answer sets: the supported models I such that no proper
  subset of I is a model (FLP) or a supported model (SFLP) of the reduct
  of I, the rules whose bodies hold at I.

FLP answer sets are supported models too: were a in I supported by no
rule, every rule of the reduct would have a true head atom other than a,
so I without a would be a smaller model of the reduct. So FLP, SFLP and
the one scan (`scan`, which the theorem battery reads) take one path:
the same candidates, the same split, the same early rejection, and one
loop (`_global_pass`) that tests each candidate against its reduct. A
candidate with no model of its reduct below it is an FLP answer set and,
as a supported model is a model, an SFLP one; only the others go on to
SFLP's support test, which first drops the blocking masks unsupported in
P (a rule of a reduct is a rule of P), one AND. The two semantics differ
there and in the family that the drop beyond n candidates reads, and
nowhere else. SFLP is not read off FLP on convex programs: that is a
theorem the battery checks.

Each pass lists only what its mode reads, and stops where that mode's
answer is known: the models and supported queries list the candidates,
FLP and SFLP their own answer sets, and the scan all three, the
supported models among them. Every other list is empty, so a split
builds products only of what its caller reads. Every list comes in
canonical order, the order of `lowering.rank_key`, so no caller sorts:
the models and supported queries list their vectors straight into that
order (`lowering.ordered`), and the answer sets, the scan's supported
models and a split's products, each listed by increasing mask first, are
sorted by rank.

A smaller candidate J below a candidate I is a supported model of P, so
a model of P and of I's reduct. If each true atom of J is supported at
J by a rule of I's reduct, J is a supported model of that reduct too,
and it blocks I for FLP and SFLP alike. Up to n candidates each I is
tested so against the smaller ones before its subset vector is built
(`_blocked_below`, a few small-int steps per pair, read off the
candidates' reducts): the full set of the 16-atom chain falls to either
of its two 8-atom supported models. Beyond n, where the pairs grow as
c^2, the candidates above a blocking family are dropped at once, in one
pass over all masks (`_above`, about 2n big-int steps), before their
reducts are read. For FLP the family is the models of P, each a model of
every reduct. For SFLP it is the mono-supported models, those whose true
atoms are each supported by a rule whose body vector is upward closed:
each supporting body, true at J, holds at every I above J, so its rule
is in I's reduct. One filter (`_supported`) keeps the masks of a family
whose true atoms are each supported by a rule of a list R: SFLP's subset
test runs it with R the candidate's reduct, and this drop with R the
rules whose body vectors are upward closed. So a program with many
supported models that are not minimal costs what its models cost: n
loops `a :- a.` have 2^n, and so do n such loops that the rule
`z :- count{a0, ...} > n.` joins into one part. Only the scan lists the
candidates that the drop removes. Which side of n the candidates fall on
is one `bit_count` over the candidate vector: reading candidates off its
top instead costs a pass over the vector per 64-bit window, and the 32
supported models spread over the 2^14 masks of perfbench's choice
gadgets took 15 windows, 8 us against 1.6 us for the count (best of
300).

The FLP and SFLP queries and the scan split the program (Lifschitz and
Turner's splitting): rules other than constraints that are linked
through shared head or body-domain atoms form one part (`_parts`), and
with two or more parts each is lowered on its own through `lower`, over
its own n_k atoms, and scanned with vectors of 2^{n_k} bits (`_split`).
For atom-disjoint parts the reduct of I is the union of the parts'
reducts, and I's share of each part is a supported model of that part's
reduct, so some J below I blocks I exactly when I's share of some part
is blocked in that part: the answer sets of both kinds are the products
of the parts' answer sets, and the parts' costs add up where the
candidates' would multiply. Splitting on anything else is not exact for
SFLP: `a :- a. b :- dnf{~b | a}.` has the SFLP answer set {a, b}, but its
bottom `a :- a.` has only the empty set, and its top at the empty set,
`b :- dnf{~b}.`, has none.

Parts often repeat: perfbench's choice gadgets are seven parts of two
shapes. So, as model counters cache components (Sang, Bacchus, Beame,
Kautz and Pitassi, SAT 2004), `_split` scans each distinct part once per
call. Before it is lowered, a part is keyed by what the scan reads of it
over its own positions: its rules' head masks and their bodies' truth
vectors (`_part_key`). Parts with equal keys are the same program up to
a renaming of atoms that keeps their order, however their bodies are
written (`a :- not b.`, `a :- count{b} = 0.` and `a :- dnf{~b}.` key
alike), so they share one scan's lists, placed at each part's own bits.
No other renaming is looked for, and the cache ends with the call. Every
distinct part is scanned before any product is built, and a part with
none of what the mode lists ends the call: FLP on the choice gadgets
stops at the gadget that has no FLP answer set.

Constraints join no part; they filter the product. A constraint supports
no atom, and at a model of P its body is false, so it is in the reduct
of no model. Hence I is a model, a supported model, or an FLP or SFLP
answer set of P exactly when it is one of P without its constraints and
no constraint body holds at I: the same reducts test the same subsets.
`_split` ORs the constraints' truth vectors and keeps the products whose
bit is clear, one byte lookup per product, then sorts them by rank.

Whether to split is decided in one place, from the mode and the universe
size alone (`_scan`): an FLP or SFLP query or the scan over more than
`_SPLIT_FIRST` atoms looks for parts first and, with two or more, builds
no vector over all 2^n masks. The models and supported queries never
split, and at `_SPLIT_FIRST` atoms or fewer one global pass tests at
most 2^8 candidates.

The reduct of each candidate is read rule by rule (`_reducts`), from the
set bits of the body vector's AND with the candidate vector or, for a
few wide candidates, by testing each candidate's bit, and the minimality
test of I starts from the vector of I's proper subsets, built by
doubling over the atoms of I. Both are sized by the candidates rather
than by 2^n. The FLP and SFLP queries and the scan hold the n columns,
two vectors per rule (SFLP and the scan three for a head of two or more
atoms), one per atom and a few temporaries; the models and supported
queries keep none per rule. A query or scan that splits holds one global
vector, the constraints' OR, each distinct part's vectors in turn, the
distinct parts' local lists, and the products of the lists its mode
reads, as many as the global pass would list.
"""

from __future__ import annotations

from typing import Iterator

from .core import Rule
from .lowering import (
    ENUM_FLP,
    ENUM_MODELS,
    ENUM_SFLP,
    ENUM_SUPPORTED,
    LoweredProgram,
    at_least,
    columns,
    full,
    lower,  # by name, so that perfbench's tracer counts each query's lowering once
    members,
    ordered,
    rank_key,
    truth_vector,
    upward,
)

NAME = "bitsliced"

# An FLP or SFLP query or the scan over more atoms than this looks for parts
# before it builds any vector (`_scan`). At this width or
# below a vector has at most 256 bits and the global pass costs less than
# `_parts` and the part keys: splitting first took 1.92-2.01 ms against
# 1.33-1.39 ms for the scans of the 112 battery programs of 2-5 atoms, and
# battery seed 58 (3 atoms) takes 13 us unsplit against 40 us split. The
# pass tests at most 2^8 candidates, so its worst case is bounded: 8 loops
# `a :- a.` take 27 us against 33 us split (the mono-support drop leaves
# one candidate, and the query lists none of the others), and 4 even
# loops, which it does not thin, 40 against 34 us. Above it the pass grows
# with 2^n: the 14-atom choice gadgets take 470-473 us as one pass against
# 76 us split, and the scan of 14 loops 2.4-2.5 ms against 1.5 ms, while
# `_parts` adds 10-11 us (4%) to the SFLP query on the 16-atom chain,
# which is one part (best of 20-1000 calls, one core of a shared 2-vCPU
# host, Python 3.11.7).
_SPLIT_FIRST = 8

# The mode of the one scan (`scan`): SFLP's pass, which also lists every
# supported model and the FLP answer sets. No `lowering.ENUM_*` has this
# value.
_SCAN = ENUM_SFLP + 1


def default_backend() -> str:
    """The name of the kernel (there is one)."""
    return NAME


def enumerate_masks(lp: LoweredProgram, mode: int) -> list[int]:
    """All masks over the lowered universe accepted by `mode`, in canonical
    order (`lowering.rank_key`)."""
    supported, flp, sflp = _scan(lp, mode)
    return flp if mode == ENUM_FLP else sflp if mode == ENUM_SFLP else supported


def scan(lp: LoweredProgram) -> tuple[list[int], list[int], list[int]]:
    """The supported models and the FLP and SFLP answer sets, each in
    canonical order, from one pass over the supported models, or over each
    part's where the program splits (`_scan`): each candidate's reduct test
    gives its FLP verdict on the way to its SFLP one."""
    return _scan(lp, _SCAN)


def _scan(lp: LoweredProgram, mode: int) -> tuple[list[int], list[int], list[int]]:
    """`_global_pass`'s three lists for `mode`, from one pass over the
    program or, for an FLP or SFLP query or the scan over more than
    `_SPLIT_FIRST` atoms whose program has two or more parts, from the
    parts alone (`_split`). The models and supported queries never split."""
    if mode >= ENUM_FLP and lp.n > _SPLIT_FIRST:
        parts = _parts(lp)
        if len(parts) > 1:
            return _split(lp, parts, mode)
    return _global_pass(lp, mode)


def _global_pass(lp: LoweredProgram, mode: int) -> tuple[list[int], list[int], list[int]]:
    """The candidates, then those FLP and SFLP accept, each in canonical
    order: the models and supported models listed so from their vector
    (`ordered`), the others sorted by rank. The pass stops where `mode`'s
    answer is known, and each list that `mode` does not read is empty:
    - models and supported models: the candidates, read before any
      per-rule vectors are kept;
    - FLP: its answer sets alone, `([], flp, [])`;
    - SFLP: its answer sets alone, `([], [], sflp)`;
    - `_SCAN`: all three, the first every supported model, those that the
      drop beyond n candidates keeps from the reduct loop included.
    Up to n candidates each is first tested against the smaller ones
    (`_blocked_below`); beyond n those above a smaller model of P (FLP) or
    a smaller mono-supported model (SFLP) are dropped (`_above`). One
    support filter (`_supported`) gives the mono-supported models, from the
    rules whose body vectors are upward closed, and SFLP's subset test,
    from each candidate's reduct."""
    n = lp.n
    cols = columns(n)
    support = [0] * n if mode != ENUM_MODELS else None
    bodies = []
    violated = []
    rule_support = []
    bad = 0
    minimal = mode != ENUM_MODELS and mode != ENUM_SUPPORTED
    sflp = mode != ENUM_FLP  # whether SFLP's support test runs
    for holds, hit, supports in rule_vectors(lp, support):
        misses = holds ^ (holds & hit)
        bad |= misses
        if minimal:  # the reduct tests read each rule's vectors
            bodies.append(holds)
            violated.append(misses)
            if sflp:
                rule_support.append(supports)
    models = full(n) ^ bad
    if mode == ENUM_MODELS:
        return ordered(models, n), [], []
    unsupported = 0  # the masks with a true atom that no rule supports
    for x, s in zip(cols, support):
        unsupported |= x ^ (x & s)
    candidates = models ^ (models & unsupported)
    if not minimal:
        return ordered(candidates, n), [], []
    # up to n candidates a smaller one supported in I's reduct blocks I for
    # both semantics; beyond n a smaller model of P blocks it for FLP and a
    # smaller mono-supported model for SFLP
    listed = None  # the scan's supported models, where the drop below removes some
    few = candidates.bit_count() <= n  # then each is tested against the smaller ones
    if not few:
        below = models
        if sflp:
            # the candidates supported by rules whose body vectors are upward
            # closed: a nonzero one holds at the full mask, and a zero one
            # supports nothing, so `upward` runs only on those that hold there
            top = (1 << n) - 1
            mono = [r for r, holds in enumerate(bodies)
                    if holds >> top & 1 and upward(holds, cols) == holds]
            below = _supported(candidates, mono, lp.heads, rule_support, cols)
        blocked = candidates & _above(below, cols)
        if blocked and mode == _SCAN:
            listed = members(candidates)
        candidates ^= blocked
    flp_accepted = []
    sflp_accepted = []
    reducts = _reducts(candidates, bodies)
    for i, reduct in reducts.items():
        if few and _blocked_below(i, reduct, reducts, lp.heads):
            continue
        blocking = _proper_subsets(i)
        for r in reduct:
            blocking ^= blocking & violated[r]
            if not blocking:
                break
        if not blocking:  # no model of the reduct below I: I is FLP and SFLP
            flp_accepted.append(i)
            sflp_accepted.append(i)
        elif sflp:
            # a mask supported in a reduct is supported in P
            blocking ^= blocking & unsupported
            if blocking:
                blocking = _supported(blocking, reduct, lp.heads, rule_support, cols)
            if not blocking:
                sflp_accepted.append(i)
    rank = rank_key(n)
    if mode == _SCAN:
        return (sorted(listed or reducts, key=rank), sorted(flp_accepted, key=rank),
                sorted(sflp_accepted, key=rank))
    if mode == ENUM_FLP:
        return [], sorted(flp_accepted, key=rank), []
    return [], [], sorted(sflp_accepted, key=rank)


def _parts(lp: LoweredProgram) -> list[tuple[int, list[Rule]]]:
    """The atom mask and the rules of each atom-disjoint part of the program
    without its constraints: two rules share a part when a chain of rules
    links them, each sharing a head or body-domain atom with the next. A
    part lists its rules in the order the walk meets them, except that a
    rule that joins parts comes after their rules, which are appended in
    place to the list of the first of them. Constraints join no part:
    `_split` filters by them."""
    index = lp.index
    parts = []
    for head, rule in zip(lp.heads, lp.rules):
        if not head:
            continue
        atoms = head
        for a in rule.body.domain:
            atoms |= 1 << index[a]
        rules = []
        apart = []
        for part in parts:
            if part[0] & atoms:
                atoms |= part[0]
                if rules:
                    rules += part[1]
                else:  # no part's list is empty: the first one joined grows in place
                    rules = part[1]
            else:
                apart.append(part)
        rules.append(rule)
        apart.append((atoms, rules))
        parts = apart
    return parts


def _split(lp: LoweredProgram, parts: list[tuple[int, list[Rule]]],
           mode: int) -> tuple[list[int], list[int], list[int]]:
    """`_global_pass`'s three lists for `mode`, each sorted into canonical
    order, of a program whose rules other than constraints make the
    atom-disjoint `parts` (`_parts`): the products of the parts' lists at which no
    constraint body holds (see the module docstring for why this is exact),
    so a list that `mode` does not read stays empty. A part's atoms keep
    their relative order, so its local bit j is the global bit `places[j]`.
    Each part is keyed before it is lowered (`_part_key`), and each
    distinct key is lowered through `lower` over its part's atoms and
    scanned once per call: parts with equal keys are the same program up
    to the order-preserving renaming of their atoms, so they share local
    lists, which `_spread` places at each part's own bits. Every distinct
    part is scanned before any product is built, and one whose lists are
    all empty ends the call. Atoms in no part are false in every
    candidate."""
    scanned = {}  # a part's key -> its three local lists
    placed = []  # each part's local lists and the global bits of its atoms
    for atoms, rules in parts:
        places = []
        local = {}  # each atom's local position, lowest global bit first
        while atoms:
            place = atoms & -atoms
            local[lp.atoms[place.bit_length() - 1]] = len(places)
            places.append(place)
            atoms ^= place
        key = _part_key(rules, local)
        lists = scanned.get(key)
        if lists is None:
            lists = scanned[key] = _global_pass(lower(rules, local), mode)
            if not any(lists):  # every product is empty
                return [], [], []
        placed.append((lists, places))
    found = [[0], [0], [0]]
    for lists, places in placed:
        for k, masks in enumerate(lists):
            if found[k]:  # an empty product stays empty
                found[k] = [i | m for m in _spread(masks, places) for i in found[k]]
    fires = 0
    for head, rule in zip(lp.heads, lp.rules):
        if not head:
            fires |= truth_vector(rule.body, lp.index, lp.n)
    if fires:
        data = fires.to_bytes(((1 << lp.n) + 7) >> 3, "little")
        found = [[m for m in masks if not data[m >> 3] >> (m & 7) & 1] for masks in found]
    rank = rank_key(lp.n)
    for masks in found:
        masks.sort(key=rank)
    return tuple(found)


def _part_key(rules: list[Rule], local: dict) -> frozenset:
    """What `_global_pass` reads of a part over its local positions
    (`local`, as `lower(rules, local)` numbers them): the set of its rules'
    head masks, each with its body's truth vector. Rule order and repeats
    change no answer, and an atom in no head is false in every candidate,
    so the bits the pass reads are fixed by the key alone: two parts with
    equal keys are the same program up to a renaming of atoms that keeps
    their order and up to how their bodies are written, with the same
    local lists."""
    n = len(local)
    return frozenset([(sum(1 << local[a] for a in rule.head), truth_vector(rule.body, local, n))
                      for rule in rules])


def _spread(masks: list[int], places: list[int]) -> list[int]:
    """Each mask with its bit j replaced by the bit `places[j]`."""
    out = []
    for mask in masks:
        spread = 0
        for place in places:
            if mask & 1:
                spread |= place
            mask >>= 1
        out.append(spread)
    return out


def rule_vectors(lp: LoweredProgram,
                 support: list[int] | None) -> Iterator[tuple[int, int, int]]:
    """Per rule, the masks where its body holds, the OR of its head columns
    (where its head is hit) and its support vector: where its body holds
    and no two head atoms are true, the body vector itself for a head of
    at most one atom. The last is ORed into `support[a]` for each head
    atom a, so a mask in X_a ends up in support[a] exactly when a is
    supported there; with `support` None (the models query) nothing is
    ORed. A caller that needs only `support` keeps no rule's vectors."""
    n = lp.n
    cols = columns(n)
    for head, rule in zip(lp.heads, lp.rules):
        holds = truth_vector(rule.body, lp.index, n)
        if not head:  # a constraint: its head is never hit
            yield holds, 0, holds
            continue
        if not head & (head - 1):  # one head atom
            a = head.bit_length() - 1
            if support is not None:
                support[a] |= holds
            yield holds, cols[a], holds
            continue
        atoms = members(head)
        hit, two = at_least(cols, atoms, 2)
        supports = holds ^ (holds & two)
        if support is not None:
            for a in atoms:
                support[a] |= supports
        yield holds, hit, supports


def _supported(family: int, rules: list[int], heads: list[int],
               rule_support: list[int], cols) -> int:
    """The masks of `family` where every true atom is supported by one of
    `rules`: where a is true, rule r supports it in `rule_support[r]` if a
    is in its head mask `heads[r]`. Each step is sized by `family`, and an
    atom true in none of its masks costs one AND. The atoms go highest
    first, so a drop at the top atom clears the family's upper masks: on
    `bench_kernels.py`'s 7 even loops and 2 p5 gadgets, whose atoms that
    lose support hold the top bits, lowest first took 248 ms against
    105 ms (best of 5, one core of a shared 2-vCPU host)."""
    for a in reversed(range(len(cols))):
        true_a = family & cols[a]
        if not true_a:
            continue
        kept = 0
        for r in rules:
            if heads[r] >> a & 1:
                kept |= true_a & rule_support[r]
        family ^= true_a ^ kept
        if not family:
            break
    return family


def _blocked_below(candidate: int, reduct: list[int], reducts: dict[int, list[int]],
                   heads: list[int]) -> bool:
    """Whether a smaller candidate J, a subset of `candidate`, has each true
    atom supported at J by a rule of `reduct`, the candidate's reduct.
    `reducts` maps each candidate, increasing, to its own reduct, and
    `heads` holds each rule's head mask: a rule supports at J the head atom
    true there when its body holds at J and no other head atom is true, as
    `rule_vectors` builds support. J is a model of P, hence of the reduct,
    so it is then a supported model of the reduct below the candidate and
    blocks it for SFLP and FLP alike. Each step is a small-int operation."""
    fired = None
    for j, rules in reducts.items():
        if j >= candidate:
            return False
        if j & candidate != j:
            continue
        if fired is None:
            fired = set(reduct)
        supported = 0
        for r in rules:
            true = heads[r] & j
            if not true & (true - 1) and r in fired:
                supported |= true
        if supported == j:
            return True
    return False


def _above(family: int, cols) -> int:
    """The masks that have a proper subset in `family`."""
    up = upward(family, cols)
    out = 0
    for i, x in enumerate(cols):
        out |= (up ^ (up & x)) << (1 << i)
    return out


def _reducts(candidates: int, bodies: list[int]) -> dict[int, list[int]]:
    """The reduct of each candidate, in increasing candidate order: the
    rules whose body vectors (`bodies`) hold it. Peeling a rule's hits off
    its AND with the candidate vector builds and XORs an int as long as
    each hit's mask; testing candidate i's bit in a vector of w bits reads
    a probe of i bits or a shift that leaves w - i, whichever is shorter,
    but for every rule, hit or not. So the hits are peeled while every
    candidate is below 64 or the candidates outnumber the rules, and the
    listed candidates' bits are tested otherwise. Testing took 28 against
    58 us for peeling on the 16-atom chain (3 candidates of 2^16 bits, near
    the top) and 510 against 593 us for the calls of the theorem checks of
    the 112 battery programs; 8 loops `a :- a.` (256 candidates) and the
    battery programs' scans (candidates below 32) stay at the peel's 168
    and 96 us, where testing alone took 298 and 160 us (best of 30-150
    calls, one core of a shared 2-vCPU host)."""
    reducts = {i: [] for i in members(candidates)}
    if candidates >> 64 and len(reducts) <= len(bodies):
        width = max(map(int.bit_length, bodies))
        for i, rules in reducts.items():
            if i << 1 < width:
                probe = 1 << i
                rules += [r for r, vector in enumerate(bodies) if vector & probe]
            else:
                rules += [r for r, vector in enumerate(bodies) if vector >> i & 1]
        return reducts
    for r, vector in enumerate(bodies):
        hits = vector & candidates
        while hits:
            i = hits.bit_length() - 1
            reducts[i].append(r)
            hits ^= 1 << i
    return reducts


def _proper_subsets(mask: int) -> int:
    """The vector of the proper subsets of `mask`: the cube of its subsets,
    doubled by one shift-OR per atom of `mask`, lowest first (the shift of
    atom i is its bit 2^i), without bit `mask`. Each step costs what the
    subsets found so far take."""
    out = 1
    rest = mask
    while rest:
        low = rest & -rest
        out |= out << low
        rest ^= low
    return out ^ (1 << mask)
