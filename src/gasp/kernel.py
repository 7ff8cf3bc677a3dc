"""The enumeration kernel: bit-sliced set algebra on Python ints.

Every set of candidate masks is a vector (see `lowering`), so each step
below is a handful of big-int operations over all 2^n masks at once:

- models: the complement of the OR of the rules' violation vectors
  (body holds, head misses);
- supported models: the models where every true atom is the only true
  head atom of some rule whose body holds;
- FLP / SFLP answer sets: the models (supported models) I such that no
  proper subset of I is a model (supported model) of the reduct of I,
  the rules whose bodies hold at I.

The minimality test of a candidate I starts from the vector of I's proper
subsets, built by doubling over the atoms of I, so its big-int steps are
sized by I rather than by 2^n, and stops as soon as no subset is left.
The kernel holds the n columns, two vectors per rule (plus one per extra
head atom of a disjunctive rule in the supported modes) and a few
temporaries: about 2m + n vectors.
"""

from __future__ import annotations

from .lowering import (
    ENUM_FLP,
    ENUM_MODELS,
    ENUM_SUPPORTED,
    LoweredProgram,
    columns,
    full,
    members,
    truth_vector,
    upward,
)

NAME = "bitsliced"


def default_backend() -> str:
    """The name of the kernel (there is one)."""
    return NAME


def enumerate_masks(lp: LoweredProgram, mode: int) -> list[int]:
    """All masks over the lowered universe accepted by `mode`, increasing."""
    n = lp.n
    cols = columns(n)
    fired = []  # per rule: the masks where the body holds and the head is hit
    violated = []  # per rule: the masks where the body holds and the head is missed
    for head, body in zip(lp.heads, lp.bodies):
        holds = truth_vector(body, lp.index, n)
        hit = 0
        for i in members(head):
            hit |= cols[i]
        fired.append(holds & hit)
        violated.append(holds ^ (holds & hit))
    bad = 0
    for v in violated:
        bad |= v
    models = full(n) ^ bad
    if mode == ENUM_MODELS:
        return members(models)
    if mode == ENUM_FLP:
        # a model with a smaller model below it is blocked whatever its reduct
        candidates = models ^ (models & _above(models, cols))
        support = None
    else:
        support = _support(lp, fired, violated, cols)
        candidates = _supported(models, range(lp.rule_count), support, cols)
        if mode == ENUM_SUPPORTED:
            return members(candidates)
    accepted = []
    for i, reduct in _reducts(candidates, fired, n).items():
        blocking = _proper_subsets(i)
        for r in reduct:
            blocking ^= blocking & violated[r]
            if not blocking:
                break
        if blocking and support is not None:
            blocking = _supported(blocking, reduct, support, cols)
        if not blocking:
            accepted.append(i)
    return accepted


def _support(lp, fired, violated, cols) -> list[list[tuple[int, int]]]:
    """Per atom a, the (rule, vector) pairs of the rules that support a:
    the masks where the body holds and a is the only head atom hit."""
    out = [[] for _ in range(lp.n)]
    for r, head in enumerate(lp.heads):
        atoms = members(head)
        if len(atoms) == 1:
            out[atoms[0]].append((r, fired[r]))
            continue
        holds = fired[r] | violated[r]
        for a in atoms:
            vector = holds & cols[a]
            for b in atoms:
                if b != a:
                    vector ^= vector & cols[b]
            out[a].append((r, vector))
    return out


def _supported(family: int, rules, support, cols) -> int:
    """The masks of `family` where every true atom is supported by one of
    `rules`."""
    rules = set(rules)
    for a, pairs in enumerate(support):
        true_a = family & cols[a]
        if not true_a:
            continue
        kept = 0
        for r, vector in pairs:
            if r in rules:
                kept |= true_a & vector
        family ^= true_a ^ kept
    return family


def _above(family: int, cols) -> int:
    """The masks that have a proper subset in `family`."""
    up = upward(family, cols)
    out = 0
    for i, x in enumerate(cols):
        out |= (up ^ (up & x)) << (1 << i)
    return out


def _reducts(candidates: int, fired: list[int], n: int) -> dict[int, list[int]]:
    """The reduct of each candidate, in increasing candidate order. A
    candidate is a model, so a rule's body holds there exactly when the
    rule fires there."""
    reducts = {i: [] for i in members(candidates)}
    size = ((1 << n) + 7) >> 3
    for r, vector in enumerate(fired):
        data = vector.to_bytes(size, "little")  # O(1) bit tests
        for i, reduct in reducts.items():
            if data[i >> 3] >> (i & 7) & 1:
                reduct.append(r)
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
