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
so I without a would be a smaller model of the reduct. So both
semantics scan the same candidates, in one loop (`_scan`) that tests
each of them against its reduct. A candidate with no model of its reduct
below it is an FLP answer set and, as a supported model is a model, an
SFLP one; only the others go on to SFLP's support test, which first
drops the blocking masks unsupported in P (a rule of a reduct is a rule
of P), one AND. One pass (`scan`) thus gives the supported models and
both kinds of answer sets, which the theorem battery reads together;
`enumerate_masks` reads one mode off the same loop, which stops where
that mode's answer is known. A smaller model of P below a candidate
blocks it for FLP, since a model of P is a model of every reduct, so
the reduct test rejects it. The FLP query alone drops such candidates
before their reduct loops: up to n candidates one by one, one AND of a
candidate's proper subsets with the models; beyond n, all at once in
one pass over all masks (`_above`, about 2n big-int steps), so that a
program with many supported models that are not minimal (n loops
`a :- a.` have 2^n) costs what its models cost. The scan keeps testing
them against their reducts, as SFLP's verdict needs the reduct.

No such pass is known for SFLP, whose blocking family depends on the
reduct. Past the same gate, more than n candidates, SFLP and the scan
split the program instead (Lifschitz and Turner's splitting): rules
linked through shared head or body-domain atoms form one part
(`_parts`), and with two or more parts each is lowered on its own
through `lower`, over its own n_k atoms, and scanned with vectors of
2^{n_k} bits (`_split`). For atom-disjoint parts the reduct of I is the
union of the parts' reducts, and I's share of each part is a supported
model of that part's reduct, so some J below I blocks I exactly when
I's share of some part is blocked in that part: the answer sets are the
products of the parts' answer sets, and the parts' costs add up where
the candidates' would multiply. The supported models stay the global
candidates, and `enumerate_masks` never lists them for an SFLP query.
FLP alone does not split: `_above` already costs what its models cost.

The reduct of each candidate is read rule by rule, one AND of the body
vector with the candidate vector and then its few set bits, and the
minimality test of I starts from the vector of I's proper subsets, built
by doubling over the atoms of I. Both are sized by the candidates rather
than by 2^n. The FLP and SFLP queries and the scan hold the n columns,
two vectors per rule (SFLP and the scan three for a head of two or more
atoms), one per atom and a few temporaries; the models and supported
queries keep none per rule.
"""

from __future__ import annotations

from typing import Iterator

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
    truth_vector,
    upward,
)

NAME = "bitsliced"


def default_backend() -> str:
    """The name of the kernel (there is one)."""
    return NAME


def enumerate_masks(lp: LoweredProgram, mode: int) -> list[int]:
    """All masks over the lowered universe accepted by `mode`, increasing."""
    candidates, flp, sflp = _scan(lp, mode)
    return flp if mode == ENUM_FLP else sflp if mode == ENUM_SFLP else members(candidates)


def scan(lp: LoweredProgram) -> tuple[list[int], list[int], list[int]]:
    """The supported models and the FLP and SFLP answer sets, each
    increasing, from one pass over the supported models: each candidate's
    reduct test gives its FLP verdict on the way to its SFLP one."""
    candidates, flp, sflp = _scan(lp, ENUM_SFLP)
    return members(candidates), flp, sflp


def _scan(lp: LoweredProgram, mode: int) -> tuple[int, list[int], list[int]]:
    """The vector of the candidates, then the lists of those FLP and SFLP
    accept, each increasing. The loop stops where `mode`'s answer is known:
    models and supported models are the candidates, read before any
    per-rule vectors are kept; FLP alone passes over the candidates above a
    smaller model of P and skips the support test (its SFLP list then holds
    only the FLP answer sets); SFLP runs every step, so its candidates are
    the supported models, and beyond n of them it scans each atom-disjoint
    part of the program on its own (`_split`)."""
    n = lp.n
    cols = columns(n)
    support = [0] * n
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
        return models, [], []
    unsupported = 0  # the masks with a true atom that no rule supports
    for x, s in zip(cols, support):
        unsupported |= x ^ (x & s)
    candidates = models ^ (models & unsupported)
    if not minimal:
        return candidates, [], []
    # a smaller model of P is a model of every reduct, so it blocks I
    blockers = 0  # FLP alone: the models of P tested under each candidate
    if candidates.bit_count() > n:
        if not sflp:
            candidates ^= candidates & _above(models, cols)
        else:
            parts = _parts(lp)
            if len(parts) > 1:
                return candidates, *_split(lp, parts)
    elif not sflp:
        blockers = models
    heads = [members(h) for h in lp.heads] if sflp else None
    flp_accepted = []
    sflp_accepted = []
    reducts = _reducts(candidates, bodies)
    for i, reduct in reducts.items():
        blocking = _proper_subsets(i)
        if blocking & blockers:
            continue
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
                blocking = _supported(blocking, reduct, heads, rule_support, cols)
            if not blocking:
                sflp_accepted.append(i)
    return candidates, flp_accepted, sflp_accepted


def _parts(lp: LoweredProgram) -> list[tuple[int, list[int]]]:
    """The atom-disjoint parts of the program, each the mask of its atoms
    and its rules: two rules share a part when a chain of rules links them,
    each sharing a head or body-domain atom with the next. A rule over no
    atom is left out: its body is constant, and false wherever the program
    has a model."""
    index = lp.index
    parts = []
    for r, (head, rule) in enumerate(zip(lp.heads, lp.rules)):
        atoms = head
        for a in rule.body.domain:
            atoms |= 1 << index[a]
        if not atoms:
            continue
        rules = [r]
        apart = []
        for part in parts:
            if part[0] & atoms:
                atoms |= part[0]
                rules += part[1]
            else:
                apart.append(part)
        apart.append((atoms, rules))
        parts = apart
    return parts


def _split(lp: LoweredProgram, parts: list[tuple[int, list[int]]]) -> tuple[list[int], list[int]]:
    """The FLP and SFLP answer sets, each increasing, of a program made of
    atom-disjoint `parts`: the products of the parts' answer sets, each
    part lowered through `lower` over its own atoms and scanned (see the
    module docstring for why the products are exact). A part's atoms keep
    their relative order, so its bit j is `bits[j]`. Atoms in no part are
    false in every candidate."""
    flp = [0]
    sflp = [0]
    for atoms, rules in parts:
        bits = members(atoms)
        part = lower([lp.rules[r] for r in rules], [lp.atoms[b] for b in bits])
        _, part_flp, part_sflp = _scan(part, ENUM_SFLP)
        if not part_sflp:  # FLP answer sets are SFLP ones: none of either
            return [], []
        flp = [i | m for m in _spread(part_flp, bits) for i in flp]
        sflp = [i | m for m in _spread(part_sflp, bits) for i in sflp]
    flp.sort()
    sflp.sort()
    return flp, sflp


def _spread(masks: list[int], bits: list[int]) -> list[int]:
    """Each mask with its bit j moved to bit `bits[j]`."""
    out = []
    for mask in masks:
        spread = 0
        for j, b in enumerate(bits):
            if mask >> j & 1:
                spread |= 1 << b
        out.append(spread)
    return out


def rule_vectors(lp: LoweredProgram, support: list[int]) -> Iterator[tuple[int, int, int]]:
    """Per rule, the masks where its body holds, the OR of its head columns
    (where its head is hit) and its support vector: where its body holds
    and no two head atoms are true, the body vector itself for a head of
    at most one atom. The last is ORed into `support[a]` for each head
    atom a, so a mask in X_a ends up in support[a] exactly when a is
    supported there.
    A caller that needs only `support` keeps no rule's vectors."""
    n = lp.n
    cols = columns(n)
    for head, rule in zip(lp.heads, lp.rules):
        holds = truth_vector(rule.body, lp.index, n)
        if not head:  # a constraint: its head is never hit
            yield holds, 0, holds
            continue
        if not head & (head - 1):  # one head atom
            a = head.bit_length() - 1
            support[a] |= holds
            yield holds, cols[a], holds
            continue
        atoms = members(head)
        hit, two = at_least(cols, atoms, 2)
        supports = holds ^ (holds & two)
        for a in atoms:
            support[a] |= supports
        yield holds, hit, supports


def _supported(family: int, rules: list[int], heads: list[list[int]],
               rule_support: list[int], cols) -> int:
    """The masks of `family`, each a model of `rules`, where every true atom
    is supported by one of `rules`: where a is true, rule r supports it in
    `rule_support[r]`; `heads` lists each rule's head atoms. Each step is
    sized by `family`."""
    by_atom = [[] for _ in cols]
    for r in rules:
        for a in heads[r]:
            by_atom[a].append(r)
    for a, x in enumerate(cols):
        true_a = family & x
        if not true_a:
            continue
        kept = 0
        for r in by_atom[a]:
            kept |= true_a & rule_support[r]
        family ^= true_a ^ kept
        if not family:
            break
    return family


def _above(family: int, cols) -> int:
    """The masks that have a proper subset in `family`."""
    up = upward(family, cols)
    out = 0
    for i, x in enumerate(cols):
        out |= (up ^ (up & x)) << (1 << i)
    return out


def _reducts(candidates: int, bodies: list[int]) -> dict[int, list[int]]:
    """The reduct of each candidate, in increasing candidate order: the
    rules whose body vectors (`bodies`) hold it. Per rule, one AND with the
    candidate vector, then its set bits from the top: the step that reads
    candidate I costs what I's bits take, as its minimality test does."""
    reducts = {i: [] for i in members(candidates)}
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
