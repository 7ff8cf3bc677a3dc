"""Independent oracles the tests check the implementation against.

Everything here works straight from the definitions on frozensets, using
only Body.eval: no kernel, no canonical ordering tricks, no shared code
with the paths under test.
"""

from itertools import chain, combinations

from gasp.core import CountAggregate, Dnf, LiteralConjunction, Program


def all_subsets(items):
    items = sorted(items)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )]


def decode(atoms, mask) -> frozenset:
    """The set of the atoms whose bits are set in `mask` (bit i is atoms[i])."""
    return frozenset(a for i, a in enumerate(atoms) if mask >> i & 1)


def prime_implicants(domain, holds) -> set:
    """Every prime implicant of the predicate `holds` over the subsets of
    `domain`, as a pair (P, N): the cube holds at the subsets that contain
    P and miss N. It implies `holds`, and no cube with one literal fewer
    does."""
    subsets = all_subsets(domain)

    def implicant(positives, negatives):
        return all(holds(s) for s in subsets if positives <= s and not negatives & s)

    return {
        (p, n)
        for p in subsets
        for n in all_subsets(frozenset(domain) - p)
        if implicant(p, n)
        and not any(implicant(p - {a}, n) for a in p)
        and not any(implicant(p, n - {a}) for a in n)
    }


def convex_by_triples(body) -> bool:
    """Literal transcription of the convexity condition over strict
    triples I < J < K of domain subsets: every J strictly between two
    satisfying subsets must itself satisfy the body."""
    subsets = all_subsets(body.domain)
    truth = {s: body.eval(s) for s in subsets}
    for i in subsets:
        if not truth[i]:
            continue
        for k in subsets:
            if not truth[k] or not i < k:
                continue
            for extra in all_subsets(k - i):
                j = i | extra
                if i < j < k and not truth[j]:
                    return False
    return True


def _names(atoms) -> tuple:
    return tuple(sorted(a.name for a in atoms))


def reference_body_key(body):
    """The comparison key of a body spelled in sorted name tuples, the
    reference `core.body_key` must match up to equality: the same two
    collapses (a DNF with an empty disjunct is the empty conjunction, a
    satisfiable table is its minterm DNF), with every atom group a sorted
    name tuple and every disjunct its (positive names, negative names)."""
    if isinstance(body, LiteralConjunction):
        c = body.conjunct
        return ("lit", _names(c.positives), _names(c.negatives))
    if isinstance(body, CountAggregate):
        return ("count", _names(body.atoms), body.comparator, body.bound)
    if isinstance(body, Dnf):
        pairs = {(_names(d.positives), _names(d.negatives)) for d in body.disjuncts}
    elif not body.satisfying:
        return ("table", _names(body.domain))
    else:
        pairs = {(_names(s), _names(body.domain - s)) for s in body.satisfying}
    if ((), ()) in pairs:
        return ("lit", (), ())
    return ("dnf", tuple(sorted(pairs)))


def model_oracle(interpretation, program) -> bool:
    return all(
        not r.body.eval(interpretation) or r.head & interpretation
        for r in program.rules
    )


def supported_oracle(interpretation, program) -> bool:
    if not model_oracle(interpretation, program):
        return False
    for a in interpretation:
        if not any(
            r.head & interpretation == {a} and r.body.eval(interpretation)
            for r in program.rules
        ):
            return False
    return True


def support_oracle(atom, interpretation, program) -> bool:
    """Whether the atom is supported at the interpretation in the sense of
    the SFLP compilation's support rules: it is false there, or some rule
    whose head is exactly {atom} has a body true there."""
    return atom not in interpretation or any(
        r.head == {atom} and r.body.eval(interpretation) for r in program.rules
    )


def completion_oracle(atom, program) -> frozenset:
    """The satisfying subsets of the completion table of `atom`: the
    interpretations I over atoms(P) that contain the atom while no rule
    with head ∩ I = {atom} has a true body at I."""
    return frozenset(
        i for i in all_subsets(program.atoms())
        if atom in i and not any(
            r.head & i == {atom} and r.body.eval(i) for r in program.rules
        )
    )


def reduct_oracle(program, interpretation) -> Program:
    return Program(r for r in program.rules if r.body.eval(interpretation))


def flp_oracle(interpretation, program) -> bool:
    if not model_oracle(interpretation, program):
        return False
    reduct = reduct_oracle(program, interpretation)
    return not any(
        model_oracle(j, reduct)
        for j in all_subsets(interpretation)
        if j != interpretation
    )


def sflp_oracle(interpretation, program) -> bool:
    if not supported_oracle(interpretation, program):
        return False
    reduct = reduct_oracle(program, interpretation)
    return not any(
        supported_oracle(j, reduct)
        for j in all_subsets(interpretation)
        if j != interpretation
    )


ORACLES = {
    "models": model_oracle,
    "supported": supported_oracle,
    "flp": flp_oracle,
    "sflp": sflp_oracle,
}


def enumerate_oracle(program, kind_name: str) -> set:
    predicate = ORACLES[kind_name]
    return {
        i for i in all_subsets(program.atoms()) if predicate(i, program)
    }
