"""Model, supportedness, and answer-set machinery.

The per-interpretation predicates work directly on the AST and accept any
interpretation. Exhaustive enumeration restricts candidates to subsets of
the program's own atoms (a foreign atom can never be supported and always
breaks minimality) and runs on the bitmask kernel, one query at a time
or, for the supported models and both kinds of answer sets together, in
one kernel pass; each completion table is decoded from the same truth
vectors, over its atom's local domain.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence

from . import kernel, lowering
from .core import (
    Atom,
    DEFAULT_ATOM_LIMIT,
    GaspError,
    Interpretation,
    Program,
    Rule,
    TruthTable,
    subsets_in_canonical_order,
)


class UnknownAtom(GaspError):
    """The atom does not occur in the program."""


class SemanticsKind(enum.Enum):
    CLASSICAL = "models"
    SUPPORTED = "supported"
    FLP = "flp"
    SFLP = "sflp"


_ENUM_MODE = {
    SemanticsKind.CLASSICAL: lowering.ENUM_MODELS,
    SemanticsKind.SUPPORTED: lowering.ENUM_SUPPORTED,
    SemanticsKind.FLP: lowering.ENUM_FLP,
    SemanticsKind.SFLP: lowering.ENUM_SFLP,
}


def satisfies_rule(interpretation: Interpretation, rule: Rule) -> bool:
    """Head must intersect the interpretation whenever the body is true."""
    return not rule.body.eval(interpretation) or bool(rule.head & interpretation)


def is_model(interpretation: Interpretation, program: Program | Sequence[Rule]) -> bool:
    """Every rule of `program`, a `Program` or a sequence of rules, holds."""
    return all(satisfies_rule(interpretation, r) for r in program)


def _supports(rule: Rule, atom: Atom, interpretation: Interpretation) -> bool:
    return rule.head & interpretation == {atom} and rule.body.eval(interpretation)


def is_supported_model(interpretation: Interpretation, program: Program | Sequence[Rule]) -> bool:
    """A model where every true atom is the unique true head atom of some
    rule with a true body, over a `Program` or a sequence of rules."""
    if not is_model(interpretation, program):
        return False
    return all(any(_supports(r, a, interpretation) for r in program) for a in interpretation)


def flp_reduct(program: Program, interpretation: Interpretation) -> Program:
    """The rules whose bodies are true under the interpretation."""
    return Program(_reduct_rules(program, interpretation))


def _reduct_rules(
    program: Program | Sequence[Rule], interpretation: Interpretation
) -> tuple[Rule, ...]:
    """The rules of `flp_reduct`, in program order, without building a
    `Program`: the answer-set predicates only test them."""
    return tuple(r for r in program if r.body.eval(interpretation))


def proper_subsets(interpretation: Interpretation) -> Iterator[frozenset[Atom]]:
    """The proper subsets of the interpretation, in canonical order."""
    size = len(interpretation)
    return (s for s in subsets_in_canonical_order(interpretation) if len(s) < size)


def is_flp_answer_set(interpretation: Interpretation, program: Program | Sequence[Rule]) -> bool:
    if not is_model(interpretation, program):
        return False
    reduct = _reduct_rules(program, interpretation)
    return not any(is_model(j, reduct) for j in proper_subsets(interpretation))


def is_sflp_answer_set(interpretation: Interpretation, program: Program | Sequence[Rule]) -> bool:
    if not is_supported_model(interpretation, program):
        return False
    reduct = _reduct_rules(program, interpretation)
    return not any(is_supported_model(j, reduct) for j in proper_subsets(interpretation))


def enumerate_interpretations(
    program: Program,
    kind: SemanticsKind,
    limit: int = DEFAULT_ATOM_LIMIT,
) -> tuple[frozenset[Atom], ...]:
    """All subsets of atoms(P) accepted by the kind, in canonical order."""
    lp = lowering.lower(program, limit=limit)
    return tuple(lowering.decode(lp.atoms, kernel.enumerate_masks(lp, _ENUM_MODE[kind])))


def enumerate_candidates(
    program: Program, limit: int = DEFAULT_ATOM_LIMIT
) -> dict[SemanticsKind, tuple[frozenset[Atom], ...]]:
    """The supported models and the FLP and SFLP answer sets, each as
    `enumerate_interpretations` gives it, from one lowering and one kernel
    pass (`kernel.scan`), which lists each in canonical order. Both kinds
    of answer sets are supported models, so each mask is decoded once:
    the supported models are decoded, and each answer set is looked up
    among their sets by its mask."""
    lp = lowering.lower(program, limit=limit)
    supported, flp, sflp = kernel.scan(lp)
    sets = lowering.decode(lp.atoms, supported)
    decoded = dict(zip(supported, sets))
    return {SemanticsKind.SUPPORTED: tuple(sets),
            SemanticsKind.FLP: tuple(map(decoded.__getitem__, flp)),
            SemanticsKind.SFLP: tuple(map(decoded.__getitem__, sflp))}


def completion_atom(atom: Atom, program: Program, limit: int = DEFAULT_ATOM_LIMIT) -> TruthTable:
    """The support condition of `atom` as a truth table over its local
    domain D: the atom and the atoms of the rules whose heads hold it.

    The table is true at I exactly when the atom is in I but no rule
    supports it there; used as a constraint body it forbids unsupported
    truth of the atom. Only the rules heading the atom can support it, and
    each decides that at I from I ∩ D, so the table is X_a without a's
    support vector (`kernel.rule_vectors`) over D. It has no row when the
    atom is supported wherever it is true. TooManyAtoms, naming the
    completion table, when D is over `limit`."""
    rules = tuple(r for r in program.rules if atom in r.head)
    if not rules and atom not in program.atoms():
        raise UnknownAtom(f"atom {atom.name!r} does not occur in the program")
    lp = lowering.lower(rules, {atom}.union(*map(Rule.atoms, rules)), limit, "completion table")
    support = [0] * lp.n
    for _ in kernel.rule_vectors(lp, support):  # only `support` is kept
        pass
    x = lowering.columns(lp.n)[lp.index[atom]]
    satisfying = lowering.decode(lp.atoms, lowering.members(x ^ (x & support[lp.index[atom]])))
    return TruthTable(lp.atoms, satisfying)


def completion(program: Program, limit: int = DEFAULT_ATOM_LIMIT) -> Program:
    """The program extended with one constraint per atom that can be true
    without support, in name order, whose body is the atom's
    `completion_atom` table; its models are exactly the supported models.
    An atom supported wherever it is true gets no constraint, since a
    table with no row never fires. `limit` caps each table's domain."""
    tables = (completion_atom(a, program, limit) for a in sorted(program.atoms()))
    return Program(program.rules + tuple(Rule((), t) for t in tables if t.satisfying))


def sflp_via_completion(
    interpretation: Interpretation, program: Program, limit: int = DEFAULT_ATOM_LIMIT
) -> bool:
    """SFLP answer-set test that only uses classical model checks, going
    through the completion of the program and of the reduct."""
    return sflp_given_completion(interpretation, program, completion(program, limit), limit)


def sflp_given_completion(
    interpretation: Interpretation,
    program: Program,
    comp: Program,
    limit: int = DEFAULT_ATOM_LIMIT,
) -> bool:
    """`sflp_via_completion` with the program's completion `comp` given, so
    that a caller testing many interpretations builds it once."""
    if not is_model(interpretation, comp):
        return False
    comp_reduct = completion(flp_reduct(program, interpretation), limit)
    return not any(is_model(j, comp_reduct) for j in proper_subsets(interpretation))
