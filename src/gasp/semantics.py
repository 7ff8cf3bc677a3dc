"""Model, supportedness, and answer-set machinery.

The per-interpretation predicates work directly on the AST and accept any
interpretation. Exhaustive enumeration restricts candidates to subsets of
the program's own atoms (a foreign atom can never be supported and always
breaks minimality) and runs on the bitmask kernel; the completion's tables
are decoded from the same truth vectors.
"""

from __future__ import annotations

import enum
from typing import Iterator

from . import kernel, lowering
from .core import (
    Atom,
    DEFAULT_ATOM_LIMIT,
    GaspError,
    Interpretation,
    Program,
    Record,
    Rule,
    TruthTable,
    positions,
    set_field,
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


def is_model(interpretation: Interpretation, program: Program) -> bool:
    return all(satisfies_rule(interpretation, r) for r in program.rules)


def _supports(rule: Rule, atom: Atom, interpretation: Interpretation) -> bool:
    return rule.head & interpretation == {atom} and rule.body.eval(interpretation)


def is_supported_model(interpretation: Interpretation, program: Program) -> bool:
    """A model where every true atom is the unique true head atom of some
    rule with a true body."""
    if not is_model(interpretation, program):
        return False
    return all(
        any(_supports(r, a, interpretation) for r in program.rules)
        for a in interpretation
    )


def flp_reduct(program: Program, interpretation: Interpretation) -> Program:
    """The rules whose bodies are true under the interpretation."""
    return Program(r for r in program.rules if r.body.eval(interpretation))


def proper_subsets(interpretation: Interpretation) -> Iterator[frozenset[Atom]]:
    """The proper subsets of the interpretation, in canonical order."""
    size = len(interpretation)
    return (s for s in subsets_in_canonical_order(interpretation) if len(s) < size)


def is_flp_answer_set(interpretation: Interpretation, program: Program) -> bool:
    if not is_model(interpretation, program):
        return False
    reduct = flp_reduct(program, interpretation)
    return not any(is_model(j, reduct) for j in proper_subsets(interpretation))


def is_sflp_answer_set(interpretation: Interpretation, program: Program) -> bool:
    if not is_supported_model(interpretation, program):
        return False
    reduct = flp_reduct(program, interpretation)
    return not any(is_supported_model(j, reduct) for j in proper_subsets(interpretation))


def enumerate_interpretations(
    program: Program,
    kind: SemanticsKind,
    limit: int = DEFAULT_ATOM_LIMIT,
) -> tuple[frozenset[Atom], ...]:
    """All subsets of atoms(P) accepted by the kind, in canonical order."""
    lp = _lower_capped(program, limit, "enumeration")
    masks = kernel.enumerate_masks(lp, _ENUM_MODE[kind])
    return tuple(lowering.interpretations(lp.atoms, masks))


class CompletionAtom(Record):
    """The support condition of one atom, realized as a truth table.

    The table is true at I exactly when the atom is in I but no rule
    supports it there; used as a constraint body it forbids unsupported
    truth of the atom.
    """

    __slots__ = ("target", "realized")
    target: Atom
    realized: TruthTable

    def __init__(self, target: Atom, realized: TruthTable):
        set_field(self, "target", target)
        set_field(self, "realized", realized)


def completion_atom(
    atom: Atom, program: Program, limit: int = DEFAULT_ATOM_LIMIT
) -> CompletionAtom:
    if atom not in program.atoms():
        raise UnknownAtom(f"atom {atom.name!r} does not occur in the program")
    lp = _lower_capped(program, limit, "completion table")
    return CompletionAtom(atom, _completion_table(lp, _unsupported(lp)[lp.index[atom]]))


def completion(program: Program, limit: int = DEFAULT_ATOM_LIMIT) -> Program:
    """The program extended with one constraint per atom forbidding
    unsupported truth; its models are exactly the supported models."""
    rules = list(program.rules)
    lp = _lower_capped(program, limit, "completion table")
    unsupported = _unsupported(lp)
    for atom in sorted(lp.atoms):  # the constraints in name order
        rules.append(Rule(frozenset(), _completion_table(lp, unsupported[lp.index[atom]])))
    return Program(rules)


def _lower_capped(program: Program, limit: int, what: str) -> lowering.LoweredProgram:
    """The program lowered over its atoms in the order of `positions`;
    TooManyAtoms, naming `what`, when they are over `limit`."""
    universe, _ = positions(program.atoms(), limit, what)
    return lowering.lower(program, tuple(universe))


def _unsupported(lp: lowering.LoweredProgram) -> list[int]:
    """Per atom a, the masks where a is true but no rule supports it: X_a
    without the support vector of a that `kernel.rule_vectors` builds. The
    vectors it yields per rule are dropped one rule at a time."""
    support = [0] * lp.n
    for _ in kernel.rule_vectors(lp, support):
        pass
    return [x ^ (x & s) for x, s in zip(lowering.columns(lp.n), support)]


def _completion_table(lp: lowering.LoweredProgram, vector: int) -> TruthTable:
    """The completion table of the atom that `_unsupported` gave `vector`."""
    satisfying = frozenset(lowering.decode(lp.atoms, lowering.members(vector)))
    return TruthTable(frozenset(lp.atoms), satisfying)


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
