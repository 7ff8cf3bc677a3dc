"""Model, supportedness, and answer-set machinery.

The per-interpretation predicates work directly on the AST and accept any
interpretation. Exhaustive enumeration restricts candidates to subsets of
the program's own atoms (a foreign atom can never be supported and always
breaks minimality) and runs on the bitmask kernel; the completion's tables
are decoded from the same truth vectors.
"""

from __future__ import annotations

import enum
from itertools import combinations
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
    TooManyAtoms,
    TruthTable,
    set_field,
    in_name_order,
)


class UnknownAtom(GaspError):
    """The atom does not occur in the program."""


class SemanticsKind(enum.Enum):
    CLASSICAL = "models"
    SUPPORTED = "supported"
    FLP = "flp"
    SFLP = "sflp"

    @classmethod
    def from_name(cls, name: str) -> "SemanticsKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown semantics: {name!r}")


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
    """Proper subsets in increasing cardinality (cheap witnesses first)."""
    items = sorted(interpretation)
    for size in range(len(items)):
        for combo in combinations(items, size):
            yield frozenset(combo)


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
    universe = tuple(in_name_order(program.atoms()))
    if len(universe) > limit:
        raise TooManyAtoms(
            f"program has {len(universe)} atoms, enumeration limit is {limit}"
        )
    lp = lowering.lower(program, universe)
    masks = kernel.enumerate_masks(lp, _ENUM_MODE[kind])
    return tuple(lowering.interpretations(lp.atoms, masks))


class CompletionAtom(Record):
    """The support condition of one atom, realized as a truth table.

    The table is true at I exactly when the atom is in I but no rule
    supports it there; used as a constraint body it forbids unsupported
    truth of the atom.
    """

    __slots__ = ("target", "program_snapshot", "realized")
    target: Atom
    program_snapshot: Program
    realized: TruthTable

    def __init__(self, target: Atom, program_snapshot: Program, realized: TruthTable):
        set_field(self, "target", target)
        set_field(self, "program_snapshot", program_snapshot)
        set_field(self, "realized", realized)


def completion_atom(
    atom: Atom, program: Program, limit: int = DEFAULT_ATOM_LIMIT
) -> CompletionAtom:
    universe = program.atoms()
    if atom not in universe:
        raise UnknownAtom(f"atom {atom.name!r} does not occur in the program")
    lp = _lower_for_completion(program, limit)
    return _completion_atom(atom, program, lp, _unsupported(lp)[lp.index[atom]])


def completion(program: Program, limit: int = DEFAULT_ATOM_LIMIT) -> Program:
    """The program extended with one constraint per atom forbidding
    unsupported truth; its models are exactly the supported models."""
    rules = list(program.rules)
    lp = _lower_for_completion(program, limit)
    for atom, vector in zip(lp.atoms, _unsupported(lp)):
        comp = _completion_atom(atom, program, lp, vector)
        rules.append(Rule(frozenset(), comp.realized))
    return Program(rules)


def _lower_for_completion(program: Program, limit: int) -> lowering.LoweredProgram:
    universe = tuple(in_name_order(program.atoms()))
    if len(universe) > limit:
        raise TooManyAtoms(
            f"completion table over {len(universe)} atoms exceeds the limit of {limit}"
        )
    return lowering.lower(program, universe)


def _unsupported(lp: lowering.LoweredProgram) -> list[int]:
    """Per atom a, the vector of the masks where a is true but no rule
    supports it: X_a & ~OR(holds_r & X_a & ~X_b, b the other head atoms)."""
    cols = lowering.columns(lp.n)
    supported = [0] * lp.n
    for head, body in zip(lp.heads, lp.bodies):
        if not head:
            continue
        holds = lowering.truth_vector(body, lp.index, lp.n, cols)
        atoms = lowering.members(head)
        for a in atoms:
            vector = holds
            for b in atoms:
                if b != a:
                    vector ^= vector & cols[b]
            supported[a] |= vector
    return [x ^ (x & supported[a]) for a, x in enumerate(cols)]


def _completion_atom(
    atom: Atom, program: Program, lp: lowering.LoweredProgram, vector: int
) -> CompletionAtom:
    """The completion table of `atom` that `_unsupported` gave as `vector`."""
    satisfying = frozenset(lowering.decode(lp.atoms, lowering.members(vector)))
    return CompletionAtom(atom, program, TruthTable(frozenset(lp.atoms), satisfying))


def sflp_via_completion(
    interpretation: Interpretation, program: Program, limit: int = DEFAULT_ATOM_LIMIT
) -> bool:
    """SFLP answer-set test that only uses classical model checks, going
    through the completion of the program and of the reduct."""
    if not is_model(interpretation, completion(program, limit)):
        return False
    comp_reduct = completion(flp_reduct(program, interpretation), limit)
    return not any(is_model(j, comp_reduct) for j in proper_subsets(interpretation))
