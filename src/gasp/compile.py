"""Compilation of generalized-atom programs into aggregate-free ones.

Every rule body is normalized to its minterm DNF and replaced by a fresh
truth atom; auxiliary rules tie that atom to the disjuncts so that answer
sets of the rewritten program correspond one-to-one (via expansion and
contraction) to the answer sets of the source program. The FLP variant
adds only those rules; the SFLP variant also adds one support rule per
source atom.

Bodies that amount to a single positive literal are left alone (their
literal can stand directly in support heads), and constraints keep
single-literal bodies; `rewrite_all` disables both exemptions. Rules
whose bodies are unsatisfiable never influence models, supportedness, or
reducts, and are dropped before compilation.
"""

from __future__ import annotations

from .core import (
    Atom,
    Conjunct,
    DEFAULT_ATOM_LIMIT,
    DisjunctiveHead,
    Dnf,
    GaspError,
    Interpretation,
    LiteralConjunction,
    Program,
    Record,
    ReservedAtomError,
    Rule,
    UnsatisfiableBody,
    format_interpretation,
    set_field,
    to_dnf,
)
from .semantics import (
    SemanticsKind,
    UnknownAtom,
    enumerate_interpretations,
)


class IndexOutOfRange(GaspError, IndexError):
    """A disjunct or literal index fell outside the DNF being rewritten."""


class AuxNames(Record):
    """Fresh atoms for one rewritten body: the truth atom plus one
    falsity atom per disjunct and the aggregate falsity atom f[0]."""

    __slots__ = ("t", "f")
    t: Atom
    f: tuple[Atom, ...]

    def __init__(self, t: Atom, f: tuple[Atom, ...]):
        set_field(self, "t", t)
        set_field(self, "f", f)


def aux_names(idx: int, k: int) -> AuxNames:
    return AuxNames(
        Atom(f"__aux_t_{idx}"),
        tuple(Atom(f"__aux_f_{idx}_{i}") for i in range(k + 1)),
    )


class CompilationMap:
    """Bookkeeping from each distinct rewritten body (canonical DNF) to its
    fresh atoms, in first-occurrence order."""

    __slots__ = ("semantics", "rewrite_all", "entries")
    semantics: SemanticsKind
    rewrite_all: bool
    entries: dict[Dnf, AuxNames]

    def __init__(self, semantics: SemanticsKind, rewrite_all: bool = False,
                 entries: dict[Dnf, AuxNames] | None = None):
        self.semantics = semantics
        self.rewrite_all = rewrite_all
        self.entries = {} if entries is None else entries

    def names_for(self, canonical: Dnf) -> AuxNames:
        names = self.entries.get(canonical)
        if names is None:
            names = aux_names(len(self.entries) + 1, len(canonical.disjuncts))
            self.entries[canonical] = names
        return names


def tr(body: Dnf, i: int, names: AuxNames) -> Rule:
    """Truth rule for disjunct i: fires the truth atom when the disjunct's
    positives hold, carrying its negated atoms into the head so the rule
    survives reducts taken below the candidate."""
    if not 1 <= i <= len(body.disjuncts):
        raise IndexOutOfRange(f"disjunct index {i} out of 1..{len(body.disjuncts)}")
    d = body.disjuncts[i - 1]
    head = frozenset({names.t}) | d.negatives
    cond = Conjunct(d.positives, frozenset({names.f[0]}))
    return Rule(head, LiteralConjunction(cond))


def fls_literal(body: Dnf, i: int, j: int, names: AuxNames) -> Rule:
    """Falsity rule: disjunct i is falsified by its j-th literal."""
    if not 1 <= i <= len(body.disjuncts):
        raise IndexOutOfRange(f"disjunct index {i} out of 1..{len(body.disjuncts)}")
    literals = body.disjuncts[i - 1].literals()
    if not 1 <= j <= len(literals):
        raise IndexOutOfRange(f"literal index {j} out of 1..{len(literals)}")
    return _falsity_rule(i, *literals[j - 1], names)


def _falsity_rule(i: int, atom: Atom, positive: bool, names: AuxNames) -> Rule:
    if positive:
        cond = Conjunct(frozenset(), frozenset({atom, names.t}))
    else:
        cond = Conjunct(frozenset({atom}), frozenset({names.t}))
    return Rule(frozenset({names.f[i]}), LiteralConjunction(cond))


def fls_final(body: Dnf, names: AuxNames) -> Rule:
    """All disjuncts falsified: the body as a whole is false."""
    cond = Conjunct(frozenset(names.f[1:]), frozenset({names.t}))
    return Rule(frozenset({names.f[0]}), LiteralConjunction(cond))


def rew_atom(body: Dnf, names: AuxNames) -> tuple[Rule, ...]:
    """All auxiliary rules for one rewritten body."""
    k = len(body.disjuncts)
    rules = [tr(body, i, names) for i in range(1, k + 1)]
    for i, d in enumerate(body.disjuncts, 1):
        for atom, positive in d.literals():
            rules.append(_falsity_rule(i, atom, positive, names))
    rules.append(fls_final(body, names))
    return tuple(rules)


def _single_positive_literal(canonical: Dnf) -> Atom | None:
    if len(canonical.disjuncts) != 1:
        return None
    d = canonical.disjuncts[0]
    if len(d.positives) == 1 and not d.negatives:
        return next(iter(d.positives))
    return None


def _constraint_keepable(canonical: Dnf) -> bool:
    if len(canonical.disjuncts) != 1:
        return False
    d = canonical.disjuncts[0]
    return len(d.positives) + len(d.negatives) <= 1


def _surviving(program: Program, max_domain: int) -> list[tuple[Rule, Dnf]]:
    kept = []
    for rule in program.rules:
        if len(rule.head) > 1:
            raise DisjunctiveHead(
                "cannot compile a rule with a disjunctive head: "
                + " | ".join(a.name for a in sorted(rule.head))
            )
        try:
            kept.append((rule, to_dnf(rule.body, max_domain)))
        except UnsatisfiableBody:
            continue  # dead rule: true in no interpretation, hence inert
    return kept


def _check_fresh(program: Program) -> None:
    reserved = sorted(a.name for a in program.atoms() if a.is_reserved)
    if reserved:
        raise ReservedAtomError(
            "input already uses reserved atoms: " + ", ".join(reserved)
        )


def _rewrite(
    program: Program, semantics: SemanticsKind, rewrite_all: bool, max_domain: int
) -> tuple[list[Rule], CompilationMap, list[tuple[Rule, Dnf]]]:
    """The rewritten rules (support rules aside), the map of rewritten
    bodies, and the surviving source rules with their canonical DNFs."""
    _check_fresh(program)
    cmap = CompilationMap(semantics, rewrite_all)
    pairs = _surviving(program, max_domain)
    rewritten: list[Rule] = []
    for rule, canonical in pairs:
        if not rewrite_all:
            literal = _single_positive_literal(canonical)
            if literal is not None:
                body = LiteralConjunction(Conjunct(frozenset({literal}), frozenset()))
                rewritten.append(Rule(rule.head, body))
                continue
            if rule.is_constraint and _constraint_keepable(canonical):
                d = canonical.disjuncts[0]
                rewritten.append(Rule(rule.head, LiteralConjunction(d)))
                continue
        names = cmap.names_for(canonical)
        body = LiteralConjunction(Conjunct(frozenset({names.t}), frozenset()))
        rewritten.append(Rule(rule.head, body))
    for canonical, names in cmap.entries.items():
        rewritten.extend(rew_atom(canonical, names))
    return rewritten, cmap, pairs


def rew_flp(
    program: Program, rewrite_all: bool = False, max_domain: int = DEFAULT_ATOM_LIMIT
) -> tuple[Program, CompilationMap]:
    rules, cmap, _ = _rewrite(program, SemanticsKind.FLP, rewrite_all, max_domain)
    return Program(rules), cmap


def rew_sflp(
    program: Program, rewrite_all: bool = False, max_domain: int = DEFAULT_ATOM_LIMIT
) -> tuple[Program, CompilationMap]:
    rules, cmap, pairs = _rewrite(program, SemanticsKind.SFLP, rewrite_all, max_domain)
    surviving_atoms: set[Atom] = set()
    for rule, _ in pairs:
        surviving_atoms |= rule.atoms()
    for atom in sorted(surviving_atoms):
        rules.append(_support_rule(atom, pairs, cmap))
    return Program(rules), cmap


def supp_rule(
    atom: Atom,
    program: Program,
    cmap: CompilationMap,
    max_domain: int = DEFAULT_ATOM_LIMIT,
) -> Rule:
    """Support rule for an atom: its truth demands one of the (rewritten)
    bodies of the rules it heads; with no such rule this is a constraint."""
    if atom not in program.atoms():
        raise UnknownAtom(f"atom {atom.name!r} does not occur in the program")
    pairs = []
    for rule in program.rules:
        if rule.head != {atom}:
            continue
        try:
            pairs.append((rule, to_dnf(rule.body, max_domain)))
        except UnsatisfiableBody:
            continue
    return _support_rule(atom, pairs, cmap)


def _support_rule(atom: Atom, pairs: list[tuple[Rule, Dnf]], cmap: CompilationMap) -> Rule:
    """`supp_rule` over rules whose canonical DNFs are already known."""
    head = set()
    for rule, canonical in pairs:
        if rule.head != {atom}:
            continue
        literal = None if cmap.rewrite_all else _single_positive_literal(canonical)
        if literal is not None:
            head.add(literal)
        else:
            head.add(cmap.entries[canonical].t)
    body = LiteralConjunction(Conjunct(frozenset({atom}), frozenset()))
    return Rule(frozenset(head), body)


def expansion(
    interpretation: Interpretation, program: Program, cmap: CompilationMap
) -> frozenset[Atom]:
    """Add to the interpretation the auxiliary atoms that a corresponding
    answer set of the rewritten program must contain: the truth atom of
    every satisfied rewritten body, all falsity atoms of every falsified
    one."""
    out = set(interpretation)
    for canonical, names in cmap.entries.items():
        if canonical.eval(interpretation):
            out.add(names.t)
        else:
            out.update(names.f)
    return frozenset(out)


def contraction(interpretation: Interpretation, program: Program) -> frozenset[Atom]:
    """Restrict an interpretation to the atoms occurring in the program."""
    return frozenset(interpretation) & program.atoms()


class CompilationReport(Record):
    __slots__ = ("semantics", "source_sets", "compiled_sets", "violations")
    semantics: SemanticsKind
    source_sets: tuple[frozenset[Atom], ...]
    compiled_sets: tuple[frozenset[Atom], ...]
    violations: tuple[str, ...]

    def __init__(self, semantics: SemanticsKind, source_sets: tuple[frozenset[Atom], ...],
                 compiled_sets: tuple[frozenset[Atom], ...], violations: tuple[str, ...]):
        set_field(self, "semantics", semantics)
        set_field(self, "source_sets", source_sets)
        set_field(self, "compiled_sets", compiled_sets)
        set_field(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_compilation(
    program: Program,
    kind: SemanticsKind | str,
    limit: int = DEFAULT_ATOM_LIMIT,
    rewrite_all: bool = False,
) -> CompilationReport:
    """Check that expansion/contraction are mutually inverse bijections
    between the source answer sets and the rewritten program's FLP answer
    sets (which are also its SFLP answer sets, the target fragment being
    convex)."""
    if isinstance(kind, str):
        kind = SemanticsKind.from_name(kind)
    if kind not in (SemanticsKind.FLP, SemanticsKind.SFLP):
        raise ValueError("compilation exists for the flp and sflp semantics only")
    source = enumerate_interpretations(program, kind, limit)
    if kind is SemanticsKind.FLP:
        rewritten, cmap = rew_flp(program, rewrite_all, limit)
    else:
        rewritten, cmap = rew_sflp(program, rewrite_all, limit)
    compiled = enumerate_interpretations(rewritten, SemanticsKind.FLP, limit)
    violations = bijection_violations(program, cmap, source, compiled)
    return CompilationReport(kind, source, compiled, violations)


def bijection_violations(
    program: Program,
    cmap: CompilationMap,
    source: tuple[frozenset[Atom], ...],
    compiled: tuple[frozenset[Atom], ...],
) -> tuple[str, ...]:
    """How expansion and contraction fail to be mutually inverse bijections
    between the source answer sets and the answer sets of the rewriting
    that `cmap` describes; empty when they are."""
    compiled_set = set(compiled)
    source_set = set(source)
    violations = []
    expansions = {}
    for i in source:
        expanded = expansion(i, program, cmap)
        expansions[i] = expanded
        if expanded not in compiled_set:
            violations.append(
                f"expansion of {format_interpretation(i)} is not an answer set "
                f"of the rewriting: {format_interpretation(expanded)}"
            )
    for j in compiled:
        back = contraction(j, program)
        if back not in source_set:
            violations.append(
                f"contraction of {format_interpretation(j)} is not a source "
                f"answer set: {format_interpretation(back)}"
            )
        elif expansions.get(back) != j:
            violations.append(
                f"expansion and contraction disagree on {format_interpretation(j)}"
            )
    if len(set(expansions.values())) != len(expansions):
        violations.append("expansion is not injective on the source answer sets")
    if not violations and len(source) != len(compiled):
        violations.append(
            f"answer-set counts differ: {len(source)} source vs {len(compiled)} compiled"
        )
    return tuple(violations)
