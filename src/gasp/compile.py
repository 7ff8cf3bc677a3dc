"""Compilation of generalized-atom programs into aggregate-free ones.

Every rule body is normalized to its minterm DNF and replaced by a fresh
truth atom; auxiliary rules tie that atom to the disjuncts so that answer
sets of the rewritten program correspond one-to-one (via expansion and
contraction) to the answer sets of the source program. `rew_atom` builds
all of one body's auxiliary rules, and the rewriting's map is a plain
dict from each rewritten body to its fresh atoms (`AuxNames`). The FLP
variant adds only those rules. The SFLP variant is the FLP rewriting plus, for
each rewritten body, one closure rule per prime implicant of the body's
negation, which ties the truth atom to the body from above, and one
support rule per source atom. `with_support_rules`, the one builder of
those rules, reads them off the FLP rewriting and its map; `rew_sflp` and
the theorem battery both build the SFLP rewriting that way, so one
rewriting serves both variants.

`canonical_rules` is the compilation's one gate: it refuses a program
with reserved atoms or a disjunctive head before any body is put in DNF,
and otherwise pairs each rule it keeps with its canonical DNF. The
rewriting's size is known from those bodies alone (`rewriting_size`), so
the battery skips a rewriting over its cap without building it
(`build_rewriting`).

Bodies that amount to a single positive literal are left alone (their
literal can stand directly in support heads), and constraints keep
single-literal bodies; `rewrite_all` disables both exemptions. Rules
whose bodies are unsatisfiable never influence models, supportedness, or
reducts, and are dropped before compilation.
"""

from __future__ import annotations

from . import lowering
from .core import (
    Atom,
    Conjunct,
    DEFAULT_ATOM_LIMIT,
    DisjunctiveHead,
    Dnf,
    Interpretation,
    LiteralConjunction,
    Program,
    RESERVED_PREFIX,
    Record,
    ReservedAtomError,
    Rule,
    UnsatisfiableBody,
    format_interpretation,
)
from .lowering import to_dnf
from .semantics import SemanticsKind, enumerate_interpretations


class AuxNames(Record):
    """Fresh atoms for one rewritten body: the truth atom plus one
    falsity atom per disjunct and the aggregate falsity atom f[0]."""

    __slots__ = ("t", "f")
    t: Atom
    f: tuple[Atom, ...]


def aux_names(idx: int, k: int) -> AuxNames:
    return AuxNames(
        Atom(f"{RESERVED_PREFIX}_t_{idx}"),
        tuple(Atom(f"{RESERVED_PREFIX}_f_{idx}_{i}") for i in range(k + 1)),
    )


# each distinct rewritten body (canonical DNF) to its fresh atoms, in
# first-occurrence order
_AuxMap = dict[Dnf, AuxNames]


def rew_atom(body: Dnf, names: AuxNames) -> tuple[Rule, ...]:
    """All auxiliary rules for one rewritten body, in this order: the truth
    rule of each disjunct, which fires t when the disjunct's positives hold
    and carries its negated atoms into the head, so the rule survives
    reducts taken below the candidate; then, disjunct by disjunct, the
    falsity rule of each literal, f_i when the literal is false; then the
    final rule, f_0 when every disjunct is falsified."""
    t, f = names.t, names.f
    rules = [Rule({t} | d.negatives, LiteralConjunction(Conjunct(d.positives, (f[0],))))
             for d in body.disjuncts]
    for i, d in enumerate(body.disjuncts, 1):
        for atom, positive in d.literals():
            cond = Conjunct((), (atom, t)) if positive else Conjunct((atom,), (t,))
            rules.append(Rule((f[i],), LiteralConjunction(cond)))
    rules.append(Rule((f[0],), LiteralConjunction(Conjunct(f[1:], (t,)))))
    return tuple(rules)


def closure_rules(body: Dnf, names: AuxNames) -> tuple[Rule, ...]:
    """The rules that make the truth atom imply the body: `N :- t, P` for
    each prime implicant (P true, N false) of the body's negation over its
    domain, in the order of the implicants' literals. Their bodies are
    positive, so each is in the reduct of I whenever t and P hold in I, and
    a model of that reduct below I that holds t satisfies the body."""
    items, vector = lowering.body_vector(body)
    n = len(items)
    masks = [m for care, value in _prime_cubes(n, lowering.full(n) ^ vector)
             for m in (value, care ^ value)]
    sets = lowering.decode(items, masks)  # the positives and negatives of each cube
    cubes = sorted(map(Conjunct, sets[::2], sets[1::2]), key=Conjunct.sort_key)
    return tuple(
        Rule(c.negatives, LiteralConjunction(Conjunct(c.positives | {names.t}, ())))
        for c in cubes
    )


def _prime_cubes(n: int, vector: int) -> tuple[tuple[int, int], ...]:
    """The prime implicants of the function over n atoms whose truth vector
    is `vector`, each as (care, value): the cube fixes the atoms of `care`
    to their bits in `value`.

    Split on the top atom x, f = ¬x·f0 ∨ x·f1: the primes without x are
    those of f0·f1, and ¬x·p (x·p) is prime exactly when p is a prime of
    f0 (f1) that is not one of f0·f1. Subfunctions repeat, as in symmetric
    bodies such as counts, so each is solved once per call."""
    memo: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def primes(n: int, vector: int) -> tuple[tuple[int, int], ...]:
        if not vector:
            return ()
        if vector == lowering.full(n):
            return ((0, 0),)
        out = memo.get((n, vector))
        if out is None:
            top = 1 << (n - 1)
            low, high = vector & lowering.full(n - 1), vector >> top
            both = primes(n - 1, low & high)
            common = set(both)
            out = memo[n, vector] = (
                both
                + tuple((care | top, value) for care, value in primes(n - 1, low)
                        if (care, value) not in common)
                + tuple((care | top, value | top) for care, value in primes(n - 1, high)
                        if (care, value) not in common)
            )
        return out

    return primes(n, vector)


def _kept_body(rule: Rule, canonical: Dnf, rewrite_all: bool) -> LiteralConjunction | None:
    """The body the rewriting keeps as written, or None when it gets a truth
    atom: a single positive literal, or a constraint's body of at most one
    literal. `rewrite_all` keeps none."""
    if rewrite_all or len(canonical.disjuncts) != 1:
        return None
    d = canonical.disjuncts[0]
    size = len(d.positives) + len(d.negatives)
    if (size == 1 and d.positives) or (size <= 1 and rule.is_constraint):
        return LiteralConjunction(d)
    return None


def _atom_body(atom: Atom) -> LiteralConjunction:
    return LiteralConjunction(Conjunct(frozenset({atom}), frozenset()))


def canonical_rules(
    program: Program, max_domain: int = DEFAULT_ATOM_LIMIT
) -> list[tuple[Rule, Dnf]]:
    """The rules of `program` that its rewriting keeps, each with its
    canonical DNF, so that one DNF per body serves both `rewriting_size`
    and `build_rewriting`; a rule whose body no interpretation satisfies
    is inert and dropped. The compilation's one gate: before any DNF is
    built, ReservedAtomError when the program already uses reserved atoms,
    then DisjunctiveHead for its first rule with a disjunctive head."""
    reserved = sorted(a.name for a in program.atoms() if a.is_reserved)
    if reserved:
        raise ReservedAtomError(
            "input already uses reserved atoms: " + ", ".join(reserved)
        )
    for rule in program.rules:
        if len(rule.head) > 1:
            raise DisjunctiveHead(
                "cannot compile a rule with a disjunctive head: "
                + " | ".join(a.name for a in sorted(rule.head))
            )
    kept = []
    for rule in program.rules:
        try:
            kept.append((rule, to_dnf(rule.body, max_domain)))
        except UnsatisfiableBody:
            continue
    return kept


def rewriting_size(rules: list[tuple[Rule, Dnf]]) -> int:
    """The number of atoms of `build_rewriting(rules)`, without building
    it: the heads and body domains of the rules (a canonical DNF spans its
    body's domain, and a kept body is its one disjunct), plus a truth atom
    and k + 1 falsity atoms per distinct rewritten body of k disjuncts."""
    atoms: set[Atom] = set()
    rewritten = set()
    for rule, canonical in rules:
        atoms |= rule.atoms()
        if _kept_body(rule, canonical, False) is None:
            rewritten.add(canonical)
    return len(atoms) + sum(len(c.disjuncts) + 2 for c in rewritten)


def build_rewriting(
    rules: list[tuple[Rule, Dnf]], rewrite_all: bool = False
) -> tuple[Program, _AuxMap]:
    """The FLP rewriting of the rules `canonical_rules` keeps, and the map
    of its rewritten bodies."""
    cmap: _AuxMap = {}
    rewritten: list[Rule] = []
    for rule, canonical in rules:
        body = _kept_body(rule, canonical, rewrite_all)
        if body is None:
            names = cmap.get(canonical)
            if names is None:
                names = cmap[canonical] = aux_names(len(cmap) + 1, len(canonical.disjuncts))
            body = _atom_body(names.t)
        rewritten.append(Rule(rule.head, body))
    for canonical, names in cmap.items():
        rewritten.extend(rew_atom(canonical, names))
    return Program(rewritten), cmap


def rew_flp(
    program: Program, rewrite_all: bool = False, max_domain: int = DEFAULT_ATOM_LIMIT
) -> tuple[Program, _AuxMap]:
    return build_rewriting(canonical_rules(program, max_domain), rewrite_all)


def rew_sflp(
    program: Program, rewrite_all: bool = False, max_domain: int = DEFAULT_ATOM_LIMIT
) -> tuple[Program, _AuxMap]:
    flp, cmap = build_rewriting(canonical_rules(program, max_domain), rewrite_all)
    return with_support_rules(flp, cmap), cmap


def with_support_rules(flp: Program, cmap: _AuxMap) -> Program:
    """The SFLP rewriting, given the FLP one (`rew_flp`'s pair): its rules,
    then the `closure_rules` of every rewritten body in map order, then one
    support rule per source atom, in sorted order.

    The closure rules tie each truth atom to its body from above, as the
    FLP rules tie it from below, so no reduct model holds a truth atom
    whose body it falsifies. The support rule of source atom a is read off
    the rewriting itself: every rewritten rule whose head is {a} is a
    source rule, and its body is the single atom (a kept literal or a
    truth atom) that the support rule puts in its head.
    """
    closure = [rule for body, names in cmap.items()
               for rule in closure_rules(body, names)]
    heads: dict[Atom, set[Atom]] = {a: set() for a in flp.atoms() if not a.is_reserved}
    for rule in flp.rules:
        if len(rule.head) == 1:
            (atom,) = rule.head
            if atom in heads:
                heads[atom] |= rule.body.conjunct.positives
    support = [Rule(frozenset(heads[a]), _atom_body(a)) for a in sorted(heads)]
    return Program(flp.rules + tuple(closure) + tuple(support))


def expansion(
    interpretation: Interpretation, program: Program, cmap: _AuxMap
) -> frozenset[Atom]:
    """Add to the interpretation the auxiliary atoms that a corresponding
    answer set of the rewritten program must contain: the truth atom of
    every satisfied rewritten body, all falsity atoms of every falsified
    one."""
    out = set(interpretation)
    for canonical, names in cmap.items():
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
    convex). The rewriting comes first, so that the compilation's gate
    (`canonical_rules`) reports bad input before any enumeration meets a
    resource bound."""
    kind = SemanticsKind(kind)
    if kind not in (SemanticsKind.FLP, SemanticsKind.SFLP):
        raise ValueError("compilation exists for the flp and sflp semantics only")
    if kind is SemanticsKind.FLP:
        rewritten, cmap = rew_flp(program, rewrite_all, limit)
    else:
        rewritten, cmap = rew_sflp(program, rewrite_all, limit)
    source = enumerate_interpretations(program, kind, limit)
    compiled = enumerate_interpretations(rewritten, SemanticsKind.FLP, limit)
    violations = bijection_violations(program, cmap, source, compiled)
    return CompilationReport(kind, source, compiled, violations)


def bijection_violations(
    program: Program,
    cmap: _AuxMap,
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
