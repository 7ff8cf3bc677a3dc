"""Random program generation and the automated theorem battery.

`generate` is deterministic in the seed and only produces programs the
parser can round-trip. `check_theorems` exhaustively verifies, per
program: that every FLP answer set is an SFLP answer set; that the two
coincide on convex programs; that supported models are exactly the models
of the completion; that the SFLP test agrees with its completion-based
characterization (checked over every candidate interpretation); and, for
atomic-head programs whose rewriting stays enumerable, that compilation
is answer-set preserving in both directions. The supported models and
both kinds of answer sets come from one lowering and one kernel pass
(`semantics.enumerate_candidates`). Each program is rewritten at most
once, and never when the rewriting is skipped: its size is read off the
rules' canonical bodies before any rule is built, and the SFLP rewriting
is the FLP rewriting plus closure and support rules, so one rewriting
serves both compilation checks.
"""

from __future__ import annotations

import random
from typing import Iterable

from .compile import (
    bijection_violations,
    build_rewriting,
    canonical_rules,
    rewriting_size,
    with_support_rules,
)
from .core import (
    Atom,
    Conjunct,
    CountAggregate,
    DEFAULT_ATOM_LIMIT,
    DisjunctiveHead,
    Dnf,
    Interpretation,
    LiteralConjunction,
    Program,
    Record,
    ReservedAtomError,
    Rule,
    TruthTable,
    format_interpretation,
    is_convex_program,
    subsets_in_canonical_order,
)
from .parser import render
from .semantics import (
    SemanticsKind,
    completion,
    enumerate_candidates,
    enumerate_interpretations,
    is_sflp_answer_set,
    sflp_given_completion,
)

BODY_KINDS = ("literal", "count", "dnf", "table")

_BODY_WEIGHTS = (4.0, 2.0, 2.0, 2.0)  # how often `generate` draws each of BODY_KINDS


class GenConfig(Record):
    __slots__ = ("atom_count", "rule_count", "allow_disjunctive_heads", "seed")
    atom_count: int
    rule_count: int
    allow_disjunctive_heads: bool
    seed: int

    def __init__(
        self,
        atom_count: int = 4,
        rule_count: int = 4,
        allow_disjunctive_heads: bool = False,
        seed: int = 0,
    ):
        if not 1 <= atom_count <= 8:
            raise ValueError("atom_count must be in 1..8")
        if not 0 <= rule_count <= 10:
            raise ValueError("rule_count must be in 0..10")
        super().__init__(atom_count, rule_count, allow_disjunctive_heads, seed)


def generate(cfg: GenConfig) -> Program:
    """A random program, deterministic in the seed."""
    rng = random.Random(cfg.seed)
    universe = [Atom(name) for name in "abcdefgh"[: cfg.atom_count]]
    rules = []
    for _ in range(cfg.rule_count):
        head = _gen_head(rng, cfg, universe)
        kind = rng.choices(BODY_KINDS, _BODY_WEIGHTS)[0]
        rules.append(Rule(head, _gen_body(rng, kind, universe)))
    return Program(rules)


def _gen_head(rng: random.Random, cfg: GenConfig, universe: list[Atom]) -> frozenset[Atom]:
    roll = rng.random()
    if cfg.allow_disjunctive_heads and roll < 0.2 and len(universe) >= 2:
        return frozenset(rng.sample(universe, 2))
    if roll > 0.85:
        return frozenset()
    return frozenset([rng.choice(universe)])


def _gen_body(rng: random.Random, kind: str, universe: list[Atom]):
    if kind == "literal":
        chosen = rng.sample(universe, rng.randint(0, min(3, len(universe))))
        neg = frozenset(a for a in chosen if rng.random() < 0.4)
        return LiteralConjunction(Conjunct(frozenset(chosen) - neg, neg))
    if kind == "count":
        members = rng.sample(universe, rng.randint(1, min(3, len(universe))))
        cmp = rng.choice(("=", "!=", "<=", ">=", "<", ">"))
        return CountAggregate(frozenset(members), cmp, rng.randint(0, len(members) + 1))
    if kind == "dnf":
        disjuncts = []
        for _ in range(rng.randint(1, 2)):
            chosen = rng.sample(universe, rng.randint(1, min(2, len(universe))))
            neg = frozenset(a for a in chosen if rng.random() < 0.4)
            disjuncts.append(Conjunct(frozenset(chosen) - neg, neg))
        return Dnf(tuple(disjuncts))
    domain = frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
    if rng.random() < 0.3 and len(domain) >= 2:
        # parity family: deliberately non-convex, so both branches of the
        # convex-equivalence theorem stay exercised across a batch
        family = [s for s in subsets_in_canonical_order(domain) if len(s) % 2 == 0]
    else:
        family = [s for s in subsets_in_canonical_order(domain) if rng.random() < 0.5]
        if not family:
            family = [frozenset(rng.sample(sorted(domain), rng.randint(0, len(domain))))]
    return TruthTable(domain, frozenset(family))


PASS = "pass"
FAIL = "fail"
SKIP = "skip"

CHECK_NAMES = (
    "flp_subset_sflp",
    "convex_equivalence",
    "supported_equals_completion_models",
    "sflp_completion_characterization",
    "compilation_bijection_flp",
    "compilation_bijection_sflp",
)


class CheckResult(Record):
    __slots__ = ("name", "status", "details")
    name: str
    status: str
    details: tuple[str, ...]


class TheoremReport(Record):
    __slots__ = ("program_text", "results")
    program_text: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == FAIL)


# The atom cap of the completion-based SFLP characterization (criterion
# 4d), whose loop over all 2^n candidates and their subsets runs in Python.
EXHAUSTIVE_LIMIT = 12


def check_theorems(
    program: Program,
    limit: int = DEFAULT_ATOM_LIMIT,
    compile_limit: int = DEFAULT_ATOM_LIMIT,
) -> TheoremReport:
    """Run every theorem check that applies to the program.

    `limit` caps the kernel enumerations and each completion table's
    domain; `EXHAUSTIVE_LIMIT` caps only the completion-based SFLP
    characterization, whose candidate loop runs in Python; the bijection
    checks enumerate only rewritings that span at most
    `min(limit, compile_limit)` atoms.
    Checks over a cap are reported as skipped, never silently dropped.
    """
    results = []
    found = enumerate_candidates(program, limit)
    flp_sets = found[SemanticsKind.FLP]
    sflp_sets = found[SemanticsKind.SFLP]
    flp = set(flp_sets)
    sflp = set(sflp_sets)
    supported = set(found[SemanticsKind.SUPPORTED])

    results.append(_disagreement("flp_subset_sflp", "flp answer set not sflp: ", flp - sflp))
    if is_convex_program(program, limit):
        results.append(
            _disagreement("convex_equivalence", "flp/sflp disagree at: ", flp ^ sflp)
        )
    else:
        results.append(CheckResult("convex_equivalence", SKIP, ("not a convex program",)))

    comp = completion(program, limit)
    comp_models = set(enumerate_interpretations(comp, SemanticsKind.CLASSICAL, limit))
    results.append(_disagreement(
        "supported_equals_completion_models",
        "supported/completion disagree at: ",
        supported ^ comp_models,
    ))
    if len(program.atoms()) > EXHAUSTIVE_LIMIT:
        over = (f"{len(program.atoms())} atoms exceed the exhaustive-check cap "
                f"of {EXHAUSTIVE_LIMIT}",)
        results.append(CheckResult("sflp_completion_characterization", SKIP, over))
    else:
        results.append(_characterization_check(program, comp, sflp, limit))
    results.extend(_compilation_checks(program, flp_sets, sflp_sets, limit, compile_limit))
    return TheoremReport(render(program), tuple(results))


def _verdict(name: str, details: Iterable[str]) -> CheckResult:
    """PASS with no details, FAIL with them."""
    details = tuple(details)
    return CheckResult(name, FAIL if details else PASS, details)


def _disagreement(
    name: str, prefix: str, interpretations: Iterable[Interpretation]
) -> CheckResult:
    """The verdict listing `prefix` plus each interpretation, in the order
    of their text."""
    texts = sorted(map(format_interpretation, interpretations))
    return _verdict(name, (prefix + text for text in texts))


def _characterization_check(
    program: Program, comp: Program, sflp_sets: set, limit: int
) -> CheckResult:
    details = []
    for candidate in subsets_in_canonical_order(program.atoms()):
        direct = is_sflp_answer_set(candidate, program)
        via = sflp_given_completion(candidate, program, comp, limit)
        if direct != via:
            details.append(
                f"direct={direct} completion-based={via} at "
                + format_interpretation(candidate)
            )
        if direct != (candidate in sflp_sets):
            details.append(
                "enumeration disagrees with the predicate at "
                + format_interpretation(candidate)
            )
    return _verdict("sflp_completion_characterization", details)


def _compilation_checks(
    program: Program,
    flp_sets: tuple[frozenset[Atom], ...],
    sflp_sets: tuple[frozenset[Atom], ...],
    limit: int,
    compile_limit: int,
) -> tuple[CheckResult, CheckResult]:
    """What `verify_compilation(program, kind, min(limit, compile_limit))`
    reports for FLP and then SFLP, from the answer sets already enumerated
    and one rewriting, where a rewriting over that cap is skipped rather
    than raising TooManyAtoms: the SFLP rewriting is the FLP one plus its
    closure and support rules, which add no atoms, so one skip decision
    serves both checks. A program that `canonical_rules` refuses (reserved
    atoms, a disjunctive head) is skipped before any body is put in DNF;
    otherwise the decision reads the rewriting's size off the canonical
    bodies (`rewriting_size`), so a skipped program builds no rule and a
    kept one builds its rewriting once, from the same bodies.

    Precondition: the program has at most `limit` atoms, as `check_theorems`
    has enumerated it under `limit`. Every body domain is a subset of them,
    so `canonical_rules`, given `limit` as its DNF limit, never raises
    TooManyAtoms."""
    names = CHECK_NAMES[-2:]

    def skipped(detail: str) -> tuple[CheckResult, CheckResult]:
        details = (detail,)
        return tuple(CheckResult(name, SKIP, details) for name in names)

    try:
        rules = canonical_rules(program, limit)
    except ReservedAtomError:
        return skipped("already-compiled input (reserved atoms)")
    except DisjunctiveHead:
        return skipped("disjunctive head")
    n_rewritten = rewriting_size(rules)
    if n_rewritten > min(limit, compile_limit):
        return skipped(f"rewriting spans {n_rewritten} atoms")
    flp, cmap = build_rewriting(rules)
    results = []
    for name, rewritten, source in (
        (names[0], flp, flp_sets),
        (names[1], with_support_rules(flp, cmap), sflp_sets),
    ):
        compiled = enumerate_interpretations(rewritten, SemanticsKind.FLP, limit)
        violations = bijection_violations(program, cmap, source, compiled)
        results.append(_verdict(name, violations))
    return tuple(results)
