"""Random program generation and the automated theorem battery.

`generate` is deterministic in the seed and only produces programs the
parser can round-trip. `check_theorems` exhaustively verifies, per
program: that every FLP answer set is an SFLP answer set; that the two
coincide on convex programs; that supported models are exactly the models
of the completion; that the SFLP test agrees with its completion-based
characterization (checked over every candidate interpretation); and, for
atomic-head programs whose rewriting stays enumerable, that compilation
is answer-set preserving in both directions.
"""

from __future__ import annotations

import random
import sys

from .compile import bijection_violations, rew_flp, rew_sflp
from .core import (
    Atom,
    Conjunct,
    CountAggregate,
    DEFAULT_ATOM_LIMIT,
    Dnf,
    LiteralConjunction,
    Program,
    Record,
    Rule,
    TooManyAtoms,
    TruthTable,
    format_interpretation,
    is_convex_program,
    set_field,
    subsets_in_canonical_order,
)
from .parser import render
from .semantics import (
    SemanticsKind,
    completion,
    enumerate_interpretations,
    flp_reduct,
    is_model,
    is_sflp_answer_set,
    proper_subsets,
)

BODY_KINDS = ("literal", "count", "dnf", "table")

_DEFAULT_MIX = (("literal", 4.0), ("count", 2.0), ("dnf", 2.0), ("table", 2.0))


class GenConfig(Record):
    __slots__ = ("atom_count", "rule_count", "body_mix", "allow_disjunctive_heads",
                 "allow_constraints", "seed")
    atom_count: int
    rule_count: int
    body_mix: tuple[tuple[str, float], ...]
    allow_disjunctive_heads: bool
    allow_constraints: bool
    seed: int

    def __init__(
        self,
        atom_count: int = 4,
        rule_count: int = 4,
        body_mix: tuple[tuple[str, float], ...] = _DEFAULT_MIX,
        allow_disjunctive_heads: bool = False,
        allow_constraints: bool = True,
        seed: int = 0,
    ):
        if not 1 <= atom_count <= 8:
            raise ValueError("atom_count must be in 1..8")
        if not 0 <= rule_count <= 10:
            raise ValueError("rule_count must be in 0..10")
        body_mix = tuple(body_mix)
        for kind, weight in body_mix:
            if kind not in BODY_KINDS:
                raise ValueError(f"unknown body kind: {kind!r}")
            if weight < 0:
                raise ValueError("body weights must be non-negative")
        if not any(w > 0 for _, w in body_mix):
            raise ValueError("at least one body kind needs positive weight")
        set_field(self, "atom_count", atom_count)
        set_field(self, "rule_count", rule_count)
        set_field(self, "body_mix", body_mix)
        set_field(self, "allow_disjunctive_heads", allow_disjunctive_heads)
        set_field(self, "allow_constraints", allow_constraints)
        set_field(self, "seed", seed)


def generate(cfg: GenConfig) -> Program:
    """A random program, deterministic in the seed."""
    rng = random.Random(cfg.seed)
    universe = [Atom(name) for name in "abcdefgh"[: cfg.atom_count]]
    kinds = [k for k, _ in cfg.body_mix]
    weights = [w for _, w in cfg.body_mix]
    rules = []
    for _ in range(cfg.rule_count):
        head = _gen_head(rng, cfg, universe)
        kind = rng.choices(kinds, weights)[0]
        rules.append(Rule(head, _gen_body(rng, kind, universe)))
    return Program(rules)


def _gen_head(rng: random.Random, cfg: GenConfig, universe: list[Atom]) -> frozenset[Atom]:
    roll = rng.random()
    if cfg.allow_disjunctive_heads and roll < 0.2 and len(universe) >= 2:
        return frozenset(rng.sample(universe, 2))
    if cfg.allow_constraints and roll > 0.85:
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

    def __init__(self, name: str, status: str, details: tuple[str, ...] = ()):
        set_field(self, "name", name)
        set_field(self, "status", status)
        set_field(self, "details", details)


class TheoremReport(Record):
    __slots__ = ("program_text", "results")
    program_text: str
    results: tuple[CheckResult, ...]

    def __init__(self, program_text: str, results: tuple[CheckResult, ...]):
        set_field(self, "program_text", program_text)
        set_field(self, "results", results)

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == FAIL)


def check_theorems(
    program: Program,
    limit: int = DEFAULT_ATOM_LIMIT,
    compile_limit: int = 18,
    exhaustive_limit: int = 12,
) -> TheoremReport:
    """Run every theorem check that applies to the program.

    `limit` caps the kernel enumerations; `exhaustive_limit` caps the
    completion-based checks, whose per-candidate loops run in Python and
    grow as 2^n per atom; `compile_limit` caps the size of rewritings
    that are enumerated for the bijection checks. Checks over the cap
    are reported as skipped, never silently dropped.
    """
    results = []
    flp_sets = enumerate_interpretations(program, SemanticsKind.FLP, limit)
    sflp_sets = enumerate_interpretations(program, SemanticsKind.SFLP, limit)
    flp = set(flp_sets)
    sflp = set(sflp_sets)
    supported = set(
        enumerate_interpretations(program, SemanticsKind.SUPPORTED, limit)
    )

    missing = sorted(flp - sflp, key=format_interpretation)
    results.append(
        CheckResult(
            "flp_subset_sflp",
            FAIL if missing else PASS,
            tuple("flp answer set not sflp: " + format_interpretation(i) for i in missing),
        )
    )

    if is_convex_program(program, limit):
        diff = sorted(flp ^ sflp, key=format_interpretation)
        results.append(
            CheckResult(
                "convex_equivalence",
                FAIL if diff else PASS,
                tuple("flp/sflp disagree at: " + format_interpretation(i) for i in diff),
            )
        )
    else:
        results.append(CheckResult("convex_equivalence", SKIP, ("not a convex program",)))

    if len(program.atoms()) > exhaustive_limit:
        over = (f"{len(program.atoms())} atoms exceed the exhaustive-check cap "
                f"of {exhaustive_limit}",)
        results.append(CheckResult("supported_equals_completion_models", SKIP, over))
        results.append(CheckResult("sflp_completion_characterization", SKIP, over))
    else:
        comp = completion(program, limit)
        comp_models = set(
            enumerate_interpretations(comp, SemanticsKind.CLASSICAL, limit)
        )
        diff = sorted(supported ^ comp_models, key=format_interpretation)
        results.append(
            CheckResult(
                "supported_equals_completion_models",
                FAIL if diff else PASS,
                tuple(
                    "supported/completion disagree at: " + format_interpretation(i)
                    for i in diff
                ),
            )
        )
        results.append(_characterization_check(program, comp, sflp, limit))
    for kind, source in ((SemanticsKind.FLP, flp_sets), (SemanticsKind.SFLP, sflp_sets)):
        results.append(_compilation_check(program, kind, source, limit, compile_limit))
    return TheoremReport(render(program), tuple(results))


def _characterization_check(
    program: Program, comp: Program, sflp_sets: set, limit: int
) -> CheckResult:
    universe = sorted(program.atoms())
    if len(universe) > limit:
        return CheckResult("sflp_completion_characterization", SKIP, ("over atom limit",))
    details = []
    for candidate in subsets_in_canonical_order(universe):
        direct = is_sflp_answer_set(candidate, program)
        via = False
        if is_model(candidate, comp):
            comp_reduct = completion(flp_reduct(program, candidate), limit)
            via = not any(is_model(j, comp_reduct) for j in proper_subsets(candidate))
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
    return CheckResult(
        "sflp_completion_characterization", FAIL if details else PASS, tuple(details)
    )


def _compilation_check(
    program: Program,
    kind: SemanticsKind,
    source: tuple[frozenset[Atom], ...],
    limit: int,
    compile_limit: int,
) -> CheckResult:
    """What `verify_compilation(program, kind, max(limit, compile_limit))`
    reports, from one rewriting and the answer sets `source` that were
    already enumerated."""
    # one shared string: callers may keep every report of a long run
    name = sys.intern(f"compilation_bijection_{kind.value}")
    if any(a.is_reserved for a in program.atoms()):
        return CheckResult(name, SKIP, ("already-compiled input (reserved atoms)",))
    if any(len(r.head) > 1 for r in program.rules):
        return CheckResult(name, SKIP, ("disjunctive head",))
    rew = rew_flp if kind is SemanticsKind.FLP else rew_sflp
    try:
        rewritten, cmap = rew(program, max_domain=limit)
    except TooManyAtoms:
        return CheckResult(name, SKIP, ("body domain over the dnf limit",))
    n_rewritten = len(rewritten.atoms())
    if n_rewritten > compile_limit:
        return CheckResult(name, SKIP, (f"rewriting spans {n_rewritten} atoms",))
    compiled = enumerate_interpretations(
        rewritten, SemanticsKind.FLP, max(limit, compile_limit)
    )
    violations = bijection_violations(program, cmap, source, compiled)
    return CheckResult(name, FAIL if violations else PASS, violations)
