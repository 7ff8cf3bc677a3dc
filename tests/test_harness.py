import hashlib
import itertools
import random

import pytest

from gasp import compile as comp, harness
from gasp.compile import verify_compilation, with_support_rules
from gasp.core import (
    Atom,
    Conjunct,
    DEFAULT_ATOM_LIMIT,
    LiteralConjunction,
    Program,
    Rule,
    TruthTable,
    is_convex,
    subsets_in_canonical_order,
)
from gasp.harness import (
    FAIL,
    PASS,
    SKIP,
    CHECK_NAMES,
    GenConfig,
    _gen_body,
    check_theorems,
    generate,
)
from gasp.parser import parse_program, render
from gasp.semantics import is_flp_answer_set, is_model, is_sflp_answer_set, is_supported_model

from conftest import CORPUS_NAMES


class TestGenConfig:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            GenConfig(atom_count=0)
        with pytest.raises(ValueError):
            GenConfig(atom_count=9)
        with pytest.raises(ValueError):
            GenConfig(rule_count=11)


class TestGenerate:
    def test_deterministic_in_seed(self):
        for seed in (0, 7, 123):
            cfg = GenConfig(atom_count=5, rule_count=6, seed=seed)
            assert render(generate(cfg)) == render(generate(cfg))

    def test_zero_rules(self):
        assert len(generate(GenConfig(rule_count=0)).rules) == 0

    def test_round_trip_many_seeds(self):
        for seed in range(300):
            program = generate(GenConfig(atom_count=4, rule_count=5, seed=seed))
            assert parse_program(render(program)) == program

    def test_no_reserved_atoms(self):
        for seed in range(50):
            program = generate(GenConfig(atom_count=4, rule_count=5, seed=seed))
            assert not any(a.is_reserved for a in program.atoms())

    def test_all_kinds_appear_across_seeds(self):
        seen = set()
        for seed in range(80):
            program = generate(GenConfig(atom_count=4, rule_count=6, seed=seed))
            for rule in program.rules:
                seen.add(type(rule.body).__name__)
        assert seen == {
            "LiteralConjunction",
            "CountAggregate",
            "Dnf",
            "TruthTable",
        }

    def test_nonconvex_tables_appear(self):
        rng = random.Random(0)
        universe = [Atom(name) for name in "abcd"]
        nonconvex = sum(not is_convex(_gen_body(rng, "table", universe)) for _ in range(720))
        assert nonconvex > 20, nonconvex

    def test_disjunctive_heads_only_when_allowed(self):
        for seed in range(60):
            program = generate(GenConfig(atom_count=4, rule_count=6, seed=seed))
            assert all(len(r.head) <= 1 for r in program.rules)
        some = 0
        for seed in range(60):
            cfg = GenConfig(atom_count=4, rule_count=6, allow_disjunctive_heads=True, seed=seed)
            some += sum(1 for r in generate(cfg).rules if len(r.head) > 1)
        assert some > 0


class TestCheckTheorems:
    def test_corpus_has_no_failures(self, corpus):
        for name in CORPUS_NAMES:
            report = check_theorems(corpus[name])
            assert report.ok, (name, report.failures)

    def test_corpus_compilation_checks_run(self, corpus):
        report = check_theorems(corpus["p1"])
        by_name = {r.name: r for r in report.results}
        assert by_name["compilation_bijection_flp"].status == PASS
        assert by_name["compilation_bijection_sflp"].status == PASS
        assert by_name["convex_equivalence"].status == SKIP

    def test_disjunctive_program_skips_compilation(self, corpus):
        report = check_theorems(corpus["p4"])
        by_name = {r.name: r for r in report.results}
        assert by_name["compilation_bijection_flp"].status == SKIP
        assert by_name["compilation_bijection_sflp"].status == SKIP
        assert report.ok

    def test_report_is_deterministic(self, corpus):
        left = check_theorems(corpus["p5"])
        right = check_theorems(corpus["p5"])
        assert left == right

    def test_all_checks_reported(self, corpus):
        report = check_theorems(corpus["p2"])
        assert tuple(r.name for r in report.results) == CHECK_NAMES

    def test_known_sflp_compilation_failure_is_reported_with_witness(self, monkeypatch):
        # the checker is itself under test here: given the rewriting without
        # closure rules, it must flag the witness `c :- not c.`, and the
        # witness must replay in isolation; the real rewriting passes it
        program = parse_program("c :- not c.")
        assert check_theorems(program).ok
        monkeypatch.setattr(harness, "with_support_rules", support_only)
        report = check_theorems(program)
        by_name = {r.name: r for r in report.results}
        assert by_name["compilation_bijection_sflp"].status == FAIL
        assert by_name["compilation_bijection_flp"].status == PASS
        assert by_name["flp_subset_sflp"].status == PASS
        assert by_name["supported_equals_completion_models"].status == PASS
        assert by_name["sflp_completion_characterization"].status == PASS
        again = check_theorems(parse_program(report.program_text))
        assert {r.name: r.status for r in again.results} == {
            r.name: r.status for r in report.results
        }

    @pytest.mark.parametrize("patched, prefixes", [
        ("sflp_given_completion", ("direct=",)),
        ("is_sflp_answer_set", ("direct=", "enumeration disagrees")),
    ])
    def test_characterization_failures_name_each_candidate(self, monkeypatch, patched, prefixes):
        # a side of the characterization that answers every candidate
        # wrongly fails it at each of the 4 candidates over {a, b}; a wrong
        # direct test also disagrees with the enumeration
        right = getattr(harness, patched)
        monkeypatch.setattr(harness, patched, lambda *args: not right(*args))
        report = check_theorems(parse_program("a :- count{a, b} != 1. b :- count{a, b} != 1."))
        assert not report.ok
        (failed,) = report.failures
        assert failed.name == "sflp_completion_characterization"
        assert len(failed.details) == 4 * len(prefixes)
        for prefix in prefixes:
            at = [line.rpartition(" at ")[2] for line in failed.details if line.startswith(prefix)]
            assert at == ["{}", "{a}", "{a, b}", "{b}"]

    def test_wide_programs_skip_only_the_characterization_check(self):
        text = " ".join(f"x{i} :- not x{(i + 1) % 14}." for i in range(14))
        report = check_theorems(parse_program(text))
        by_name = {r.name: r for r in report.results}
        assert by_name["flp_subset_sflp"].status == PASS
        assert by_name["supported_equals_completion_models"].status == PASS
        assert by_name["sflp_completion_characterization"].status == SKIP
        assert report.ok

    def test_compiled_programs_pass_the_semantic_checks(self, corpus):
        # rewriting output is a legitimate theorem-check input; being
        # already compiled, only its compilation sub-checks are skipped
        from gasp.compile import rew_flp, rew_sflp

        for name in ("p1", "p2", "p3", "p5"):
            for rew in (rew_flp, rew_sflp):
                compiled, _ = rew(corpus[name])
                report = check_theorems(compiled)
                assert report.ok, (name, report.failures)
                by_name = {r.name: r for r in report.results}
                assert by_name["compilation_bijection_flp"].status == SKIP
                assert by_name["convex_equivalence"].status == PASS

    def test_compilation_checks_match_verify_compilation(self, monkeypatch):
        # the harness reuses its own enumerations and rewriting; each
        # compilation status and detail must be what the public verifier
        # reports: for the real rewriting, and, FAIL details included, for
        # the rewriting without closure rules, where the README's two
        # witnesses fail
        programs = [
            parse_program("c :- not c."),
            parse_program("c :- count{b, c} != 1. b :- c, not a."),
        ]
        programs += [
            generate(GenConfig(atom_count=2 + seed % 4, rule_count=seed % 7, seed=seed))
            for seed in range(200)
        ]
        seen = _compilation_statuses(programs)
        assert seen[PASS] >= 200 and seen[FAIL] == 0 and seen[SKIP] >= 1, seen
        monkeypatch.setattr(comp, "with_support_rules", support_only)
        monkeypatch.setattr(harness, "with_support_rules", support_only)
        seen = _compilation_statuses(programs)
        assert seen[FAIL] >= 2, seen

    def test_semantic_checks_clean_over_many_seeds(self):
        # no theorem check fails, the compilation bijections included
        exercised = {name: 0 for name in CHECK_NAMES}
        for seed in range(150):
            cfg = GenConfig(
                atom_count=2 + seed % 4,
                rule_count=seed % 6,
                allow_disjunctive_heads=(seed % 4 == 3),
                seed=seed,
            )
            report = check_theorems(generate(cfg))
            for result in report.results:
                if result.status != SKIP:
                    exercised[result.name] += 1
                assert result.status != FAIL, (seed, result.name, result.details)
        assert exercised["flp_subset_sflp"] == 150
        assert exercised["convex_equivalence"] >= 30
        assert exercised["compilation_bijection_flp"] >= 60
        assert exercised["compilation_bijection_sflp"] >= 60


def support_only(flp, cmap):
    """The SFLP rewriting without its closure rules, which is not exact: an
    empty map has no bodies to close, and the support rules are read off
    the FLP rewriting alone."""
    return with_support_rules(flp, {})


def _compilation_statuses(programs):
    """How often each status came up in the two compilation checks of the
    programs, each checked against `verify_compilation`."""
    seen = {PASS: 0, FAIL: 0, SKIP: 0}
    for program in programs:
        report = check_theorems(program, compile_limit=16)
        for kind in ("flp", "sflp"):
            (result,) = (r for r in report.results
                         if r.name == f"compilation_bijection_{kind}")
            seen[result.status] += 1
            if result.status == SKIP:
                assert result.details[0].startswith("rewriting spans"), result
                assert int(result.details[0].split()[2]) > 16
                continue
            verified = verify_compilation(program, kind, 20)
            assert result.details == verified.violations, (render(program), kind)
            assert result.status == (FAIL if verified.violations else PASS)
    return seen


class TestOneRewritingPerProgram:
    """A program whose rewriting is checked builds it once; one whose
    rewriting is skipped, for its size or before that, builds none. Either
    way each rule's body is put in DNF at most once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The rule lists the harness builds a rewriting from, and the
        bodies the compiler puts in DNF."""
        seen = {"build_rewriting": [], "to_dnf": []}

        def spy(key, owner, attr):
            original = getattr(owner, attr)

            def wrapper(first, *args, **kwargs):
                seen[key].append(first)
                return original(first, *args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        spy("build_rewriting", harness, "build_rewriting")
        spy("to_dnf", comp, "to_dnf")
        return seen

    @staticmethod
    def atomic_head_programs(corpus) -> list[Program]:
        programs = [corpus[name] for name in ("p1", "p2", "p3", "p5")]
        return programs + [
            generate(GenConfig(atom_count=2 + seed % 4, rule_count=seed % 7, seed=seed))
            for seed in range(60)
        ]

    def test_atomic_head_programs_are_rewritten_once(self, corpus, builds):
        built = skipped = 0
        for program in self.atomic_head_programs(corpus):
            report = check_theorems(program, compile_limit=16)
            statuses = {r.status for r in report.results[-2:]}
            assert builds["to_dnf"] == [r.body for r in program.rules]
            if statuses == {SKIP}:
                assert builds["build_rewriting"] == []
                skipped += 1
            else:
                assert len(builds["build_rewriting"]) == 1
                built += 1
            builds["build_rewriting"].clear()
            builds["to_dnf"].clear()
        assert built >= 30 and skipped >= 5, (built, skipped)

    def test_disjunctive_and_reserved_programs_are_not_rewritten(self, corpus, builds):
        from gasp.compile import rew_flp

        disjunctive = [corpus["p4"]] + [
            p for p in (
                generate(GenConfig(atom_count=4, rule_count=6,
                                   allow_disjunctive_heads=True, seed=seed))
                for seed in range(20)
            )
            if any(len(r.head) > 1 for r in p.rules)
        ]
        compiled = rew_flp(corpus["p1"])[0]
        builds["to_dnf"].clear()
        for program, detail in [(p, "disjunctive head") for p in disjunctive] + [
            (compiled, "already-compiled input (reserved atoms)")
        ]:
            report = check_theorems(program)
            for result in report.results[-2:]:
                assert (result.status, result.details) == (SKIP, (detail,))
        assert builds == {"build_rewriting": [], "to_dnf": []}

    def test_one_skip_decision_over_the_compile_limit(self, corpus, builds):
        from gasp.compile import rew_flp, rew_sflp

        program = corpus["p5"]
        spans = len(rew_flp(program)[0].atoms())
        assert len(rew_sflp(program)[0].atoms()) == spans
        builds["to_dnf"].clear()
        report = check_theorems(program, compile_limit=spans - 1)
        flp, sflp = report.results[-2:]
        assert (flp.name, sflp.name) == CHECK_NAMES[-2:]
        for result in (flp, sflp):
            assert (result.status, result.details) == (SKIP, (f"rewriting spans {spans} atoms",))
        bodies = [r.body for r in program.rules]
        assert builds == {"build_rewriting": [], "to_dnf": bodies}
        builds["to_dnf"].clear()
        report = check_theorems(program, compile_limit=spans)
        assert [r.status for r in report.results[-2:]] == [PASS, PASS]
        assert len(builds["build_rewriting"]) == 1
        assert builds["to_dnf"] == bodies

    def test_skip_detail_is_the_size_of_the_rewriting(self, corpus):
        # the size is read off the canonical bodies, never off a rewriting:
        # it must be the atom count of the rewriting `rew_flp` builds, and
        # a rewriting of exactly `compile_limit` atoms is checked
        from gasp.compile import canonical_rules, rew_flp, rewriting_size

        programs = self.atomic_head_programs(corpus) + [
            parse_program("a :- count{a, b} >= 0. :- not a. :- b. c :- a, not b."),
            parse_program("a :- count{a} > 1. b :- a. :- count{a, b} != 1."),
        ]
        for program in programs:
            spans = len(rew_flp(program)[0].atoms())
            assert rewriting_size(canonical_rules(program)) == spans, render(program)
            if not 0 < spans <= DEFAULT_ATOM_LIMIT:  # `limit` caps it too
                continue
            over = check_theorems(program, compile_limit=spans - 1).results[-2:]
            detail = f"rewriting spans {spans} atoms"
            assert [(r.status, r.details) for r in over] == [(SKIP, (detail,))] * 2
            at = check_theorems(program, compile_limit=spans).results[-2:]
            assert [r.status for r in at] == [PASS, PASS], render(program)


# The small-scope battery: every rule whose body is one of the 21 nonempty
# truth families over {a}, {b} or {a, b} and whose head is {a}, {b}, {a, b}
# or empty (84 rules); the literal bodies `a` and `b` under each of those
# heads (a positive literal the rewriting keeps, and under the empty head a
# one-literal constraint) and the constraints `:- not a.` and `:- not b.`
# (10 more); and every program of at most two distinct rules.
_SMALL_DOMAINS = ((Atom("a"),), (Atom("b"),), (Atom("a"), Atom("b")))
_SMALL_HEADS = ((Atom("a"),), (Atom("b"),), (Atom("a"), Atom("b")), ())

# sha256 of the small-scope battery's reports, built like the acceptance
# battery's: each program's text, then repr((name, status, details)) of
# each of its results. A change that means to alter a report updates this
# value and says so in CHANGES.md.
SMALL_SCOPE_DIGEST = "e93acc09062a123f9382fec11298aad2fa085df641bf9ee39f13d706c71a95cf"

SMALL_SCOPE_COUNTS = {  # check name: (pass, fail, skip)
    "flp_subset_sflp": (4466, 0, 0),
    "convex_equivalence": (3404, 0, 1062),
    "supported_equals_completion_models": (4466, 0, 0),
    "sflp_completion_characterization": (4466, 0, 0),
    "compilation_bijection_flp": (2557, 0, 1909),
    "compilation_bijection_sflp": (2557, 0, 1909),
}


def small_scope_programs() -> list[Program]:
    bodies = []
    for domain in _SMALL_DOMAINS:
        rows = list(subsets_in_canonical_order(domain))
        for family in range(1, 2 ** len(rows)):
            bodies.append(TruthTable(domain, (r for i, r in enumerate(rows) if family >> i & 1)))
    rules = [Rule(head, body) for body in bodies for head in _SMALL_HEADS]
    for a in _SMALL_DOMAINS[:2]:
        positive = LiteralConjunction(Conjunct(a, ()))
        rules.extend(Rule(head, positive) for head in _SMALL_HEADS)
        rules.append(Rule((), LiteralConjunction(Conjunct((), a))))
    assert len(rules) == 94
    pairs = itertools.combinations(rules, 2)
    return [Program()] + [Program([r]) for r in rules] + [Program(pair) for pair in pairs]


def test_predicates_take_a_program_or_its_rules():
    """The AST predicates give one verdict on a `Program` and on its rule
    tuple, at every interpretation over the small-scope programs' atoms."""
    # each predicate accepts a subset of what the one before it accepts
    predicates = (is_model, is_supported_model, is_sflp_answer_set, is_flp_answer_set)
    interpretations = list(subsets_in_canonical_order(_SMALL_DOMAINS[2]))
    accepted = [0] * len(predicates)
    for program in small_scope_programs():
        for i in interpretations:
            for k, predicate in enumerate(predicates):
                verdict = predicate(i, program)
                assert predicate(i, program.rules) is verdict, (render(program), i, predicate)
                accepted[k] += verdict
    assert all(accepted) and accepted == sorted(accepted, reverse=True), accepted


def test_small_scope_battery():
    digest = hashlib.sha256()
    counts = {name: [0, 0, 0] for name in CHECK_NAMES}
    programs = small_scope_programs()
    assert len(programs) == 4466
    for program in programs:
        report = check_theorems(program, compile_limit=16)
        digest.update(report.program_text.encode())
        for result in report.results:
            digest.update(repr((result.name, result.status, result.details)).encode())
            counts[result.name][(PASS, FAIL, SKIP).index(result.status)] += 1
    assert {name: tuple(c) for name, c in counts.items()} == SMALL_SCOPE_COUNTS
    assert digest.hexdigest() == SMALL_SCOPE_DIGEST


# The three-atom battery: every one-rule program over {a, b, c} whose body
# is one of the 255 satisfiable truth tables over all three atoms and whose
# head is any of the 8 subsets of {a, b, c}, empty included (2,040
# programs). Its digest and tallies are built like the small-scope
# battery's; a change that means to alter a report updates them and says
# so in CHANGES.md.
THREE_ATOM_DIGEST = "425edd379fab2dc45c627f54aeffc42c19add45d986ee80f36325da6b3db2eba"

THREE_ATOM_COUNTS = {  # check name: (pass, fail, skip)
    "flp_subset_sflp": (2040, 0, 0),
    "convex_equivalence": (800, 0, 1240),
    "supported_equals_completion_models": (2040, 0, 0),
    "sflp_completion_characterization": (2040, 0, 0),
    "compilation_bijection_flp": (1020, 0, 1020),
    "compilation_bijection_sflp": (1020, 0, 1020),
}


def three_atom_programs() -> list[Program]:
    domain = (Atom("a"), Atom("b"), Atom("c"))
    rows = list(subsets_in_canonical_order(domain))
    return [Program([Rule(head, TruthTable(domain, (r for i, r in enumerate(rows)
                                                     if family >> i & 1)))])
            for family in range(1, 2 ** len(rows)) for head in rows]


def test_three_atom_battery():
    """The generalized atoms first reach most non-convex shapes at three
    atoms, where the small-scope battery stops short: every theorem check
    passes or skips, the skips being the non-convex bodies (4b) and the
    disjunctive heads (4e/4f)."""
    digest = hashlib.sha256()
    counts = {name: [0, 0, 0] for name in CHECK_NAMES}
    programs = three_atom_programs()
    assert len(programs) == 2040
    for program in programs:
        report = check_theorems(program)
        digest.update(report.program_text.encode())
        for result in report.results:
            digest.update(repr((result.name, result.status, result.details)).encode())
            counts[result.name][(PASS, FAIL, SKIP).index(result.status)] += 1
    assert {name: tuple(c) for name, c in counts.items()} == THREE_ATOM_COUNTS
    assert digest.hexdigest() == THREE_ATOM_DIGEST
