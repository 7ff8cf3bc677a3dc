import hashlib

import pytest

from gasp import cli
from gasp.compile import (
    DisjunctiveHead,
    aux_names,
    bijection_violations,
    closure_rules,
    contraction,
    expansion,
    rew_atom,
    rew_flp,
    rew_sflp,
    verify_compilation,
)
from gasp.core import (
    Atom,
    Conjunct,
    Dnf,
    LiteralConjunction,
    Program,
    ReservedAtomError,
    Rule,
    UnsatisfiableBody,
    is_convex_program,
    to_dnf,
)
from gasp.harness import GenConfig, generate
from gasp.parser import parse_program, render, render_rule
from gasp.semantics import SemanticsKind, enumerate_interpretations

from conftest import CORPUS_DIR, fs
from oracles import all_subsets, prime_implicants, support_oracle

TOTAL = fs("a", "b", "__aux_t_1")

# minterm DNF of count{a, b} != 1
A_DNF = Dnf((
    Conjunct(frozenset(), fs("a", "b")),
    Conjunct(fs("a", "b"), frozenset()),
))

NAMES = aux_names(1, 2)

ATOMIC_HEAD_CORPUS = ("p1", "p2", "p3", "p5")

# sha256 of the `gasp compile` text of p1, p2, p3 and p5, in that order,
# each with --semantics flp then sflp, each without then with --rewrite-all
COMPILE_TEXT_SHA256 = "6a00ac687f40254f471ebcdc5312e69156ff81add29fb33f76870b125a1fefe8"

REW_FLP_P1 = """\
a :- __aux_t_1.
b :- __aux_t_1.
__aux_t_1 | a | b :- not __aux_f_1_0.
__aux_t_1 :- a, b, not __aux_f_1_0.
__aux_f_1_1 :- a, not __aux_t_1.
__aux_f_1_1 :- b, not __aux_t_1.
__aux_f_1_2 :- not __aux_t_1, not a.
__aux_f_1_2 :- not __aux_t_1, not b.
__aux_f_1_0 :- __aux_f_1_1, __aux_f_1_2, not __aux_t_1.
"""


class TestAuxNames:
    def test_scheme(self):
        names = aux_names(3, 2)
        assert names.t.name == "__aux_t_3"
        assert [a.name for a in names.f] == ["__aux_f_3_0", "__aux_f_3_1", "__aux_f_3_2"]
        assert all(a.is_reserved for a in (names.t, *names.f))


class TestRewAtom:
    def test_rule_inventory(self):
        rules = rew_atom(A_DNF, NAMES)
        assert len(rules) == 7  # 2 tr + 4 literal fls + 1 final fls
        assert [render_rule(r) for r in rules] == [
            "__aux_t_1 | a | b :- not __aux_f_1_0.",
            "__aux_t_1 :- a, b, not __aux_f_1_0.",
            "__aux_f_1_1 :- a, not __aux_t_1.",
            "__aux_f_1_1 :- b, not __aux_t_1.",
            "__aux_f_1_2 :- not __aux_t_1, not a.",
            "__aux_f_1_2 :- not __aux_t_1, not b.",
            "__aux_f_1_0 :- __aux_f_1_1, __aux_f_1_2, not __aux_t_1.",
        ]

    def test_single_literal_inventory(self):
        single = Dnf((Conjunct(fs("a"), frozenset()),))
        rules = rew_atom(single, aux_names(1, 1))
        assert [render_rule(r) for r in rules] == [
            "__aux_t_1 :- a, not __aux_f_1_0.",
            "__aux_f_1_1 :- not __aux_t_1, not a.",
            "__aux_f_1_0 :- __aux_f_1_1, not __aux_t_1.",
        ]

    def test_empty_disjunct_inventory(self):
        # the body of a fact: one disjunct with no literal
        top = Dnf((Conjunct(frozenset(), frozenset()),))
        rules = rew_atom(top, aux_names(1, 1))
        assert [render_rule(r) for r in rules] == [
            "__aux_t_1 :- not __aux_f_1_0.",
            "__aux_f_1_0 :- __aux_f_1_1, not __aux_t_1.",
        ]

    def test_count_formula(self):
        for body in (A_DNF, to_dnf(parse_program("x :- count{a, b, c} >= 2.").rules[0].body)):
            k = len(body.disjuncts)
            total_literals = sum(len(d.literals()) for d in body.disjuncts)
            rules = rew_atom(body, aux_names(1, k))
            assert len(rules) == k + total_literals + 1


class TestRewFlp:
    def test_p1_golden(self, corpus):
        rewritten, cmap = rew_flp(corpus["p1"])
        assert render(rewritten) == REW_FLP_P1
        assert cmap == {A_DNF: NAMES}

    def test_p1_has_no_flp_answer_sets(self, corpus):
        rewritten, _ = rew_flp(corpus["p1"])
        assert enumerate_interpretations(rewritten, SemanticsKind.FLP) == ()

    def test_p2_adds_the_literal_rules(self, corpus):
        rewritten, _ = rew_flp(corpus["p2"])
        expected = Program(
            list(rew_flp(corpus["p1"])[0].rules)
            + list(parse_program("a :- b. b :- a.").rules)
        )
        assert rewritten == expected
        got = enumerate_interpretations(rewritten, SemanticsKind.FLP)
        assert set(got) == {TOTAL}

    def test_p3_keeps_single_literal_constraints(self, corpus):
        rewritten, _ = rew_flp(corpus["p3"])
        expected = Program(
            list(rew_flp(corpus["p1"])[0].rules)
            + list(parse_program(":- not a. :- not b.", allow_reserved=True).rules)
        )
        assert rewritten == expected
        assert enumerate_interpretations(rewritten, SemanticsKind.FLP) == ()

    def test_p4_disjunctive_head_rejected(self, corpus):
        with pytest.raises(DisjunctiveHead):
            rew_flp(corpus["p4"])

    def test_reserved_input_rejected(self):
        bad = Program([Rule(fs("__aux_t_1"), LiteralConjunction(Conjunct(fs("a"), frozenset())))])
        with pytest.raises(ReservedAtomError):
            rew_flp(bad)

    def test_bad_input_is_refused_before_any_dnf(self):
        # the count body's DNF would span 3 atoms, over the limit of 2, but
        # the later rule's disjunctive head is reported first; reserved
        # atoms come before disjunctive heads, and the first disjunctive
        # rule in program order is the one named
        program = parse_program("a :- count{b, c, d} > 1. x | y :- z.")
        with pytest.raises(DisjunctiveHead) as refused:
            rew_flp(program, max_domain=2)
        assert str(refused.value) == "cannot compile a rule with a disjunctive head: x | y"
        program = parse_program("q | p :- z. x | y :- z. __aux_t_1 :- z.", allow_reserved=True)
        with pytest.raises(ReservedAtomError):
            rew_sflp(program, max_domain=2)
        with pytest.raises(DisjunctiveHead, match=r"head: p \| q$"):
            rew_sflp(Program(program.rules[:2]), max_domain=2)

    def test_dead_rules_dropped(self):
        program = parse_program("a :- count{b} > 1. b.")
        rewritten, cmap = rew_flp(program)
        assert Atom("a") not in rewritten.atoms()
        assert len(cmap) == 1  # only the fact's body is rewritten

    def test_shared_bodies_share_one_family(self):
        program = parse_program("a :- count{a, b} != 1. b :- dnf{~a & ~b | a & b}.")
        _, cmap = rew_flp(program)
        assert len(cmap) == 1

    def test_output_is_convex_and_aggregate_free(self, corpus):
        for name in ("p1", "p2", "p3", "p5"):
            rewritten, _ = rew_flp(corpus[name])
            assert all(isinstance(r.body, LiteralConjunction) for r in rewritten.rules)
            assert is_convex_program(rewritten)

    def test_flp_equals_sflp_on_rewritten_output(self, corpus):
        rewritten, _ = rew_flp(corpus["p1"])
        flp = enumerate_interpretations(rewritten, SemanticsKind.FLP)
        sflp = enumerate_interpretations(rewritten, SemanticsKind.SFLP)
        assert flp == sflp

    def test_deterministic_output(self, corpus):
        once = render(rew_flp(corpus["p2"])[0])
        again = render(rew_flp(corpus["p2"])[0])
        assert once == again


def _live_atoms(program):
    """Sorted atoms of the rules whose bodies some interpretation satisfies."""
    atoms = set()
    for rule in program.rules:
        try:
            to_dnf(rule.body)
        except UnsatisfiableBody:
            continue
        atoms |= rule.atoms()
    return sorted(atoms)


def _atom_body(atom):
    return LiteralConjunction(Conjunct(frozenset({atom}), frozenset()))


def _last_rule_with_body(rewritten, name):
    """The last rule of the rewriting whose body is the atom `name` alone.
    In an SFLP rewriting that is the atom's support rule, when no earlier
    rule equals it: the support rules come last."""
    return [r for r in rewritten.rules if r.body == _atom_body(Atom(name))][-1]


class TestSupp:
    def test_p1_supp_a(self, corpus):
        rewritten, _ = rew_sflp(corpus["p1"])
        assert render_rule(_last_rule_with_body(rewritten, "a")) == "__aux_t_1 :- a."

    def test_p2_supp_a_keeps_the_literal(self, corpus):
        rewritten, _ = rew_sflp(corpus["p2"])
        assert render_rule(_last_rule_with_body(rewritten, "a")) == "__aux_t_1 | b :- a."

    def test_headless_atom_yields_constraint(self):
        rewritten, _ = rew_sflp(parse_program("a :- c."))
        assert render_rule(_last_rule_with_body(rewritten, "c")) == ":- c."


def _check_closure(body, names, rules):
    """The closure rules of one rewritten body, against the oracle."""
    domain = body.domain
    cubes = []
    for rule in rules:
        assert not rule.body.conjunct.negatives and names.t in rule.body.conjunct.positives
        cubes.append((rule.body.conjunct.positives - {names.t}, rule.head))
    assert len(set(cubes)) == len(cubes)

    def holds(cube, s):
        positives, negatives = cube
        return positives <= s and not negatives & s

    subsets = all_subsets(domain)
    false = {s for s in subsets if not body.eval(s)}
    assert {s for s in subsets if any(holds(c, s) for c in cubes)} == false
    # each cube is prime (no cube with a literal dropped misses the true
    # subsets), and no prime implicant is missing
    assert set(cubes) == prime_implicants(domain, lambda s: s in false)


class TestRewSflp:
    def test_p1_answer_set(self, corpus):
        rewritten, _ = rew_sflp(corpus["p1"])
        got = enumerate_interpretations(rewritten, SemanticsKind.FLP)
        assert set(got) == {TOTAL}

    def test_p1_extends_the_flp_rewriting(self, corpus):
        # the closure rules: the negated body ~(count{a, b} != 1) says that
        # exactly one of a and b holds, and its prime implicants are a & ~b
        # and b & ~a
        flp_version, _ = rew_flp(corpus["p1"])
        sflp_version, _ = rew_sflp(corpus["p1"])
        closure = "b :- __aux_t_1, a. a :- __aux_t_1, b."
        support = "__aux_t_1 :- a. __aux_t_1 :- b."
        assert sflp_version == Program(
            list(flp_version.rules)
            + list(parse_program(closure + " " + support, allow_reserved=True).rules)
        )

    @pytest.mark.parametrize("rewrite_all", [False, True])
    def test_extends_the_flp_rewriting_rule_for_rule(self, corpus, rewrite_all):
        # the FLP rules in order, then the closure rules of every map entry
        # in map order, then one support rule per atom of a rule with a
        # satisfiable body, in sorted order; one map for both. The closure
        # rules of an entry are checked against the oracle: their cubes
        # (P true, N false) hold at exactly the subsets of the domain that
        # falsify the body, each cube is prime, and none is missing. The
        # support rule `H :- a` is checked against the definition: at the
        # expansion of every I over the program's atoms, it holds exactly
        # when a is supported at I. A program keeps the first of equal
        # rules, so a support rule equal to an earlier rule `h :- a` or
        # `:- a` is found among the earlier rules with that body.
        programs = [corpus[name] for name in ATOMIC_HEAD_CORPUS]
        programs += [
            generate(GenConfig(atom_count=1 + seed % 6, rule_count=seed % 11, seed=seed))
            for seed in range(1000)
        ]
        for program in programs:
            flp_version, flp_map = rew_flp(program, rewrite_all)
            sflp_version, sflp_map = rew_sflp(program, rewrite_all)
            entries = list(flp_map.items())
            closure = []
            for body, names in entries:
                rules = closure_rules(body, names)
                _check_closure(body, names, rules)
                closure.extend(rules)
            prefix = Program(flp_version.rules + tuple(closure)).rules
            assert sflp_version.rules[:len(prefix)] == prefix, render(program)
            assert list(sflp_map.items()) == entries
            expanded = [(i, expansion(i, program, flp_map)) for i in all_subsets(program.atoms())]
            support = list(sflp_version.rules[len(prefix):])
            for atom in _live_atoms(program):
                body = _atom_body(atom)
                if support and support[0].body == body:
                    candidates = [support.pop(0)]
                else:
                    candidates = [r for r in prefix if r.body == body]
                verdicts = [support_oracle(atom, i, program) for i, _ in expanded]
                assert any(
                    [not r.body.eval(j) or bool(r.head & j) for _, j in expanded] == verdicts
                    for r in candidates
                ), (render(program), atom)
            assert support == [], render(program)

    def test_compile_command_text_is_pinned(self, capsys):
        digest = hashlib.sha256()
        for name in ATOMIC_HEAD_CORPUS:
            for semantics in ("flp", "sflp"):
                for extra in ([], ["--rewrite-all"]):
                    path = str(CORPUS_DIR / f"{name}.gasp")
                    assert cli.main(["compile", "--semantics", semantics, *extra, path]) == 0
                    digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == COMPILE_TEXT_SHA256

    def test_p2_answer_set(self, corpus):
        rewritten, _ = rew_sflp(corpus["p2"])
        assert set(enumerate_interpretations(rewritten, SemanticsKind.FLP)) == {TOTAL}
        flp_rewritten, _ = rew_flp(corpus["p2"])
        assert set(enumerate_interpretations(flp_rewritten, SemanticsKind.FLP)) == {TOTAL}

    def test_p3_answer_set(self, corpus):
        rewritten, _ = rew_sflp(corpus["p3"])
        assert set(enumerate_interpretations(rewritten, SemanticsKind.FLP)) == {TOTAL}


class TestExpansionContraction:
    def test_expansion_of_the_total_model(self, corpus):
        _, cmap = rew_sflp(corpus["p1"])
        assert expansion(fs("a", "b"), corpus["p1"], cmap) == TOTAL

    def test_expansion_of_a_falsifying_model(self, corpus):
        _, cmap = rew_sflp(corpus["p1"])
        got = expansion(fs("a"), corpus["p1"], cmap)
        # the count body is false at {a}, so every falsity atom joins
        assert got == fs("a", "__aux_f_1_0", "__aux_f_1_1", "__aux_f_1_2")
        assert not A_DNF.eval(fs("a"))

    def test_expansion_with_empty_map(self):
        assert expansion(frozenset(), Program([]), {}) == frozenset()

    def test_contraction(self, corpus):
        assert contraction(TOTAL, corpus["p1"]) == fs("a", "b")
        assert contraction(frozenset(), corpus["p1"]) == frozenset()
        assert contraction(fs("a"), corpus["p1"]) == fs("a")


class TestVerifyCompilation:
    def test_p1_sflp_bijection(self, corpus):
        report = verify_compilation(corpus["p1"], "sflp")
        assert report.ok
        assert report.source_sets == (fs("a", "b"),)
        assert report.compiled_sets == (TOTAL,)

    def test_p1_flp_bijection_is_empty(self, corpus):
        report = verify_compilation(corpus["p1"], "flp")
        assert report.ok
        assert report.source_sets == ()
        assert report.compiled_sets == ()

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p5"])
    @pytest.mark.parametrize("kind", ["flp", "sflp"])
    @pytest.mark.parametrize("rewrite_all", [False, True])
    def test_corpus_bijections(self, corpus, name, kind, rewrite_all):
        report = verify_compilation(corpus[name], kind, rewrite_all=rewrite_all)
        assert report.ok, report.violations

    def test_random_flp_bijections(self):
        checked = 0
        for seed in range(200):
            program = generate(GenConfig(atom_count=4, rule_count=4, seed=seed))
            if any(len(r.head) > 1 for r in program.rules):
                continue
            rewritten, _ = rew_flp(program)
            if len(rewritten.atoms()) > 16:
                continue
            report = verify_compilation(program, "flp", 18)
            assert report.ok, (seed, report.violations)
            checked += 1
        assert checked >= 80

    def test_sflp_contraction_counterexample(self):
        # `c :- not c.` has no sflp answer sets, and neither has its
        # rewriting. A rewriting without closure rules has {c, t}: the
        # support rule t :- c and c :- t hold each other up there. The
        # closure rule :- t, c forbids that pair, and without c the falsity
        # atom f1, hence f0 and t, cannot be derived.
        program = parse_program("c :- not c.")
        assert enumerate_interpretations(program, SemanticsKind.SFLP) == ()
        rewritten, _ = rew_sflp(program)
        assert parse_program(":- __aux_t_1, c.", allow_reserved=True).rules[0] in rewritten.rules
        assert enumerate_interpretations(rewritten, SemanticsKind.FLP) == ()
        report = verify_compilation(program, "sflp")
        assert report.ok, report.violations

    def test_sflp_expansion_counterexample(self):
        # {b, c} is supported in the source (the count body is true there),
        # and the only smaller reduct model {b} is unsupported, so {b, c}
        # is an sflp answer set. A rewriting without closure rules has
        # {b, t2} blocking its expansion: supp(b) = t2 :- b and b :- t2
        # sustain each other. The closure rule c :- t2 (t2 demands the body
        # c & ~a) breaks the pair, so the expansion is the one answer set
        # of the rewriting.
        program = parse_program("c :- count{b, c} != 1. b :- c, not a.")
        sflp = enumerate_interpretations(program, SemanticsKind.SFLP)
        assert sflp == (fs("b", "c"),)
        rewritten, cmap = rew_sflp(program)
        compiled = enumerate_interpretations(rewritten, SemanticsKind.FLP)
        assert expansion(fs("b", "c"), program, cmap) == fs("b", "c", "__aux_t_1", "__aux_t_2")
        assert compiled == (expansion(fs("b", "c"), program, cmap),)
        report = verify_compilation(program, "sflp")
        assert report.ok, report.violations

    def test_only_flp_and_sflp_compile(self, corpus):
        with pytest.raises(ValueError, match="flp and sflp"):
            verify_compilation(corpus["p1"], "models")

    def test_bijection_violations_name_each_failure(self, corpus):
        program = corpus["p1"]
        _, cmap = rew_sflp(program)
        a, ab = fs("a"), fs("a", "b")
        a_expanded = expansion(a, program, cmap)
        # {a, t} contracts to the source set {a}, whose expansion differs
        assert bijection_violations(
            program, cmap, (ab, a), (TOTAL, a_expanded, fs("a", "__aux_t_1"))
        ) == ("expansion and contraction disagree on {__aux_t_1, a}",)
        # a source set holding an auxiliary atom expands like one without it
        assert bijection_violations(
            program, cmap, (a, a | fs("__aux_f_1_0")), (a_expanded,)
        ) == ("expansion is not injective on the source answer sets",)
        assert bijection_violations(program, cmap, (ab, ab), (TOTAL,)) == (
            "answer-set counts differ: 2 source vs 1 compiled",
        )

    def test_rewrite_all_removes_exemptions(self, corpus):
        rewritten, cmap = rew_flp(corpus["p2"], rewrite_all=True)
        # all four bodies rewritten: the shared count body plus b and a
        assert len(cmap) == 3
        assert all(isinstance(r.body, LiteralConjunction) for r in rewritten.rules)

    def test_rule_count_formula(self):
        for seed in range(60):
            program = generate(GenConfig(atom_count=4, rule_count=4, seed=seed))
            if any(len(r.head) > 1 for r in program.rules):
                continue
            rewritten, cmap = rew_flp(program)
            surviving = []
            from gasp.core import UnsatisfiableBody

            for rule in program.rules:
                try:
                    to_dnf(rule.body)
                except UnsatisfiableBody:
                    continue
                surviving.append(rule)
            aux_rules = sum(
                len(dnf.disjuncts) + sum(len(d.literals()) for d in dnf.disjuncts) + 1
                for dnf in cmap
            )
            # rendered rewriting collapses duplicates, so compare as sets
            assert len(rewritten.rules) <= len(surviving) + aux_rules
            assert len(rewritten.rules) >= aux_rules
