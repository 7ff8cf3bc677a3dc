import pytest

from gasp import lowering, semantics
from gasp.compile import rew_sflp
from gasp.core import (
    Atom,
    CountAggregate,
    Dnf,
    LiteralConjunction,
    Program,
    Rule,
    TooManyAtoms,
    TruthTable,
    atom_set,
    interp_sort_key,
    subsets_in_canonical_order,
    to_dnf,
)
from gasp.harness import GenConfig, generate
from gasp.parser import parse_program, render
from gasp.semantics import (
    SemanticsKind,
    UnknownAtom,
    completion,
    completion_atom,
    enumerate_candidates,
    enumerate_interpretations,
    flp_reduct,
    is_flp_answer_set,
    is_model,
    is_sflp_answer_set,
    is_supported_model,
    proper_subsets,
    satisfies_rule,
    sflp_via_completion,
)

from conftest import (
    CORPUS_NAMES,
    TABLE_EXPECTED,
    COMPLETION_MODELS,
    choice_gadgets,
    disjoint_union,
    fs,
    mixed_programs,
    product_of,
)
from oracles import all_subsets, completion_oracle, enumerate_oracle

EMPTY = frozenset()


class TestSatisfiesRule:
    def test_false_body_satisfies(self, corpus):
        rule = corpus["p1"].rules[0]  # a :- count{a, b} != 1
        assert satisfies_rule(fs("a"), rule) is True

    def test_head_hit_satisfies(self, corpus):
        rule = corpus["p1"].rules[0]
        assert satisfies_rule(fs("a", "b"), rule) is True

    def test_constraint_with_true_body_fails(self):
        rule = parse_program(":- not c.").rules[0]
        assert satisfies_rule(fs("a", "b"), rule) is False


class TestIsModel:
    def test_p1(self, corpus):
        assert is_model(fs("a"), corpus["p1"]) is True
        assert is_model(EMPTY, corpus["p1"]) is False

    def test_p2_total(self, corpus):
        assert is_model(fs("a", "b"), corpus["p2"]) is True

    def test_empty_program(self):
        assert is_model(EMPTY, Program([])) is True


class TestSupported:
    def test_p1(self, corpus):
        assert is_supported_model(fs("a", "b"), corpus["p1"]) is True
        assert is_supported_model(fs("a"), corpus["p1"]) is False

    def test_p4_disjunctive_fact_supports(self, corpus):
        assert is_supported_model(fs("a"), corpus["p4"]) is True

    def test_empty_interpretation_is_vacuous(self, corpus):
        for name in CORPUS_NAMES:
            program = corpus[name]
            assert is_supported_model(EMPTY, program) == is_model(EMPTY, program)

    def test_constraints_never_support(self):
        # an empty head can falsify a model but can never support an atom
        program = parse_program("a. :- not a, not b.")
        assert is_model(fs("a", "b"), program) is True
        assert is_supported_model(fs("a", "b"), program) is False
        assert is_supported_model(fs("a"), program) is True
        assert is_model(EMPTY, program) is False


class TestReduct:
    def test_p1_singletons_empty(self, corpus):
        assert flp_reduct(corpus["p1"], fs("a")) == Program([])
        assert flp_reduct(corpus["p1"], fs("b")) == Program([])

    def test_p1_total_is_whole_program(self, corpus):
        assert flp_reduct(corpus["p1"], fs("a", "b")) == corpus["p1"]

    def test_p5_keeps_the_negative_rule(self, corpus):
        assert flp_reduct(corpus["p5"], fs("a")) == parse_program("a :- not b.")

    def test_containment(self, corpus):
        for name in CORPUS_NAMES:
            program = corpus[name]
            for interp in all_subsets(program.atoms()):
                reduct = flp_reduct(program, interp)
                kept = set(reduct.rules)
                for rule in program.rules:
                    assert (rule in kept) == rule.body.eval(interp)


class TestAnswerSetPredicates:
    def test_flp_examples(self, corpus):
        assert is_flp_answer_set(fs("a", "b"), corpus["p1"]) is False
        assert is_flp_answer_set(fs("a"), corpus["p4"]) is True
        assert is_flp_answer_set(fs("a"), corpus["p5"]) is True

    def test_non_model_is_no_flp_answer_set(self, corpus):
        # the count body of p1 holds at {} and neither head atom is there
        assert not is_model(frozenset(), corpus["p1"])
        assert is_flp_answer_set(frozenset(), corpus["p1"]) is False

    def test_sflp_examples(self, corpus):
        assert is_sflp_answer_set(fs("a", "b"), corpus["p1"]) is True
        assert is_sflp_answer_set(fs("a", "b"), corpus["p4"]) is False
        assert is_sflp_answer_set(fs("a", "b"), corpus["p5"]) is True

    def test_supported_implies_model_on_random_programs(self):
        for seed in range(60):
            program = generate(GenConfig(atom_count=4, rule_count=4, seed=seed))
            for interp in all_subsets(program.atoms()):
                if is_supported_model(interp, program):
                    assert is_model(interp, program)


class TestEnumerate:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("kind", list(SemanticsKind))
    def test_corpus_matches_expected(self, corpus, name, kind):
        got = set(enumerate_interpretations(corpus[name], kind))
        assert got == TABLE_EXPECTED[name][kind.value]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    @pytest.mark.parametrize("kind", list(SemanticsKind))
    def test_corpus_matches_brute_force_oracle(self, corpus, name, kind):
        got = set(enumerate_interpretations(corpus[name], kind))
        assert got == enumerate_oracle(corpus[name], kind.value)

    def test_empty_program_each_kind(self):
        for kind in SemanticsKind:
            assert enumerate_interpretations(Program([]), kind) == (EMPTY,)

    def test_canonical_output_order(self, corpus):
        got = enumerate_interpretations(corpus["p5"], SemanticsKind.SUPPORTED)
        assert got == (fs("a"), fs("a", "b"))

    def test_random_programs_in_canonical_order(self):
        for seed in range(80):
            program = generate(GenConfig(
                atom_count=1 + seed % 6,
                rule_count=seed % 7,
                allow_disjunctive_heads=(seed % 3 == 0),
                seed=seed,
            ))
            for kind in SemanticsKind:
                got = enumerate_interpretations(program, kind)
                want = sorted(enumerate_oracle(program, kind.value), key=interp_sort_key)
                assert got == tuple(want), (seed, kind)
                assert all(atom_set(i) is i for i in got), (seed, kind)

    @pytest.mark.parametrize("kind, count", [
        (SemanticsKind.CLASSICAL, 3 ** 7),
        (SemanticsKind.SUPPORTED, 2 ** 5),
        (SemanticsKind.FLP, 0),
        (SemanticsKind.SFLP, 2 ** 5),
    ])
    def test_choice_gadgets_in_canonical_order(self, kind, count):
        program = choice_gadgets()
        # a first query may empty the full `atom_set` table midway; after
        # a second one every answer set is in the table
        enumerate_interpretations(program, kind)
        first = enumerate_interpretations(program, kind)
        got = enumerate_interpretations(program, kind)
        assert len(set(got)) == len(got) == count
        assert list(got) == sorted(got, key=interp_sort_key)
        # the decoded sets are the shared ones, so repeated queries share memory
        assert all(i is j for i, j in zip(got, first))
        assert all(atom_set(i) is i for i in got)

    def test_canonical_order_of_mixed_names(self):
        """Names that differ only in case, digits and underscores, and the
        `__aux` atoms of an SFLP rewriting, which sort before them: answers
        in all four modes and DNF disjuncts come out in the order of
        `interp_sort_key`, over the universe that `positions` numbers."""
        program = parse_program(
            "a0 :- count{a0, ab} != 1. ab :- count{a0, ab} != 1. "
            "aB :- not a_. a_ :- not aB. zZ9 :- zZ9. a0 :- zZ9, not aB."
        )
        rewritten, _ = rew_sflp(program)
        names = ["aB", "a_", "a0", "ab", "zZ9"]
        odd = frozenset(s for s in all_subsets([Atom(x) for x in names]) if len(s) % 2)
        table = TruthTable(frozenset(Atom(x) for x in names), odd)
        answers = 0
        for p in (program, rewritten):
            assert lowering.lower(p).atoms == tuple(lowering.positions(p.atoms())[0])
            for kind in SemanticsKind:
                got = enumerate_interpretations(p, kind)
                assert list(got) == sorted(got, key=interp_sort_key), kind
                answers += len(got)
        assert answers == 641
        for body in [r.body for p in (program, rewritten) for r in p.rules] + [table]:
            positives = [d.positives for d in to_dnf(body).disjuncts]
            assert positives == sorted(positives, key=interp_sort_key), body

    def test_atom_limit(self):
        wide = parse_program(" ".join(f"x{i}." for i in range(6)))
        with pytest.raises(TooManyAtoms):
            enumerate_interpretations(wide, SemanticsKind.CLASSICAL, limit=5)


PREDICATES = {
    SemanticsKind.CLASSICAL: is_model,
    SemanticsKind.SUPPORTED: is_supported_model,
    SemanticsKind.FLP: is_flp_answer_set,
    SemanticsKind.SFLP: is_sflp_answer_set,
}


def ast_sets(program: Program, kind: SemanticsKind) -> tuple:
    """The subsets of atoms(P) that the AST predicate of `kind` accepts, in
    canonical order."""
    accepts = PREDICATES[kind]
    return tuple(i for i in subsets_in_canonical_order(program.atoms()) if accepts(i, program))


class TestDisjointUnions:
    """Unions of 2-4 programs over disjoint atoms (`conftest.disjoint_union`),
    many of which the SFLP query splits into their parts: every query and
    the one scan, in canonical order, against the AST predicates of the
    whole program up to 10 atoms, and against the product of the parts'
    AST sets at 12-16 atoms, a reference the kernel plays no part in."""

    def test_whole_program_predicates(self):
        for seed in range(1000, 1100):
            program, _ = disjoint_union(seed, 4 + seed % 7)
            want = {kind: ast_sets(program, kind) for kind in SemanticsKind}
            for kind in SemanticsKind:
                assert enumerate_interpretations(program, kind) == want[kind], (seed, kind)
            for kind, got in enumerate_candidates(program).items():
                assert got == want[kind], (seed, kind)

    def test_products_of_the_parts(self):
        wide = 0
        for seed in range(1000, 1060):
            program, parts = disjoint_union(seed, 12 + seed % 5)
            wide += len(program.atoms()) >= 12
            want = {
                kind: tuple(sorted(product_of(ast_sets(p, kind) for p in parts),
                                   key=interp_sort_key))
                for kind in SemanticsKind
            }
            for kind in SemanticsKind:
                assert enumerate_interpretations(program, kind) == want[kind], (seed, kind)
            for kind, got in enumerate_candidates(program).items():
                assert got == want[kind], (seed, kind)
        assert wide >= 40, wide

    def test_one_scan_decodes_each_supported_model_once(self, monkeypatch):
        """Nine even loops `x :- not y. y :- not x.`: their 512 supported
        models are all FLP and SFLP answer sets, and each is decoded once."""
        program = parse_program(" ".join(f"x{i} :- not y{i}. y{i} :- not x{i}."
                                         for i in range(9)))
        decoded = []
        decode = lowering.decode
        monkeypatch.setattr(lowering, "decode", lambda atoms, masks: decoded.extend(masks)
                            or decode(atoms, masks))
        found = enumerate_candidates(program)
        assert sorted(decoded) == sorted(set(decoded)) and len(decoded) == 512
        assert [len(found[kind]) for kind in found] == [512, 512, 512]
        assert all(found[kind] == found[SemanticsKind.SUPPORTED] for kind in found)


class TestCandidateSpace:
    def test_foreign_atom_never_helps(self):
        foreign = Atom("zzz")
        for seed in range(40):
            program = generate(GenConfig(atom_count=3, rule_count=3, seed=seed))
            assert foreign not in program.atoms()
            for kind, predicate in (
                (SemanticsKind.SUPPORTED, is_supported_model),
                (SemanticsKind.FLP, is_flp_answer_set),
                (SemanticsKind.SFLP, is_sflp_answer_set),
            ):
                for interp in enumerate_interpretations(program, kind):
                    assert predicate(interp | {foreign}, program) is False


def _window_chain(n: int) -> Program:
    """n rules `xi :- count{xi, x(i+1), x(i+2)} != 1`, indices mod n: each
    atom's completion table spans 3 atoms however large n is."""
    atoms = [Atom(f"x{i:02}") for i in range(n)]
    return Program(
        Rule({a}, CountAggregate({atoms[(i + k) % n] for k in range(3)}, "!=", 1))
        for i, a in enumerate(atoms)
    )


class TestCompletion:
    def test_comp_a_p1(self, corpus):
        table = completion_atom(Atom("a"), corpus["p1"])
        assert table.domain == fs("a", "b")
        # true exactly where a holds and the count body is false
        assert table.satisfying == frozenset({fs("a")})

    def test_comp_a_p2(self, corpus):
        table = completion_atom(Atom("a"), corpus["p2"])
        assert table.satisfying == frozenset({fs("a")})

    def test_fact_makes_completion_unsatisfiable(self):
        table = completion_atom(Atom("a"), parse_program("a."))
        assert table.satisfying == frozenset()

    def test_unknown_atom(self, corpus):
        with pytest.raises(UnknownAtom):
            completion_atom(Atom("zzz"), corpus["p1"])

    def test_tables_are_lowered_from_the_heading_rules_alone(self, monkeypatch):
        """`completion_atom` lowers the rules that head the atom as they
        are, building no `Program` of them: an atom that heads rules, one
        that heads none, and one not in the program (UnknownAtom)."""
        def no_program(*args):
            raise AssertionError("completion_atom built a Program")

        monkeypatch.setattr(semantics, "Program", no_program)
        program = parse_program("a :- b. a :- not c. b :- a.")
        assert completion_atom(Atom("a"), program).domain == fs("a", "b", "c")
        assert completion_atom(Atom("c"), program).satisfying == frozenset({fs("c")})
        with pytest.raises(UnknownAtom):
            completion_atom(Atom("z"), program)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_completion_models(self, corpus, name):
        got = set(enumerate_interpretations(completion(corpus[name]), SemanticsKind.CLASSICAL))
        assert got == COMPLETION_MODELS[name]

    def test_completion_of_empty_program(self):
        assert completion(Program([])) == Program([])

    def test_a_supported_atom_gets_no_constraint(self):
        assert completion(parse_program("a.")) == parse_program("a.")

    def test_completion_round_trips_through_its_text(self, corpus):
        programs = [corpus[name] for name in CORPUS_NAMES] + [parse_program("a. b :- a.")]
        programs += [
            generate(GenConfig(atom_count=1 + seed % 6, rule_count=seed % 7,
                               allow_disjunctive_heads=(seed % 3 == 0), seed=seed))
            for seed in range(500)
        ]
        for program in programs:
            completed = completion(program)
            assert parse_program(render(completed)) == completed, render(program)

    def test_tables_match_the_definition_on_random_programs(self):
        shapes = {"disjunctive head": 0, "constraint": 0, "body-only atom": 0}
        for seed in range(150):
            cfg = GenConfig(
                atom_count=1 + seed % 6,
                rule_count=1 + seed % 6,
                allow_disjunctive_heads=(seed % 2 == 0),
                seed=seed,
            )
            program = generate(cfg)
            heads = set()
            for rule in program.rules:
                heads |= rule.head
                shapes["disjunctive head"] += len(rule.head) > 1
                shapes["constraint"] += not rule.head
            shapes["body-only atom"] += bool(program.atoms() - heads)
            expected = []
            for atom in sorted(program.atoms()):
                table = completion_oracle(atom, program)
                realized = completion_atom(atom, program)
                local = {atom}.union(*(r.atoms() for r in program.rules if atom in r.head))
                assert realized.domain == local, (seed, atom)
                for i in all_subsets(program.atoms()):
                    assert realized.eval(i) == (i in table), (seed, atom, i)
                if table:  # a table with no row is no constraint
                    expected.append(Rule(frozenset(), realized))
            assert completion(program) == Program(list(program.rules) + expected)
        assert all(shapes.values()), shapes

    def test_completion_at_twenty_atoms(self):
        chain = _window_chain(20)
        completed = completion(chain)
        tables = [r.body for r in completed.rules if isinstance(r.body, TruthTable)]
        assert len(tables) == 20
        assert all(len(t.domain) == 3 for t in tables)
        assert enumerate_interpretations(completed, SemanticsKind.CLASSICAL) == (
            enumerate_interpretations(chain, SemanticsKind.SUPPORTED)
        )

    def test_limit_bounds_each_table_not_the_program(self):
        chain = _window_chain(24)
        assert len(completion(chain)) == 48  # under the default limit of 20
        assert len(completion(chain, limit=3)) == 48
        with pytest.raises(TooManyAtoms, match="completion table over 3 atoms"):
            completion(chain, limit=2)
        with pytest.raises(TooManyAtoms, match="completion table over 3 atoms"):
            completion_atom(Atom("x00"), chain, limit=2)

    def test_supported_equals_completion_models_randomly(self):
        for seed in range(60):
            program = generate(GenConfig(atom_count=4, rule_count=4, seed=seed))
            supported = set(enumerate_interpretations(program, SemanticsKind.SUPPORTED))
            comp_models = set(
                enumerate_interpretations(completion(program), SemanticsKind.CLASSICAL)
            )
            assert supported == comp_models


class TestSflpViaCompletion:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_agrees_with_direct_predicate_exhaustively(self, corpus, name):
        program = corpus[name]
        for interp in all_subsets(program.atoms()):
            assert sflp_via_completion(interp, program) == is_sflp_answer_set(
                interp, program
            )

    def test_p1_total(self, corpus):
        assert sflp_via_completion(fs("a", "b"), corpus["p1"]) is True

    def test_empty_program(self):
        assert sflp_via_completion(EMPTY, Program([])) is True


class TestTheoremWitnesses:
    def test_flp_subset_sflp_on_corpus(self, corpus):
        for name in CORPUS_NAMES:
            flp = set(enumerate_interpretations(corpus[name], SemanticsKind.FLP))
            sflp = set(enumerate_interpretations(corpus[name], SemanticsKind.SFLP))
            assert flp <= sflp

    def test_tautologies_can_remove_sflp_answer_sets(self, corpus):
        base = corpus["p1"]
        padded = Program(list(base.rules) + list(parse_program("a :- a. b :- b.").rules))
        assert set(enumerate_interpretations(base, SemanticsKind.SFLP)) == {fs("a", "b")}
        assert set(enumerate_interpretations(padded, SemanticsKind.SFLP)) == set()
        # while the containment in SFLP still holds for both programs
        for program in (base, padded):
            flp = set(enumerate_interpretations(program, SemanticsKind.FLP))
            sflp = set(enumerate_interpretations(program, SemanticsKind.SFLP))
            assert flp <= sflp

    def test_flp_answer_sets_are_supported_models(self, corpus):
        """Were a in an FLP answer set I supported by no rule, every rule of
        the reduct of I would have a true head atom other than a, so I
        without a would be a smaller model of the reduct."""
        programs = [corpus[name] for name in CORPUS_NAMES] + mixed_programs()
        kinds = {type(r.body) for p in programs for r in p.rules}
        assert kinds == {LiteralConjunction, CountAggregate, Dnf, TruthTable}
        assert sum(any(len(r.head) > 1 for r in p.rules) for p in programs) >= 300
        answer_sets = unsupported_models = 0
        for program in programs:
            for interp in all_subsets(program.atoms()):
                if not is_model(interp, program):
                    continue
                if is_flp_answer_set(interp, program):
                    assert is_supported_model(interp, program), (str(program), interp)
                    answer_sets += 1
                elif not is_supported_model(interp, program):
                    unsupported_models += 1
        assert answer_sets >= 500 and unsupported_models >= 500


class TestProperSubsets:
    def test_increasing_cardinality_and_proper(self):
        """The proper subsets come in canonical order, the order of
        `subsets_in_canonical_order`, without the set itself."""
        interp = fs("a", "b", "c")
        got = list(proper_subsets(interp))
        assert got == [s for s in subsets_in_canonical_order(interp) if s != interp]
        assert got == [EMPTY, fs("a"), fs("a", "b"), fs("a", "c"), fs("b"), fs("b", "c"),
                       fs("c")]
