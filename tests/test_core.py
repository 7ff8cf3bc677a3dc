import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import core
from gasp.core import (
    Atom,
    Conjunct,
    CountAggregate,
    Dnf,
    LiteralConjunction,
    Program,
    Record,
    Rule,
    TOP,
    TooManyAtoms,
    TruthTable,
    UnsatisfiableBody,
    atom_set,
    body_key,
    interp_sort_key,
    is_convex,
    is_convex_program,
    subsets_in_canonical_order,
    to_dnf,
)
from gasp.compile import AuxNames, CompilationReport
from gasp.harness import BODY_KINDS, CheckResult, GenConfig, TheoremReport, _gen_body, generate
from gasp.lowering import lower
from gasp.parser import SourceProgram, _Token, parse_program
from gasp.semantics import SemanticsKind

from conftest import fs
from oracles import all_subsets, completion_oracle, convex_by_triples, reference_body_key

A, B, C = Atom("a"), Atom("b"), Atom("c")

COUNT_NE_1 = CountAggregate(frozenset({A, B}), "!=", 1)


def lit(pos=(), neg=()):
    return LiteralConjunction(Conjunct(fs(*pos), fs(*neg)))


class TestAtom:
    def test_valid_names(self):
        assert Atom("a").name == "a"
        assert Atom("aB_9").name == "aB_9"
        assert str(Atom("aB_9")) == "aB_9"
        assert Atom("__aux_t_1").is_reserved
        assert not Atom("a").is_reserved

    @pytest.mark.parametrize("name", ["", "A", "1a", "_x", "a-b", "__other", "not"])
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    def test_ordering_is_by_name(self):
        assert sorted([B, Atom("__aux_t_1"), A]) == [Atom("__aux_t_1"), A, B]

    def test_sorted_atoms_are_in_name_order(self):
        rng = random.Random(3)
        alphabet = "abAB09_"
        names = {rng.choice("ab") + "".join(rng.choices(alphabet, k=rng.randrange(4)))
                 for _ in range(300)}
        names |= {f"__aux_t_{i}" for i in range(12)}
        atoms = [Atom(n) for n in names]
        rng.shuffle(atoms)
        assert [a.name for a in sorted(atoms)] == sorted(names)

    def test_hash_is_the_tuple_hash_itself(self):
        # a Python-level __hash__ would run once per set operation on atoms
        assert Atom.__hash__ is tuple.__hash__

    def test_equality_is_strict_in_both_directions(self):
        a = Atom("a")
        assert a == Atom("a") and not a != Atom("a")
        assert a != Atom("b") and not a == Atom("b")
        for other in [("a",), "a", ["a"]]:
            assert a != other and other != a
            assert not a == other and not other == a
        assert a.__eq__(("a",)) is False and a.__ne__(("a",)) is True
        assert len({a, ("a",)}) == 2

    def test_copies_and_pickles_round_trip(self):
        for a in [A, Atom("__aux_f_1_0")]:
            copies = [copy.copy(a), copy.deepcopy(a)]
            copies += [pickle.loads(pickle.dumps(a, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in copies:
                assert type(twin) is Atom and twin == a and hash(twin) == hash(a)
                assert twin.name == a.name and repr(twin) == repr(a)

    def test_one_object_per_name(self):
        assert Atom("a") is Atom("a") is A
        assert Atom("".join(["a", "b"])) is Atom("ab")
        assert Atom("a") is not Atom("b")
        assert copy.deepcopy(A) is A and pickle.loads(pickle.dumps(A)) is A

    # Each case would silently read the atom as its one-letter name if an
    # atom iterated like the tuple it is.
    @pytest.mark.parametrize("build", [
        lambda: Rule(Atom("a"), TOP),
        lambda: Conjunct(Atom("a"), ()),
        lambda: frozenset(Atom("a")),
    ], ids=["rule_head", "conjunct_positives", "frozenset"])
    def test_is_not_iterable(self, build):
        with pytest.raises(TypeError, match="'Atom' object is not iterable"):
            build()


class TestConjunct:
    def test_clash_rejected(self):
        with pytest.raises(ValueError):
            Conjunct(fs("a"), fs("a", "b"))

    def test_literals_order(self):
        c = Conjunct(fs("b", "a"), fs("c"))
        assert c.literals() == ((A, True), (B, True), (C, False))


class TestEval:
    def test_count_on_full_pair(self):
        assert COUNT_NE_1.eval(fs("a", "b")) is True

    def test_count_on_singleton(self):
        assert COUNT_NE_1.eval(fs("a")) is False

    def test_count_on_empty(self):
        assert COUNT_NE_1.eval(frozenset()) is True

    def test_literal_conjunction(self):
        assert lit(pos=("a",), neg=("b",)).eval(fs("a", "c")) is True

    def test_dnf(self):
        body = Dnf((Conjunct(frozenset(), fs("a", "b")), Conjunct(fs("a", "b"), frozenset())))
        assert body.eval(frozenset()) is True
        assert body.eval(fs("a")) is False

    def test_truth_table(self):
        body = TruthTable(fs("a", "b"), frozenset({fs("a")}))
        assert body.eval(fs("a")) is True
        assert body.eval(fs("a", "b")) is False
        # unmentioned atoms are ignored
        assert body.eval(fs("a", "c")) is True

    def test_truth_table_domain_checked(self):
        with pytest.raises(ValueError):
            TruthTable(fs("a"), frozenset({fs("a", "b")}))

    @pytest.mark.parametrize("atoms, comparator, bound, message", [
        ((), ">=", 1, "at least one atom"),
        (("a",), "=<", 1, "unknown comparator"),
        (("a",), ">=", -1, "non-negative"),
    ])
    def test_count_aggregate_checked(self, atoms, comparator, bound, message):
        with pytest.raises(ValueError, match=message):
            CountAggregate(fs(*atoms), comparator, bound)

    def test_dnf_needs_a_disjunct(self):
        with pytest.raises(ValueError, match="at least one disjunct"):
            Dnf(())


class TestDomain:
    def test_count(self):
        assert COUNT_NE_1.domain == fs("a", "b")

    def test_empty_literal_conjunction(self):
        assert TOP.domain == frozenset()

    def test_dnf_union(self):
        body = Dnf((Conjunct(frozenset(), fs("a", "b")), Conjunct(fs("a", "b"), frozenset())))
        assert body.domain == fs("a", "b")

    def test_truth_table_is_declared(self):
        body = TruthTable(fs("a", "b", "c"), frozenset({fs("a")}))
        assert body.domain == fs("a", "b", "c")


class TestSubsetOrder:
    def test_canonical_order(self):
        got = [fs_ for fs_ in subsets_in_canonical_order([A, B])]
        assert got == [frozenset(), fs("a"), fs("a", "b"), fs("b")]

    def test_counts(self):
        assert len(list(subsets_in_canonical_order([A, B, C]))) == 8


class TestToDnf:
    def test_count_ne_one(self):
        got = to_dnf(COUNT_NE_1)
        assert got == Dnf((
            Conjunct(frozenset(), fs("a", "b")),
            Conjunct(fs("a", "b"), frozenset()),
        ))

    def test_single_positive_literal(self):
        assert to_dnf(lit(pos=("a",))) == Dnf((Conjunct(fs("a"), frozenset()),))

    def test_unsatisfiable_table(self):
        with pytest.raises(UnsatisfiableBody):
            to_dnf(TruthTable(fs("a"), frozenset()))

    def test_unsatisfiable_count(self):
        with pytest.raises(UnsatisfiableBody):
            to_dnf(CountAggregate(fs("a", "b"), ">", 5))

    def test_domain_cap(self):
        wide = CountAggregate(fs(*[f"x{i}" for i in range(8)]), ">=", 1)
        with pytest.raises(TooManyAtoms):
            to_dnf(wide, max_domain=6)

    def test_minterm_count_matches_satisfying_count(self):
        rng = random.Random(7)
        for _ in range(100):
            body = _random_table(rng, 4)
            sat = [s for s in all_subsets(body.domain) if body.eval(s)]
            if not sat:
                with pytest.raises(UnsatisfiableBody):
                    to_dnf(body)
                continue
            assert len(to_dnf(body).disjuncts) == len(sat)

    def test_disjuncts_are_the_sorted_minterms(self):
        rng = random.Random(11)
        makers = (_random_table, _random_count, _random_dnf)
        for trial in range(300):
            body = _rename(rng.choice(makers)(rng, rng.randint(1, 6)), rng)
            sat = [s for s in all_subsets(body.domain) if body.eval(s)]
            if not sat:
                continue
            disjuncts = to_dnf(body).disjuncts
            assert [d.positives for d in disjuncts] == sorted(sat, key=interp_sort_key), trial
            assert all(d.negatives == body.domain - d.positives for d in disjuncts), trial

    def test_eval_equivalent_up_to_ten_atoms(self):
        # spot check at a width well past the sizes the suite uses daily
        names = [f"x{i}" for i in range(10)]
        body = CountAggregate(fs(*names), "=", 5)
        dnf = to_dnf(body, max_domain=10)
        rng = random.Random(3)
        for _ in range(50):
            interp = frozenset(Atom(n) for n in names if rng.random() < 0.5)
            assert dnf.eval(interp) == body.eval(interp)


class TestConvexity:
    def test_count_ne_is_not_convex(self):
        assert is_convex(COUNT_NE_1) is False
        assert convex_by_triples(COUNT_NE_1) is False

    def test_monotone_conjunction_is_convex(self):
        assert is_convex(lit(pos=("a", "b"))) is True

    def test_count_at_least_two_of_three(self):
        body = CountAggregate(fs("a", "b", "c"), ">=", 2)
        assert convex_by_triples(body) is True
        assert is_convex(body) is True

    def test_agrees_with_triple_oracle_on_random_tables(self):
        rng = random.Random(11)
        for _ in range(300):
            body = _random_table(rng, rng.randint(1, 5))
            assert is_convex(body) == convex_by_triples(body)
        # count and dnf bodies too, whose vectors are built differently
        verdicts = set()
        for _ in range(300):
            for body in (_random_count(rng, rng.randint(1, 5)),
                         _random_dnf(rng, rng.randint(1, 5))):
                verdict = is_convex(body)
                assert verdict == convex_by_triples(body), body
                verdicts.add((type(body), verdict))
        assert len(verdicts) == 4  # both verdicts for both shapes

    def test_sixteen_atom_count_is_decided(self):
        # a scan of every false subset against every true one needs about
        # 4^16 steps here; the subset/superset closures need 2 * 16 shifts
        names = [f"x{i}" for i in range(16)]
        assert is_convex(CountAggregate(fs(*names), "<=", 8)) is True
        assert is_convex(CountAggregate(fs(*names), "!=", 8)) is False

    def test_program_level(self, corpus):
        assert is_convex_program(corpus["p1"]) is False
        assert is_convex_program(corpus["p2"]) is False
        assert is_convex_program(parse_program("a :- b. b.")) is True


class TestProgram:
    def test_duplicates_collapse(self):
        p = parse_program("a :- b. a :- b. b.")
        assert len(p.rules) == 2
        assert len(p) == 2 and list(p) == list(p.rules)
        assert repr(p) == "Program(2 rules)"

    def test_equality_ignores_order_and_spelling(self):
        left = parse_program("a :- b. b.")
        right = parse_program("b. a :- b.")
        assert left == right
        assert hash(left) == hash(right)

    def test_dnf_spelling_differs_from_count(self):
        # same truth function, different surface form: distinct programs,
        # both round-trip faithfully
        count = parse_program("a :- count{a, b} != 1.")
        dnf = parse_program("a :- dnf{~a & ~b | a & b}.")
        assert count != dnf

    def test_table_keys_like_its_minterms(self):
        table = TruthTable(fs("a", "b"), frozenset({frozenset(), fs("a", "b")}))
        assert body_key(table) == body_key(to_dnf(table))

    def test_empty_disjunct_collapses_to_top(self):
        assert body_key(Dnf((Conjunct(frozenset(), frozenset()),))) == body_key(TOP)

    def test_atoms_include_body_domains(self):
        p = Program([Rule(fs("a"), TruthTable(fs("b", "c"), frozenset({fs("b")})))])
        assert p.atoms() == fs("a", "b", "c")


class TestProgramAtoms:
    def test_atoms_are_the_union_of_the_rules_and_shared(self):
        core._ATOM_SETS.clear()  # 8 atom names: the table cannot fill up
        by_set = {}
        for s in range(500):
            program = generate(GenConfig(
                atom_count=1 + s % 8, rule_count=s % 11,
                allow_disjunctive_heads=s % 2 == 0, seed=s,
            ))
            expected = frozenset().union(*(r.head | r.body.domain for r in program.rules))
            assert program.atoms() == expected
            assert program.atoms() is program.atoms()
            assert by_set.setdefault(expected, program.atoms()) is program.atoms()
        assert len(by_set) > 50

    def test_pickle_carries_only_the_rules(self):
        program = parse_program("a :- count{a, b} != 1. b :- not c. :- dnf{a & ~c}.")
        assert Program._fields == ("rules",)
        assert program.__reduce__() == (Program, (program.rules,))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(program, protocol))
            assert twin == program and twin.rules == program.rules
            assert twin.atoms() == program.atoms() == fs("a", "b", "c")
        assert repr(program) == "Program(3 rules)"
        with pytest.raises(AttributeError):
            program._atoms = frozenset()


def _key_variants(body):
    """The body and bodies that must key like it or apart from it: its
    minterm DNF, that DNF with an empty disjunct appended, the table of its
    rows, and that table over a domain padded with an atom it never
    mentions."""
    domain = body.domain
    rows = frozenset(s for s in all_subsets(domain) if body.eval(s))
    out = [body, TruthTable(domain, rows), TruthTable(domain | fs("z"), rows)]
    if rows:
        out.append(to_dnf(body))
    empty = Conjunct(frozenset(), frozenset())
    out += [Dnf(b.disjuncts + (empty,)) for b in out if isinstance(b, Dnf)]
    return out


class TestBodyKey:
    def test_same_classes_as_the_name_tuple_reference(self):
        """`body_key(x) == body_key(y)` exactly when the reference keys of
        x and y are equal: each key maps to one reference key and back."""
        rng = random.Random(14)
        universe = [Atom(n) for n in "abcd"]
        bodies = []
        for i in range(2000):
            kind = BODY_KINDS[i % len(BODY_KINDS)]
            width = 1 + i // len(BODY_KINDS) % len(universe)
            bodies.extend(_key_variants(_gen_body(rng, kind, universe[:width])))
        assert len(bodies) >= 8000
        refs_of, keys_of = {}, {}
        for body in bodies:
            key, ref = body_key(body), reference_body_key(body)
            refs_of.setdefault(key, set()).add(ref)
            keys_of.setdefault(ref, set()).add(key)
        assert all(len(refs) == 1 for refs in refs_of.values())
        assert all(len(keys) == 1 for keys in keys_of.values())
        tags = {key[0] for key in refs_of}
        assert tags == {"lit", "count", "dnf", "table"}
        assert 100 < len(refs_of) < len(bodies) // 4

    def test_rejects_a_non_body(self):
        with pytest.raises(TypeError, match="not a body"):
            body_key(A)

    def test_wide_completion_keys_like_its_minterm_dnfs(self):
        """A 12-atom chain plus one whole-universe completion table per
        atom has 12 tables of 512 rows, more rows than the atom-set table
        holds; each table keys like its minterm DNF, and a missing row
        tells the programs apart."""
        atoms = [Atom(f"x{i}") for i in range(12)]
        chain = Program(
            Rule({a}, CountAggregate({atoms[(i + k) % 12] for k in range(3)}, "!=", 1))
            for i, a in enumerate(atoms)
        )
        completed = Program(chain.rules + tuple(
            Rule((), TruthTable(chain.atoms(), completion_oracle(a, chain)))
            for a in sorted(chain.atoms())
        ))
        tables = [r.body for r in completed.rules if isinstance(r.body, TruthTable)]
        assert sum(len(t.satisfying) for t in tables) == 6144
        as_dnf = Program(
            Rule(r.head, to_dnf(r.body)) if isinstance(r.body, TruthTable) else r
            for r in completed.rules
        )
        assert completed == as_dnf
        assert hash(completed) == hash(as_dnf)
        last = completed.rules[-1].body
        short = TruthTable(last.domain, sorted(last.satisfying, key=interp_sort_key)[1:])
        assert Program(completed.rules[:-1] + (Rule((), short),)) != as_dnf


_C1 = Conjunct(fs("a"), fs("b"))
_C2 = Conjunct(fs("b"), fs())
_TABLE = TruthTable(fs("a", "b"), frozenset({fs("a"), fs()}))
_CHECK = CheckResult("flp_subset_sflp", "pass", ("detail",))

# one value of every record class, with its fields spelled out
RECORDS = [
    (Atom("a"), ("a",)),
    (_C1, (fs("a"), fs("b"))),
    (LiteralConjunction(_C1), (_C1,)),
    (CountAggregate(fs("a", "b"), "!=", 1), (fs("a", "b"), "!=", 1)),
    (Dnf((_C1, _C2)), ((_C1, _C2),)),
    (_TABLE, (fs("a", "b"), frozenset({fs("a"), fs()}))),
    (Rule(fs("a"), _TABLE), (fs("a"), _TABLE)),
    (SourceProgram("a.", "p.gasp"), ("a.", "p.gasp")),
    (AuxNames(Atom("__aux_t_1"), (Atom("__aux_f_1_0"),)),
     (Atom("__aux_t_1"), (Atom("__aux_f_1_0"),))),
    (CompilationReport(SemanticsKind.FLP, (fs("a"),), (), ()),
     (SemanticsKind.FLP, (fs("a"),), (), ())),
    (GenConfig(3, 2, True, 7), (3, 2, True, 7)),
    (_CHECK, ("flp_subset_sflp", "pass", ("detail",))),
    (TheoremReport("a.\n", (_CHECK,)), ("a.\n", (_CHECK,))),
    (_Token("name", "a", 0), ("name", "a", 0)),
]
RECORD_IDS = [type(x).__name__ for x, _ in RECORDS]


class _Pair(Record):
    __slots__ = ("x", "y")


class _OtherPair(Record):  # the fields of _Pair, in another class
    __slots__ = ("x", "y")


class TestRecords:
    @pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
    def test_hash_is_the_field_tuple_hash(self, record, fields):
        assert hash(record) == hash(fields)

    def test_atom_hash(self):
        assert hash(Atom("a")) == hash(("a",))
        assert hash(Atom("__aux_t_1")) == hash(("__aux_t_1",))

    @pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
    def test_equal_by_fields_within_the_class(self, record, fields):
        twin = type(record)(*fields)
        assert twin == record and not twin != record
        assert record != fields and fields != record

    @pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
    def test_wrong_number_of_values(self, record, fields):
        with pytest.raises(TypeError):
            type(record)(*fields, fields[-1])
        if type(record).__init__ is Record.__init__:
            with pytest.raises(TypeError):
                type(record)(*fields[:-1])

    def test_no_equality_across_classes(self):
        assert _Pair(1, 2) == _Pair(1, 2)
        assert _Pair(1, 2) != _OtherPair(1, 2)
        assert _Pair(1, 2) != _Pair(2, 1)
        assert LiteralConjunction(_C1) != Dnf((_C1,))
        assert Dnf((_C1,)) != LiteralConjunction(_C1)
        rule = Rule(fs("a"), TOP)
        assert rule != (fs("a"), TOP) and (fs("a"), TOP) != rule
        assert Atom("a") != "a" and "a" != Atom("a")

    @pytest.mark.parametrize("record, fields", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, record, fields):
        names = type(record)._fields
        assert len(names) == len(fields)
        for name, value in zip(names, fields):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_copies_and_pickles_are_equal(self):
        for record in [x for x, _ in RECORDS] + [parse_program("a :- b. b.")]:
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_names_the_fields(self):
        assert repr(_CHECK) == "CheckResult(name='flp_subset_sflp', status='pass', details=('detail',))"
        assert repr(Atom("a")) == "Atom('a')"

    def test_atom_order_is_name_order(self):
        names = ["__aux_t_1", "a", "aB", "a_1", "b", "b2"]
        for x in names:
            for y in names:
                ax, ay = Atom(x), Atom(y)
                assert (ax < ay, ax <= ay, ax > ay, ax >= ay) == (x < y, x <= y, x > y, x >= y)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_atom_does_not_compare_with_str(self, op):
        with pytest.raises(TypeError):
            eval(f"Atom('a') {op} 'b'")
        with pytest.raises(TypeError):
            eval(f"'b' {op} Atom('a')")

    def test_program_equality_ignores_rule_order(self):
        rules = [Rule(fs("a"), lit(["b"])), Rule(fs("b"), TOP), Rule(fs(), lit([], ["a"]))]
        assert Program(rules) == Program(rules[::-1])
        assert hash(Program(rules)) == hash(Program(rules[::-1]))
        assert Program(rules) != Program(rules[:2])
        assert Program(rules) != tuple(rules)
        with pytest.raises(AttributeError):
            Program(rules).rules = ()

    def test_lowered_program_stays_mutable(self):
        lp = lower(parse_program("a :- b. b."))
        lp.heads.append(0)
        lp.n = 3
        assert (lp.n, lp.heads[-1]) == (3, 0)
        assert not hasattr(lp, "__dict__")
        with pytest.raises(AttributeError):
            lp.extra = 1


class TestAtomSets:
    def test_equal_sets_are_one_object(self):
        head = Rule(fs("a", "b"), TOP).head
        assert Conjunct(fs("b", "a"), fs()).positives is head
        assert atom_set([Atom("b"), Atom("a")]) is head
        assert Rule(fs(), TOP).head is Conjunct(fs(), fs()).negatives

    def test_table_stays_bounded(self):
        for i in range(core._ATOM_SETS_MAX + 10):
            atom_set([Atom(f"x{i}")])
        assert len(core._ATOM_SETS) <= core._ATOM_SETS_MAX
        assert atom_set([A]) == frozenset([A])


@given(
    st.sets(st.sampled_from("abcde"), max_size=4),
    st.sets(st.sampled_from("abcde"), max_size=5),
    st.sets(st.sampled_from("fgh"), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_domain_locality(sat_names, interp_names, noise_names):
    """Truth only depends on the restriction to the body's domain."""
    domain = fs("a", "b", "c", "d", "e")
    body = TruthTable(domain, frozenset({fs(*sat_names)}))
    inside = fs(*interp_names)
    noisy = inside | fs(*noise_names)
    assert body.eval(noisy) == body.eval(noisy & body.domain) == body.eval(inside)


@given(st.integers(0, 2**16 - 1), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_to_dnf_equivalence_random_tables(table_bits, width):
    names = [Atom(n) for n in "abcd"[:width]]
    subsets = all_subsets(names)
    family = frozenset(s for i, s in enumerate(subsets) if table_bits >> i & 1)
    body = TruthTable(frozenset(names), family)
    if not family:
        with pytest.raises(UnsatisfiableBody):
            to_dnf(body)
        return
    dnf = to_dnf(body)
    for s in subsets:
        assert dnf.eval(s) == body.eval(s)


def _random_table(rng: random.Random, width: int) -> TruthTable:
    names = [Atom(f"x{i}") for i in range(width)]
    family = frozenset(
        s for s in all_subsets(names) if rng.random() < 0.5
    )
    return TruthTable(frozenset(names), family)


def _random_count(rng: random.Random, width: int) -> CountAggregate:
    names = [Atom(f"x{i}") for i in range(width)]
    cmp = rng.choice(("=", "!=", "<=", ">=", "<", ">"))
    return CountAggregate(frozenset(names), cmp, rng.randint(0, width + 1))


def _rename(body, rng: random.Random):
    """The body over x0, x1, ... with its atoms renamed at random, so that
    the name order is not the creation order."""
    names = rng.sample("abcdefghij", len(body.domain))
    rename = {a: Atom(n) for a, n in zip(sorted(body.domain), names)}

    def group(atoms):
        return frozenset(rename[a] for a in atoms)

    if isinstance(body, TruthTable):
        return TruthTable(group(body.domain), frozenset(group(s) for s in body.satisfying))
    if isinstance(body, CountAggregate):
        return CountAggregate(group(body.atoms), body.comparator, body.bound)
    return Dnf(tuple(Conjunct(group(d.positives), group(d.negatives)) for d in body.disjuncts))


def _random_dnf(rng: random.Random, width: int) -> Dnf:
    names = [Atom(f"x{i}") for i in range(width)]
    disjuncts = []
    for _ in range(rng.randint(1, 3)):
        chosen = rng.sample(names, rng.randint(1, width))
        neg = frozenset(a for a in chosen if rng.random() < 0.4)
        disjuncts.append(Conjunct(frozenset(chosen) - neg, neg))
    return Dnf(tuple(disjuncts))
