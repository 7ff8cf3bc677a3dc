"""The bit-sliced kernel against the AST: `truth_vector` against Body.eval
on every mask, `enumerate_masks` against the oracles of tests/oracles.py
in all four modes, the one scan (`kernel.scan`) against the per-mode
queries, and the mask order and decoding of `interpretations` against
`core.interp_sort_key`."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import kernel, lowering
from gasp.compile import rew_flp, rew_sflp
from gasp.core import (
    Atom,
    Conjunct,
    CountAggregate,
    LiteralConjunction,
    Program,
    Rule,
    TruthTable,
    atom_set,
    interp_sort_key,
    subsets_in_canonical_order,
)
from gasp.harness import GenConfig, generate
from gasp.parser import parse_program
from gasp.semantics import (
    completion,
    enumerate_candidates,
    enumerate_interpretations,
    is_flp_answer_set,
    is_sflp_answer_set,
)

from conftest import (
    CORPUS_NAMES,
    TABLE_EXPECTED,
    choice_gadgets,
    corpus_text,
    disjoint_union,
    fs,
    mixed_programs,
    product_of,
    relabelled,
    renamed,
)
from oracles import all_subsets, decode, enumerate_oracle

MODES = {
    "models": lowering.ENUM_MODELS,
    "supported": lowering.ENUM_SUPPORTED,
    "flp": lowering.ENUM_FLP,
    "sflp": lowering.ENUM_SFLP,
}


def kernel_sets(program: Program, mode_name: str) -> set:
    lp = lowering.lower(program)
    return {decode(lp.atoms, m) for m in kernel.enumerate_masks(lp, MODES[mode_name])}


def assert_agrees(program: Program, label) -> None:
    """Each mode's kernel answer is the oracle's, and the one scan that
    serves the supported, FLP and SFLP modes together (`kernel.scan`,
    decoded by `semantics.enumerate_candidates`) gives their answers, each
    list of masks increasing."""
    for name in MODES:
        assert kernel_sets(program, name) == enumerate_oracle(program, name), (label, name)
    lp = lowering.lower(program)
    found = dict(zip(("supported", "flp", "sflp"), kernel.scan(lp)))
    decoded = enumerate_candidates(program)
    assert set(found) == {kind.value for kind in decoded}, label
    for kind, interpretations in decoded.items():
        masks = found[kind.value]
        assert masks == sorted(set(masks)), (label, kind)
        assert masks == kernel.enumerate_masks(lp, MODES[kind.value]), (label, kind)
        assert interpretations == enumerate_interpretations(program, kind), (label, kind)


COUNT_COMPARATORS = ("=", "!=", "<=", ">=", "<", ">")


def body_holds(cmp: str, count: int, bound: int) -> bool:
    """The comparison of a count body, written out apart from `core`."""
    return {
        "=": count == bound, "!=": count != bound, "<=": count <= bound,
        ">=": count >= bound, "<": count < bound, ">": count > bound,
    }[cmp]


def assert_vectors_agree(program: Program, universe=None) -> None:
    lp = lowering.lower(program, universe)
    for rule in program.rules:
        vector = lowering.truth_vector(rule.body, lp.index, lp.n)
        assert vector >> (1 << lp.n) == 0
        for mask in range(1 << lp.n):
            interp = decode(lp.atoms, mask)
            assert (vector >> mask & 1 == 1) == rule.body.eval(interp), (
                rule, sorted(a.name for a in interp),
            )


def battery_program(seed: int, disjunctive: bool = True) -> Program:
    return generate(
        GenConfig(
            atom_count=2 + seed % 4,
            rule_count=seed % 7,
            allow_disjunctive_heads=disjunctive and seed % 3 == 0,
            seed=seed,
        )
    )


class TestTruthVector:
    def test_agrees_with_body_eval(self):
        for seed in range(150):
            assert_vectors_agree(battery_program(seed))

    def test_completion_tables(self):
        for seed in range(0, 150, 5):
            assert_vectors_agree(completion(battery_program(seed, disjunctive=False)))

    def test_padded_universe(self):
        """Body atoms at scattered bit positions, with unused atoms between
        and below them, exercise every branch of the table expansion."""
        for seed in range(60):
            program = battery_program(seed)
            universe = []
            for i, a in enumerate(sorted(program.atoms())):
                universe.append(a)
                if i % 2 == 0:  # a name between a and the next atom
                    universe.append(Atom(f"{a.name}{i}"))
            assert_vectors_agree(program, tuple(universe) + (Atom("zz"),))

    def test_count_bounds_beyond_members(self):
        """Every comparator at every bound 0 .. m + 1 over m = 1 .. 6
        members, placed at scattered bit positions of universes of up to
        9 atoms, against Body.eval on every mask."""
        rng = random.Random(23)
        for m in range(1, 7):
            for n in (m, rng.randint(m, 9), 9):
                universe = scrambled_atoms(n, rng)
                members = rng.sample(universe, m)
                program = Program(
                    Rule(fs(), CountAggregate(members, cmp, bound))
                    for cmp in COUNT_COMPARATORS for bound in range(m + 2)
                )
                assert_vectors_agree(program, universe)

    def test_count_at_twenty_atoms(self):
        """count{x0, ..., x19} <cmp> k at the north star's width: each
        vector holds as many masks as there are subsets whose size
        satisfies the comparison, a count taken without the kernel."""
        atoms = [Atom(f"x{i}") for i in range(20)]
        index = {a: i for i, a in enumerate(atoms)}
        for cmp in COUNT_COMPARATORS:
            for k in (0, 1, 10, 19, 20, 21):
                body = CountAggregate(atoms, cmp, k)
                want = sum(math.comb(20, j) for j in range(21) if body_holds(cmp, j, k))
                assert lowering.truth_vector(body, index, 20).bit_count() == want, (cmp, k)

    def test_parity_table_over_wide_domain(self):
        names = [Atom(f"x{i}") for i in range(9)]
        family = frozenset(s for s in all_subsets(names[1:]) if len(s) % 2)
        body = TruthTable(frozenset(names[1:]), family)
        assert_vectors_agree(Program([Rule(fs("x0"), body)]))

    def test_empty_universe(self):
        assert lowering.truth_vector(TruthTable(fs(), frozenset({fs()})), {}, 0) == 1
        assert lowering.truth_vector(TruthTable(fs(), frozenset()), {}, 0) == 0

    def test_rejects_a_non_body(self):
        with pytest.raises(TypeError, match="not a body"):
            lowering.truth_vector(Atom("a"), {}, 0)


def scrambled_atoms(n: int, rng: random.Random) -> tuple[Atom, ...]:
    """n atoms in reverse name order, the order of their bit positions, with
    names unrelated to their creation order."""
    letters = rng.sample("abcdefghijklmnopqrstuvwxyz", n)
    return tuple(sorted((Atom(f"{c}{rng.randrange(100)}") for c in letters), reverse=True))


class TestCanonicalOrder:
    def test_rank_is_the_canonical_position(self):
        rng = random.Random(1)
        for n in range(11):
            atoms = scrambled_atoms(n, rng)
            index = {a: i for i, a in enumerate(atoms)}
            rank = lowering.rank_key(n)
            ranks = [
                rank(sum(1 << index[a] for a in s)) for s in subsets_in_canonical_order(atoms)
            ]
            assert ranks == list(range(1 << n)), n

    @pytest.mark.parametrize("with_empty", [True, False], ids=["empty", "nonempty"])
    def test_every_mask_in_canonical_order(self, with_empty):
        rng = random.Random(2)
        for n in range(11):
            atoms = scrambled_atoms(n, rng)
            masks = list(range(0 if with_empty else 1, 1 << n))
            rng.shuffle(masks)
            want = list(subsets_in_canonical_order(atoms))
            assert lowering.interpretations(atoms, masks) == want[0 if with_empty else 1:], n

    def test_random_families(self):
        rng = random.Random(3)
        for trial in range(300):
            n = rng.randint(0, 12)
            atoms = scrambled_atoms(n, rng)
            masks = rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n)))
            got = lowering.interpretations(atoms, masks)
            assert got == sorted((decode(atoms, m) for m in masks), key=interp_sort_key), trial
            assert all(atom_set(i) is i for i in got), trial
            unsorted = lowering.decode(atoms, masks)
            assert unsorted == [decode(atoms, m) for m in masks], trial
            assert all(atom_set(i) is i for i in unsorted), trial

    def test_large_families(self):
        """Thousands of masks per width up to 20 atoms: the empty mask, the
        full one, masks with no bit in the high or in the low half of the
        universe (the two tables of `decode`), and random ones, unsorted."""
        rng = random.Random(4)
        for n in range(13, 21):
            atoms = scrambled_atoms(n, rng)
            half = n >> 1
            family = {0, 1 << half, (1 << half) - 1, (1 << n) - 1}
            family.update(range(0, 1 << half, max(1, (1 << half) // 200)))
            family.update(rng.randrange(1 << (n - half)) << half for _ in range(200))
            family.update(rng.sample(range(1 << n), 3000))
            masks = list(family)
            rng.shuffle(masks)
            got = lowering.interpretations(atoms, masks)
            assert got == sorted((decode(atoms, m) for m in masks), key=interp_sort_key), n

    @pytest.mark.parametrize("n", range(1, 25))
    def test_both_sides_of_the_pigeonhole_boundary(self, n):
        """Around 2^(n // 2) masks, where `decode` switches from building
        each set on its own to the two half tables, at every width up to
        24: the sets built from the masks' bits, in the masks' order and,
        through `interpretations`, in canonical order."""
        rng = random.Random(f"pigeonhole-{n}")
        atoms = scrambled_atoms(n, rng)
        boundary = 1 << (n >> 1)
        for count in (boundary - 1, boundary, boundary + 1):
            if not 0 < count <= 1 << n:
                continue
            masks = rng.sample(range(1 << n), count)
            want = [decode(atoms, m) for m in masks]
            got = lowering.decode(atoms, masks)
            assert got == want and all(atom_set(i) is i for i in got), (n, count)
            assert lowering.interpretations(atoms, masks) == sorted(want, key=interp_sort_key), \
                (n, count)

    def test_universes_wider_than_the_default_limit(self):
        """26 and 40 atoms, lowered under a raised limit: five-byte masks,
        the empty and the full one among them, set by set, and 26 atoms on
        both sides of the pigeonhole boundary."""
        rng = random.Random(5)
        for n, counts in ((26, (3, (1 << 13) - 1, (1 << 13) + 1)), (40, (2, 50))):
            program = parse_program(" ".join(f"w{i:02d} :- w{i:02d}." for i in range(n)))
            atoms = lowering.lower(program, limit=n).atoms
            for count in counts:
                masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(count - 2)]
                want = [decode(atoms, m) for m in masks]
                assert lowering.decode(atoms, masks) == want, (n, count)
                assert lowering.interpretations(atoms, masks) == \
                    sorted(want, key=interp_sort_key), (n, count)


class TestOracleAgreement:
    def test_random_programs(self):
        for seed in range(200):
            assert_agrees(battery_program(seed), seed)

    def test_completions(self):
        for seed in range(0, 200, 4):
            assert_agrees(completion(battery_program(seed, disjunctive=False)), seed)

    @pytest.mark.parametrize("rewrite", [rew_flp, rew_sflp], ids=["flp", "sflp"])
    def test_rewritings(self, rewrite):
        checked = 0
        for seed in range(120):
            rewritten, _ = rewrite(battery_program(seed, disjunctive=False))
            if len(rewritten.atoms()) <= 12:
                assert_agrees(rewritten, seed)
                checked += 1
        assert checked >= 60

    def test_empty_program(self):
        assert_agrees(Program([]), "empty")

    def test_sflp_support_test_excludes_other_true_head_atoms(self):
        """J = {c, e} is a model of the reduct of I = {c, d, e}, but there
        `c | e :- e.` has both head atoms true, so it supports neither; e is
        supported at J only by `d | e :- not d.`, which is not in the
        reduct. J does not block I."""
        program = parse_program(
            "c. e :- c, d. c | e :- e. d | e :- not d. d :- count{d, e} != 1."
        )
        assert kernel_sets(program, "sflp") == {fs("c", "e"), fs("c", "d", "e")}
        assert_agrees(program, "disjunctive support in the reduct")

    def test_self_supporting_loops(self, monkeypatch):
        """Each `a :- a.` supports its own atom, so every mask is a supported
        model, but only the empty one is minimal for its reduct. At 8 atoms,
        `kernel._SPLIT_FIRST`, nothing splits: the SFLP query and the scan
        test all 2^8 masks in one global pass."""
        splits = []
        split = kernel._split
        monkeypatch.setattr(kernel, "_split", lambda lp, parts, mode: splits.append(len(parts))
                            or split(lp, parts, mode))
        program = parse_program(" ".join(f"a{i} :- a{i}." for i in range(8)))
        assert len(kernel_sets(program, "supported")) == 256
        assert kernel_sets(program, "flp") == {fs()}
        assert_agrees(program, "self-supporting loops")
        assert splits == []


def chain_text(n: int) -> str:
    """The coordination chain of `benchmarks/bench_kernels.py` over n atoms."""
    return "".join(f"x{i} :- count{{x{i}, x{(i + 1) % n}, x{(i + 2) % n}}} != 1. "
                   for i in range(n))


class TestOneScan:
    """`kernel.scan`, the one pass the theorem battery reads, against the
    per-mode queries and, through them, the oracles (`assert_agrees`, which
    every oracle test in this module runs, the rewritings' included), on
    the shapes that take its distinct paths."""

    def test_disjunctive_programs(self):
        # a head of two atoms gives its rule a support vector of its own,
        # which only the SFLP test reads
        disjunctive = differ = 0
        for seed in range(150):
            program = generate(GenConfig(atom_count=3 + seed % 3, rule_count=4 + seed % 5,
                                         allow_disjunctive_heads=True, seed=seed))
            assert_agrees(program, seed)
            if any(len(r.head) > 1 for r in program.rules):
                disjunctive += 1
                _, flp, sflp = kernel.scan(lowering.lower(program))
                differ += flp != sflp
        assert disjunctive >= 60 and differ >= 1, (disjunctive, differ)

    def test_self_supporting_loops(self):
        # more supported models than atoms: in each one-atom part the FLP
        # query drops those above a smaller model and the scan those above a
        # mono-supported one (`_above`), but the scan still lists them all
        program = parse_program(" ".join(f"a{i} :- a{i}." for i in range(10)))
        assert_agrees(program, "10 loops")
        found = kernel.scan(lowering.lower(program))
        assert [len(masks) for masks in found] == [1024, 1, 1]

    def test_coordination_chain(self):
        program = parse_program(chain_text(12))
        assert_agrees(program, "12-atom chain")
        supported, flp, _ = kernel.scan(lowering.lower(program))
        assert len(supported) > len(flp)

    @pytest.mark.parametrize("text, count", [
        (chain_text(12), 3),
        # 2^10 supported models, more than the atoms, in one part: z reads
        # every loop's atom
        (" ".join(f"a{i} :- a{i}." for i in range(10))
         + " z :- count{" + ", ".join(f"a{i}" for i in range(10)) + "} > 10.", 1 << 10),
    ], ids=["chain", "joined-loops"])
    def test_lists_the_supported_models_once(self, monkeypatch, text, count):
        """Where the program does not split, the scan and the SFLP query each
        look for parts once, over more than `kernel._SPLIT_FIRST` atoms, and
        the list of the supported models that the reduct loop reads is the
        list the scan returns."""
        lp = lowering.lower(parse_program(text))
        assert len(kernel._parts(lp)) == 1 and lp.n > kernel._SPLIT_FIRST
        looked = []
        parts = kernel._parts
        monkeypatch.setattr(kernel, "_parts", lambda p: looked.append(p) or parts(p))
        listed = []
        list_members = kernel.members
        monkeypatch.setattr(kernel, "members", lambda v: listed.append(v) or list_members(v))
        supported, _, _ = kernel.scan(lp)
        assert len(supported) == count
        assert listed.count(sum(1 << m for m in supported)) == 1
        assert looked == [lp]
        kernel.enumerate_masks(lp, lowering.ENUM_SFLP)
        assert looked == [lp, lp]

    def test_lookups_meet_the_one_atom_of_each_name(self, monkeypatch):
        """Each name has one `Atom`, so parsing, lowering, scanning and
        decoding a program and a renamed copy of it meet equal atoms as one
        object: `Atom.__eq__` runs only on two names that share a hash."""
        compared = []
        eq = Atom.__eq__
        monkeypatch.setattr(Atom, "__eq__", lambda a, b: compared.append((a, b)) or eq(a, b))
        program = parse_program(chain_text(12))
        for p in (program, renamed(program, "0")):
            lp = lowering.lower(p)
            kernel.scan(lp)
            for mode in MODES.values():
                kernel.enumerate_masks(lp, mode)
            enumerate_candidates(p)
        assert all(a.name != b.name for a, b in compared), len(compared)


def count_splits(monkeypatch) -> list[int]:
    """The part counts of the programs that `kernel._split` scans from now
    on, with the split gate lowered to 0 atoms: every FLP and SFLP query and
    scan of a program of two or more parts then splits, so `assert_agrees`
    checks `_split` against the oracles at the few atoms they reach."""
    calls = []
    split = kernel._split
    monkeypatch.setattr(kernel, "_SPLIT_FIRST", 0)
    monkeypatch.setattr(kernel, "_split", lambda lp, parts, mode: calls.append(len(parts))
                        or split(lp, parts, mode))
    return calls


def rule_components(rules) -> set[frozenset[Rule]]:
    """The rule sets linked, directly or through other rules, by a shared
    head or body-domain atom; constraints are in none."""
    components: list[tuple[set, set]] = []
    for rule in rules:
        atoms, linked = set(rule.atoms()), {rule}
        if not rule.head:
            continue
        for component in [c for c in components if c[0] & atoms]:
            components.remove(component)
            atoms |= component[0]
            linked |= component[1]
        components.append((atoms, linked))
    return {frozenset(linked) for _, linked in components}


def count_subset_vectors(monkeypatch) -> list[int]:
    """The candidates that get a subset vector (`kernel._proper_subsets`)
    from now on."""
    calls = []
    proper_subsets = kernel._proper_subsets
    monkeypatch.setattr(kernel, "_proper_subsets", lambda i: calls.append(i) or proper_subsets(i))
    return calls


def shapes(program: Program) -> set:
    """The body kinds of the program, and whether it has a disjunctive head
    and a constraint."""
    out = {type(r.body).__name__ for r in program.rules}
    out.update("disjunctive" for r in program.rules if len(r.head) > 1)
    out.update("constraint" for r in program.rules if not r.head)
    return out


def loops(n: int, extra: str = "") -> Program:
    return parse_program(" ".join(f"a{i} :- a{i}." for i in range(n)) + extra)


def even_loops(n: int) -> Program:
    """n even loops `x :- not y. y :- not x.` over 2n atoms: 2^n supported
    models, each a minimal model and an answer set of both kinds."""
    return parse_program(" ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(n)))


class TestDisjointParts:
    """Programs made of parts that share no atom, constraints aside. Over
    more than `kernel._SPLIT_FIRST` atoms the FLP and SFLP queries and the
    scan test each part on its own universe (`kernel._split`) and multiply
    the parts' answers; at that width or below, and on every connected
    program, they test every candidate in one global pass. The models and
    supported queries never split. `count_splits` lowers the width to 0, so
    that the split path meets the oracles at the sizes they reach."""

    def test_unions_agree_with_the_oracles(self, monkeypatch):
        splits = count_splits(monkeypatch)
        seen = set()
        split = 0  # the programs split into parts
        for seed in range(300):
            program, _ = disjoint_union(seed, 4 + seed % 7)
            before = len(splits)
            assert_agrees(program, seed)
            split += len(splits) > before
            seen |= shapes(program)
        assert split >= 60, split
        assert seen >= {"LiteralConjunction", "CountAggregate", "Dnf", "TruthTable",
                        "disjunctive", "constraint"}, seen

    def test_wide_unions_are_the_products_of_their_parts(self, monkeypatch):
        """At 12-16 atoms the reference is the product of each part's oracle
        sets, which neither the whole-program oracle nor the kernel computes."""
        splits = count_splits(monkeypatch)
        wide = split = 0
        for seed in range(100):
            program, parts = disjoint_union(seed, 12 + seed % 5)
            lp = lowering.lower(program)
            wide += lp.n >= 12
            before = len(splits)
            want = {name: product_of(enumerate_oracle(p, name) for p in parts)
                    for name in MODES}
            for name in MODES:
                assert kernel_sets(program, name) == want[name], (seed, name)
            for name, masks in zip(("supported", "flp", "sflp"), kernel.scan(lp)):
                assert {decode(lp.atoms, m) for m in masks} == want[name], (seed, name)
            split += len(splits) > before
        assert wide >= 60 and split >= 45, (wide, split)

    def test_corpus_side_by_side(self, monkeypatch):
        """p4, p5, p4, p5 and p2 over 10 atoms: 36 supported models, 16 SFLP
        and 4 FLP answer sets, each the product of the corpus table's."""
        splits = count_splits(monkeypatch)
        names = ("p4", "p5", "p4", "p5", "p2")
        parts = [renamed(parse_program(corpus_text(name)), str(k)) for k, name in enumerate(names)]
        program = Program(r for part in parts for r in part.rules)
        assert_agrees(program, "corpus side by side")
        for mode in MODES:
            want = product_of(
                {frozenset(Atom(a.name + str(k)) for a in i) for i in TABLE_EXPECTED[name][mode]}
                for k, name in enumerate(names)
            )
            assert kernel_sets(program, mode) == want, mode
        assert [len(masks) for masks in kernel.scan(lowering.lower(program))] == [36, 4, 16]
        assert splits and set(splits) == {5}

    @pytest.mark.parametrize("mode", [lowering.ENUM_FLP, lowering.ENUM_SFLP], ids=["flp", "sflp"])
    @pytest.mark.parametrize("program, count, answers", [
        (loops(14), 14, 1),
        (even_loops(10), 10, 1 << 10),
    ], ids=["14 loops", "10 even loops"])
    def test_sflp_tests_at_most_two_candidates_per_loop(self, monkeypatch, mode, program, count,
                                                        answers):
        """14 loops `a :- a.` have 2^14 supported models and one answer set,
        10 even loops over 20 atoms 2^10 supported models, each an answer
        set of both kinds. Each loop is a part of at most two atoms and two
        supported models, so the FLP and SFLP queries build at most two
        subset vectors per loop, not one per supported model, and no pass
        scans more than two atoms."""
        lp = lowering.lower(program)
        calls = count_subset_vectors(monkeypatch)
        scanned = count_passes(monkeypatch)
        masks = kernel.enumerate_masks(lp, mode)
        assert len(masks) == answers
        assert len(calls) <= 2 * count
        assert scanned and max(p.n for p in scanned) <= 2
        assert kernel.scan(lp)[1:] == (masks, masks)

    def test_a_constraint_filters_the_product_of_the_loops(self, monkeypatch):
        """`:- count{a0, ..., a9} > 10.` reads every atom, but a constraint
        joins no part: the loops are ten parts of one atom, so the SFLP query
        builds two subset vectors per part, not 2^10, and keeps the products
        at which no constraint body holds. This one never fires; `< 1`
        fires at the one product, the empty set."""
        splits = count_splits(monkeypatch)
        every = "count{" + ", ".join(f"a{i}" for i in range(10)) + "}"
        program = loops(10, f" :- {every} > 10.")
        lp = lowering.lower(program)
        assert len(kernel._parts(lp)) == 10
        calls = count_subset_vectors(monkeypatch)
        assert kernel.enumerate_masks(lp, lowering.ENUM_SFLP) == [0]
        assert len(calls) <= 2 * 10 and splits == [10]
        assert_agrees(program, "joined loops")
        fires = lowering.lower(loops(10, f" :- {every} < 1."))
        assert kernel.enumerate_masks(fires, lowering.ENUM_SFLP) == []
        assert kernel.scan(fires)[1:] == ([], [])

    def test_constraints_over_no_atom_next_to_loops(self, monkeypatch):
        """A body over no atom is constant. `:- .` always fires, so no mode
        answers; a table over no atom without a row never fires, and as it
        is in no part the loops still split one by one."""
        program = loops(6, " :- .")
        lp = lowering.lower(program)
        for mode in MODES.values():
            assert kernel.enumerate_masks(lp, mode) == []
        assert kernel.scan(lp) == ([], [], [])
        assert_agrees(program, "loops and :- .")
        splits = count_splits(monkeypatch)
        program = Program(loops(6).rules + (Rule(fs(), TruthTable(fs(), ())),))
        assert_agrees(program, "loops and a constraint that never fires")
        assert splits and set(splits) == {6}

    def test_each_part_is_lowered_like_any_program(self, monkeypatch):
        """Each part that `_split` scans is what `lower` makes of the part's
        rules over the part's atoms, and its rules are one connected
        component of the program: rules linked by shared atoms, a
        constraint in none."""
        splits = count_splits(monkeypatch)
        scanned = []
        global_pass = kernel._global_pass
        monkeypatch.setattr(kernel, "_global_pass",
                            lambda lp, mode: scanned.append(lp) or global_pass(lp, mode))
        split = 0
        for seed in range(120):
            program, _ = disjoint_union(seed, 4 + seed % 9)
            scanned.clear()
            before = len(splits)
            kernel.scan(lowering.lower(program))
            parts = scanned if len(splits) > before else []
            split += bool(parts)
            components = rule_components(program.rules)
            for part in parts:
                atoms = frozenset().union(*(r.atoms() for r in part.rules))
                assert frozenset(part.rules) in components, seed
                assert part.atoms == tuple(sorted(atoms, reverse=True)), seed
                own = lowering.lower(part.rules, atoms)
                assert (own.atoms, own.index, own.n, own.heads, own.rules) == (
                    part.atoms, part.index, part.n, part.heads, part.rules), seed
        assert split >= 30, split

    def test_free_atoms_stay_false(self):
        """Atoms of the universe that no rule reads are in no part; they are
        unsupported wherever true, so every answer leaves them out."""
        program = loops(5)
        universe = tuple(sorted(program.atoms() | {Atom("z"), Atom("b0")}, reverse=True))
        lp = lowering.lower(program, universe)
        supported, flp, sflp = kernel.scan(lp)
        assert len(supported) == 32 and flp == sflp == [0]


def count_constraint(rng: random.Random, atoms) -> Rule:
    """`:- count{D} cmp k` over a random nonempty D of `atoms`, with a random
    comparator and 0 <= k <= |D|."""
    domain = rng.sample(sorted(atoms), rng.randint(1, len(atoms)))
    return Rule((), CountAggregate(domain, rng.choice(COUNT_COMPARATORS),
                                   rng.randint(0, len(domain))))


def looped_with_constraint(seed: int) -> Program:
    """A generated program over 3-8 atoms, allowed disjunctive heads half
    the time, plus a loop `a :- a.` on about 60% of its atoms and one
    random count constraint over them."""
    rng = random.Random(seed)
    size = 3 + seed % 6
    program = generate(GenConfig(atom_count=size, rule_count=rng.randint(1, size),
                                 allow_disjunctive_heads=rng.random() < 0.5, seed=seed))
    atoms = [Atom(a) for a in "abcdefgh"[:size]]
    looped = tuple(Rule({a}, LiteralConjunction(Conjunct({a}, ())))
                   for a in atoms if rng.random() < 0.6)
    return Program(program.rules + looped + (count_constraint(rng, atoms),))


class TestConstraintFilter:
    """A constraint supports no atom and, at a model, its body is false, so
    it is in no reduct: the FLP and SFLP answer sets of P are those of P
    without its constraints that satisfy the constraints. So constraints
    join no part, and `_split` keeps the products of the parts' answers at
    which no constraint body holds."""

    def test_looped_programs_with_a_constraint_agree_with_the_oracles(self, monkeypatch):
        splits = count_splits(monkeypatch)
        split = 0
        for seed in range(400):
            before = len(splits)
            assert_agrees(looped_with_constraint(seed), seed)
            split += len(splits) > before
        assert split >= 60, split

    def test_unions_joined_by_constraints_are_filtered_products(self, monkeypatch):
        """9-16 atoms of 2-4 programs that only one or two count constraints
        join: the SFLP query and the one scan, which both split before they
        build any vector over all 2^n masks, and the products of the parts'
        oracle sets at which no joining constraint fires agree."""
        widths = []
        vectors = kernel.rule_vectors
        monkeypatch.setattr(kernel, "rule_vectors",
                            lambda lp, support: widths.append(lp.n) or vectors(lp, support))
        filtered = split_first = 0
        for seed in range(150):
            union, parts = disjoint_union(seed, 9 + seed % 8)
            rng = random.Random(f"joins-{seed}")
            joins = tuple(count_constraint(rng, union.atoms()) for _ in range(rng.randint(1, 2)))
            program = Program(union.rules + joins)
            lp = lowering.lower(program)
            want = {}
            for name in ("flp", "sflp"):
                product = product_of(enumerate_oracle(p, name) for p in parts)
                want[name] = {i for i in product if not any(r.body.eval(i) for r in joins)}
            filtered += len(want["sflp"]) < len(product)  # the SFLP product
            splits = lp.n > kernel._SPLIT_FIRST and len(kernel._parts(lp)) > 1
            split_first += splits
            widths.clear()
            first = kernel.enumerate_masks(lp, lowering.ENUM_SFLP)
            assert not splits or max(widths, default=0) < lp.n, seed  # no global pass
            widths.clear()
            _, flp, sflp = kernel.scan(lp)
            assert not splits or max(widths, default=0) < lp.n, seed  # nor in the scan
            assert first == sflp, seed
            assert {decode(lp.atoms, m) for m in sflp} == want["sflp"], seed
            assert {decode(lp.atoms, m) for m in flp} == want["flp"], seed
        assert filtered >= 30 and split_first >= 110, (filtered, split_first)


def count_passes(monkeypatch) -> list:
    """The lowered programs that `kernel._global_pass` scans from now on."""
    scanned = []
    global_pass = kernel._global_pass
    monkeypatch.setattr(kernel, "_global_pass",
                        lambda lp, mode: scanned.append(lp) or global_pass(lp, mode))
    return scanned


def renamed_copies(seed: int, width: int):
    """Copies of one to three source programs over two to four atoms, as
    many as fit in `width` atoms, and half the time one or two count
    constraints over all of them. Copy k renames its source's atom x to x<k> (so it keeps
    the atoms' order) or, a third of the time, to the atom at the mirrored
    place in its source's name order, suffixed k (so it reverses it). A
    source is a corpus program over {a, b} a third of the time; otherwise
    it is generated with the full body mix, disjunctive heads half the
    time, and a loop `a :- a.` on about half of its atoms. Returns the
    program, the copies, the joining constraints and how many copies
    reverse their source's order."""
    rng = random.Random(f"copies-{seed}")
    sources = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 1 / 3:
            source = parse_program(corpus_text(rng.choice(CORPUS_NAMES)))
        else:
            size = rng.randint(2, 4)
            source = generate(GenConfig(atom_count=size, rule_count=rng.randint(1, size + 1),
                                        allow_disjunctive_heads=rng.random() < 0.5,
                                        seed=rng.randrange(10**6)))
            source = Program(source.rules + tuple(
                Rule({a}, LiteralConjunction(Conjunct({a}, ())))
                for a in map(Atom, "abcd"[:size]) if rng.random() < 0.5))
        if source.atoms():
            sources.append(source)
    copies = []
    atoms = mirrors = 0
    while len(copies) < 10:
        fits = [s for s in sources if atoms + len(s.atoms()) <= width]
        if not fits:
            break
        source = rng.choice(fits)
        names = sorted(source.atoms())
        k = len(copies)
        if rng.random() < 1 / 3:
            mirror = dict(zip(names, reversed(names)))
            copies.append(relabelled(source, lambda a: Atom(f"{mirror[a].name}{k}")))
            mirrors += 1
        else:
            copies.append(renamed(source, str(k)))
        atoms += len(names)
    union = Program(r for copy in copies for r in copy.rules)
    joins = ()
    if rng.random() < 0.5:
        joins = tuple(count_constraint(rng, union.atoms()) for _ in range(rng.randint(1, 2)))
    return Program(union.rules + joins), copies, joins, mirrors


def distinct_shapes(copies) -> int:
    """An upper bound on the distinct parts of a union of `copies`: a
    copy's parts count only where no earlier copy has the same rules up to
    a renaming of atoms that keeps their order, found here by renaming
    both to their rank in name order."""
    seen = set()
    for copy in copies:
        rank = {a: Atom(f"r{i}") for i, a in enumerate(sorted(copy.atoms()))}
        seen.add(relabelled(copy, rank.__getitem__))
    return sum(len(kernel._parts(lowering.lower(copy))) for copy in seen)


class TestRepeatedParts:
    """Where a query or the scan splits, `_split` scans each distinct
    part once per call: parts that are the same program up to a renaming of
    their atoms that keeps the atoms' order share one `_global_pass`, whose
    local lists each such part places at its own bits. A renaming that
    reverses the order makes another part, scanned on its own."""

    def test_renamed_copies_agree_with_the_oracles(self, monkeypatch):
        """At most 10 atoms, every union split (`count_splits`): the AST
        oracle."""
        splits = count_splits(monkeypatch)
        scanned = count_passes(monkeypatch)
        shared = mirrored = 0
        for seed in range(150):
            program, copies, _, mirrors = renamed_copies(seed, 4 + seed % 7)
            assert_agrees(program, seed)
            lp = lowering.lower(program)
            parts = len(kernel._parts(lp))
            scanned.clear()
            before = len(splits)
            kernel.enumerate_masks(lp, lowering.ENUM_SFLP)
            if len(splits) > before:
                bound = distinct_shapes(copies)
                assert len(scanned) <= bound, seed
                shared += bound < parts
            mirrored += mirrors > 0
        assert shared >= 60 and mirrored >= 60, (shared, mirrored)

    def test_wide_copies_are_the_filtered_products_of_their_parts(self, monkeypatch):
        """Mostly 12-16 atoms, at the default split width: the products of
        the copies' oracle sets at which no joining constraint holds."""
        scanned = count_passes(monkeypatch)
        wide = shared = split = 0
        for seed in range(60):
            program, copies, joins, _ = renamed_copies(seed, 13 + seed % 4)
            lp = lowering.lower(program)
            wide += lp.n >= 12
            want = {}
            for name in MODES:
                product = product_of(enumerate_oracle(c, name) for c in copies)
                want[name] = {i for i in product if not any(r.body.eval(i) for r in joins)}
                assert kernel_sets(program, name) == want[name], (seed, name)
            scanned.clear()
            found = kernel.scan(lp)
            for name, masks in zip(("supported", "flp", "sflp"), found):
                assert {decode(lp.atoms, m) for m in masks} == want[name], (seed, name)
            parts = len(kernel._parts(lp))
            if lp.n > kernel._SPLIT_FIRST and parts > 1:
                split += 1
                bound = distinct_shapes(copies)
                assert all(p.n < lp.n for p in scanned) and len(scanned) <= bound, seed
                shared += bound < parts
        assert wide >= 45 and split >= 50 and shared >= 30, (wide, split, shared)

    @pytest.mark.parametrize("names", [
        [f"v{i:02d}" for i in range(14)],
        None,  # names that do not follow the parts: x after y in some
    ], ids=["in-order", "interleaved"])
    def test_choice_gadgets_take_two_passes(self, monkeypatch, names):
        """The seven two-atom parts have two shapes, each symmetric in its
        atoms, so whichever atom of a part sorts first they take two passes."""
        lp = lowering.lower(choice_gadgets(names))
        scanned = count_passes(monkeypatch)
        assert len(kernel.enumerate_masks(lp, lowering.ENUM_SFLP)) == 32
        assert len(scanned) == 2 and all(p.n == 2 for p in scanned)
        scanned.clear()
        assert [len(masks) for masks in kernel.scan(lp)] == [32, 0, 32]
        assert len(scanned) == 2

    def test_loops_take_one_pass(self, monkeypatch):
        """14 loops `a :- a.` are 14 parts of one shape, and so are 12 loops
        that one constraint joins: one pass each, for the query and the scan."""
        every = "count{" + ", ".join(f"a{i}" for i in range(12)) + "}"
        scanned = count_passes(monkeypatch)
        for program in (loops(14), loops(12, f" :- {every} > 12.")):
            lp = lowering.lower(program)
            scanned.clear()
            assert kernel.enumerate_masks(lp, lowering.ENUM_SFLP) == [0]
            assert len(scanned) == 1 and scanned[0].n == 1
            scanned.clear()
            supported, flp, sflp = kernel.scan(lp)
            assert len(supported) == 1 << lp.n and flp == sflp == [0]
            assert len(scanned) == 1

    def test_mirrored_parts_are_scanned_apart(self, monkeypatch):
        """`b :- not a.` over {a, b} and its mirror `a0 :- not b0.` are not
        the same program up to an order-keeping renaming: a shared pass
        would give the mirror {b0} instead of {a0}."""
        splits = count_splits(monkeypatch)
        scanned = count_passes(monkeypatch)
        program = parse_program("b :- not a. a0 :- not b0. d :- not c.")
        lp = lowering.lower(program)
        assert [decode(lp.atoms, m) for m in kernel.enumerate_masks(lp, lowering.ENUM_SFLP)] \
            == [fs("a0", "b", "d")]
        assert splits == [3] and len(scanned) == 2
        assert_agrees(program, "mirrored parts")

    @pytest.mark.parametrize("first, second", [
        ("a :- count{a, b} != 1. b :- count{a, b} != 1.",
         "a :- count{a, b} = 1. b :- count{a, b} = 1."),
        ("a :- count{a, b} = 1.", "a :- count{a, b} = 2."),
        ("c. a :- c, not b.", "c. a :- b, not c."),
        ("b. a :- dnf{~b | b & c}.", "b. a :- dnf{~c | b & c}."),
        ([fs("b")], [fs()]),  # the rows of `a :- table{b}` after the fact `b.`
    ], ids=["comparator", "bound", "negated-atom", "dnf-negated-atom", "table-row"])
    def test_parts_one_field_apart_are_scanned_apart(self, monkeypatch, first, second):
        """Two programs over the same atoms whose keys differ in one field of
        one body, and whose answers differ: copies of both, side by side,
        take two passes and agree with the oracles."""
        fact = Rule(fs("b"), TruthTable(fs(), [()]))
        first, second = (
            parse_program(p) if isinstance(p, str)
            else Program([fact, Rule(fs("a"), TruthTable(fs("b"), p))])
            for p in (first, second)
        )
        assert first.atoms() == second.atoms()
        assert kernel.scan(lowering.lower(first)) != kernel.scan(lowering.lower(second))
        splits = count_splits(monkeypatch)
        scanned = count_passes(monkeypatch)
        program = Program(renamed(first, "0").rules + renamed(second, "1").rules
                          + renamed(first, "2").rules)
        assert_agrees(program, "one field apart")
        scanned.clear()
        kernel.enumerate_masks(lowering.lower(program), lowering.ENUM_SFLP)
        assert len(scanned) == 2 and splits


    def test_bodies_with_one_truth_function_share_a_pass(self, monkeypatch):
        """A part is keyed by its rules' head masks and body truth vectors,
        so three pairs that write `a :- not b. b :- not a.` as literals, as
        counts and as DNFs, side by side, take one pass: two answer sets
        each, eight in all."""
        splits = count_splits(monkeypatch)
        scanned = count_passes(monkeypatch)
        sources = ("a :- not b. b :- not a.",
                   "a :- count{b} = 0. b :- count{a} < 1.",
                   "a :- dnf{~b}. b :- dnf{~a}.")
        program = Program(r for k, text in enumerate(sources)
                          for r in renamed(parse_program(text), str(k)).rules)
        lp = lowering.lower(program)
        sflp = kernel.enumerate_masks(lp, lowering.ENUM_SFLP)
        assert splits == [3] and len(scanned) == 1
        assert len(sflp) == 8
        assert {decode(lp.atoms, m) for m in sflp} == enumerate_oracle(program, "sflp")

    def test_an_atom_in_no_head_does_not_key_a_part(self, monkeypatch):
        """`b :- count{a} > 1.` over {a, b} and `y :- table{}` without a row
        over {y} both key as one never-firing rule on local position 0: a is
        in no head, so it is false in every candidate, and the two parts
        share a pass though their widths differ. `d :- count{c} < 1.` and
        `w :- table{v}` with the empty row are `d :- not c.` twice."""
        splits = count_splits(monkeypatch)
        scanned = count_passes(monkeypatch)
        program = Program(parse_program("b :- count{a} > 1. d :- count{c} < 1.").rules
                          + (Rule(fs("y"), TruthTable(fs(), ())),
                             Rule(fs("w"), TruthTable(fs("v"), [()]))))
        assert_agrees(program, "widths")
        lp = lowering.lower(program)
        scanned.clear()
        assert [decode(lp.atoms, m) for m in kernel.enumerate_masks(lp, lowering.ENUM_SFLP)] \
            == [fs("d", "w")]
        assert splits and splits[-1] == 4 and len(scanned) == 2


def joined_loops(k: int) -> Program:
    """k loops `a :- a.` joined into one part by `z :- count{a0, ...} > k.`,
    whose body never holds: 2^k supported models, and the empty set the
    one answer set."""
    every = "count{" + ", ".join(f"a{i}" for i in range(k)) + "}"
    return loops(k, f" z :- {every} > {k}.")


def looped_and_joined(seed: int) -> Program:
    """A generated program over 3-8 atoms, allowed disjunctive heads half
    the time, with up to two more atoms y0, y1, a loop `a :- a.` on about
    60% of all of them and one count rule over a sample of them that links
    the extra atoms in: up to 10 atoms."""
    rng = random.Random(f"mono-{seed}")
    size = 3 + seed % 6
    program = generate(GenConfig(atom_count=size, rule_count=rng.randint(1, size),
                                 allow_disjunctive_heads=rng.random() < 0.5, seed=seed))
    atoms = [Atom(a) for a in "abcdefgh"[:size]] + [Atom(f"y{i}") for i in range(seed % 3)]
    looped = tuple(Rule({a}, LiteralConjunction(Conjunct({a}, ())))
                   for a in atoms if rng.random() < 0.6)
    domain = atoms[size:] + rng.sample(atoms[:size], rng.randint(1, size))
    join = Rule({rng.choice(atoms)}, CountAggregate(domain, rng.choice(COUNT_COMPARATORS),
                                                    rng.randint(0, len(domain))))
    return Program(program.rules + looped + (join,))


def count_prefilter_drops(monkeypatch) -> list[bool]:
    """Whether each run of SFLP's prefilter from now on drops a candidate:
    a mono-supported model below it."""
    drops = []
    mono_supported = kernel._mono_supported

    def recorded(candidates, bodies, rule_support, heads, cols):
        mono = mono_supported(candidates, bodies, rule_support, heads, cols)
        drops.append(bool(candidates & kernel._above(mono, cols)))
        return mono

    monkeypatch.setattr(kernel, "_mono_supported", recorded)
    return drops


class TestMonoSupportPrefilter:
    """Where SFLP's support test runs on more candidates than atoms,
    `_global_pass` drops each candidate above a mono-supported model J: a
    model of P whose true atoms are each supported at J by a rule whose
    body vector is upward closed. J is a model of every reduct, and each
    supporting body, true at J, holds at every superset I, so its rule is
    in I's reduct: J blocks I for SFLP and FLP alike. The scan still lists
    every supported model."""

    def test_generated_programs_agree_with_the_oracles(self, monkeypatch):
        drops = count_prefilter_drops(monkeypatch)
        dropped = wide = 0
        for seed in range(300):
            program = looped_and_joined(seed)
            before = len(drops)
            assert_agrees(program, seed)
            dropped += any(drops[before:])
            wide += len(program.atoms()) > 8
        assert dropped >= 120 and wide >= 40, (dropped, wide)

    def test_joined_loops_agree_with_the_oracles(self, monkeypatch):
        drops = count_prefilter_drops(monkeypatch)
        for k in range(1, 10):
            assert_agrees(joined_loops(k), k)
        assert sum(drops) >= 9 * 4, drops  # four calls per program drop

    def test_joined_loops_test_the_empty_set_alone(self, monkeypatch):
        """16 atoms, one part: every supported model but the empty set lies
        above a mono-supported model, the empty set itself, so the reduct
        loop sees one candidate, in the query and in the scan, and the scan
        still lists the 2^15 supported models."""
        lp = lowering.lower(joined_loops(15))
        assert len(kernel._parts(lp)) == 1
        seen = []
        reducts = kernel._reducts
        monkeypatch.setattr(kernel, "_reducts",  # how many candidates, and the empty set
                            lambda candidates, bodies: seen.append((candidates.bit_count(),
                                                                    candidates & 1))
                            or reducts(candidates, bodies))
        assert kernel.enumerate_masks(lp, lowering.ENUM_SFLP) == [0]
        supported, flp, sflp = kernel.scan(lp)
        assert seen == [(1, 1), (1, 1)]
        assert len(supported) == 1 << 15 and flp == sflp == [0]

    @pytest.mark.parametrize("k", [12, 16])
    def test_the_query_lists_no_dropped_candidate(self, monkeypatch, k):
        """The SFLP query reads only the answer sets, so where the prefilter
        drops candidates it lists none of the 2^k supported models: no
        `members` call in it returns more than n masks. The scan still lists
        them all."""
        lp = lowering.lower(joined_loops(k))
        listed = []
        list_members = kernel.members
        monkeypatch.setattr(kernel, "members", lambda v: listed.append(v.bit_count())
                            or list_members(v))
        assert kernel.enumerate_masks(lp, lowering.ENUM_SFLP) == [0]
        assert listed and max(listed) <= lp.n, listed
        assert len(kernel.scan(lp)[0]) == 1 << k


def record_blocked_below(monkeypatch) -> list:
    """The lowered program and candidate of each call to
    `kernel._blocked_below` from now on that rejects its candidate: the
    program is the one the enclosing `_global_pass` scans, a part's where
    the query splits, so the candidate is a mask over its atoms."""
    rejected = []
    scanned = count_passes(monkeypatch)
    blocked_below = kernel._blocked_below

    def recorded(candidate, *rest):
        blocked = blocked_below(candidate, *rest)
        if blocked:
            rejected.append((scanned[-1], candidate))
        return blocked

    monkeypatch.setattr(kernel, "_blocked_below", recorded)
    return rejected


class TestSmallerCandidates:
    """Where SFLP's support test runs on at most n candidates, `_global_pass`
    first tests each candidate I against the smaller candidates: a J ⊊ I,
    a supported model of P, whose true atoms are each supported at J by a
    rule of I's reduct is a model of that reduct, as of any subset of P's
    rules, and so a supported model of it below I. It blocks I for SFLP and
    FLP alike, before I's subset vector is built."""

    def test_rejected_candidates_are_no_answer_sets(self, monkeypatch):
        """Single programs and renamed unions of up to 10 atoms, every union
        split (`count_splits`), so that the parts' passes test too: each
        rejected candidate fails both AST predicates over the rules of the
        program that its pass scans, and every answer is the oracle's."""
        count_splits(monkeypatch)
        rejected = record_blocked_below(monkeypatch)
        in_parts = 0  # rejections in the pass of a part narrower than its program
        for seed in range(150):
            for label, program in (
                ("single", generate(GenConfig(atom_count=2 + seed % 7, rule_count=1 + seed % 8,
                                              allow_disjunctive_heads=seed % 2 == 0, seed=seed))),
                ("looped", looped_and_joined(seed)),
                ("copies", renamed_copies(seed, 4 + seed % 7)[0]),
            ):
                before = len(rejected)
                assert_agrees(program, (label, seed))
                in_parts += sum(lp.n < len(program.atoms()) for lp, _ in rejected[before:])
        for lp, candidate in rejected:
            interpretation = decode(lp.atoms, candidate)
            assert not is_sflp_answer_set(interpretation, lp.rules), (lp.rules, candidate)
            assert not is_flp_answer_set(interpretation, lp.rules), (lp.rules, candidate)
        assert len(rejected) >= 700 and in_parts >= 250, (len(rejected), in_parts)

    def test_the_chain_builds_no_subset_vector_above_its_answer_sets(self, monkeypatch):
        """The 16-atom chain has three supported models: two answer sets of 8
        atoms and the full set, whose reduct is the whole program. Each
        answer set is supported in it, so the full set is rejected before
        its subset vector, and no family goes to the support test."""
        lp = lowering.lower(parse_program(chain_text(16)))
        subsets = count_subset_vectors(monkeypatch)
        support_tests = []
        supported = kernel._supported
        monkeypatch.setattr(kernel, "_supported",
                            lambda *args: support_tests.append(args) or supported(*args))
        sflp = kernel.enumerate_masks(lp, lowering.ENUM_SFLP)
        assert len(sflp) == 2 and all(m.bit_count() == 8 for m in sflp)
        assert kernel.enumerate_masks(lp, lowering.ENUM_SUPPORTED) == sflp + [(1 << 16) - 1]
        assert subsets == sflp
        assert support_tests == []


def test_supported_is_the_support_test_on_random_families():
    """`kernel._supported` keeps the masks of a family of subsets of the
    candidate at which every true atom has a rule among `rules` whose body
    holds there and whose head meets the mask in that atom alone, the
    definition read off the AST."""
    rng = random.Random(7)
    checked = 0
    for seed in range(200):
        program = generate(GenConfig(atom_count=2 + seed % 5, rule_count=1 + seed % 8,
                                     allow_disjunctive_heads=seed % 2 == 0, seed=seed))
        lp = lowering.lower(program)
        heads = [lowering.members(h) for h in lp.heads]
        rule_support = [supports for _, _, supports in kernel.rule_vectors(lp, [0] * lp.n)]
        cols = lowering.columns(lp.n)
        for _ in range(5):
            candidate = rng.getrandbits(lp.n)
            subsets = [j for j in range(1 << lp.n) if j & candidate == j]
            family = sum(1 << j for j in subsets if rng.random() < 0.6)
            rules = sorted(rng.sample(range(len(lp.rules)), rng.randint(0, len(lp.rules))))
            want = 0
            for j in subsets:
                interp = decode(lp.atoms, j)
                if family >> j & 1 and all(
                    any(a in lp.rules[r].head and lp.rules[r].head & interp == {a}
                        and lp.rules[r].body.eval(interp) for r in rules)
                    for a in interp
                ):
                    want |= 1 << j
            got = kernel._supported(family, candidate, rules, heads, rule_support, cols)
            assert got == want, (seed, candidate, rules)
            checked += want != family
    assert checked >= 300, checked


def test_sflp_splits_only_on_disjoint_parts_and_constraints():
    """`a :- a. b :- dnf{~b | a}.` has one SFLP answer set, {a, b}: {b} is
    the only proper subset that is a model of its reduct, and b is
    unsupported there. It has no FLP answer set. The splitting set {a}
    would split it into the bottom `a :- a.`, whose only SFLP answer set
    is the empty set, and the top at the empty set, `b :- dnf{~b}.`, which
    has none: that split would lose {a, b}. The kernel splits SFLP only on
    atom-disjoint parts and on constraints, and this program is one part."""
    program = parse_program("a :- a. b :- dnf{~b | a}.")
    subsets = all_subsets(program.atoms())
    assert [i for i in subsets if is_sflp_answer_set(i, program)] == [fs("a", "b")]
    assert not any(is_flp_answer_set(i, program) for i in subsets)
    lp = lowering.lower(program)
    assert len(kernel._parts(lp)) == 1
    assert kernel_sets(program, "sflp") == {fs("a", "b")}
    assert kernel_sets(program, "flp") == set()
    _, flp, sflp = kernel.scan(lp)
    assert flp == [] and [decode(lp.atoms, m) for m in sflp] == [fs("a", "b")]
    bottom, top = parse_program("a :- a."), parse_program("b :- dnf{~b}.")
    assert [i for i in all_subsets(bottom.atoms()) if is_sflp_answer_set(i, bottom)] == [fs()]
    assert not any(is_sflp_answer_set(i, top) for i in all_subsets(top.atoms()))
    assert kernel_sets(bottom, "sflp") == {fs()} and kernel_sets(top, "sflp") == set()


@given(
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 6),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_oracles(seed, atoms, rules, disjunctive):
    program = generate(
        GenConfig(
            atom_count=atoms,
            rule_count=rules,
            allow_disjunctive_heads=disjunctive,
            seed=seed,
        )
    )
    assert_agrees(program, seed)


def choice_models() -> list[int]:
    """The 3^7 = 2187 models of seven choice pairs over 14 atoms: each pair
    of bits is 01, 10 or 11."""
    return sorted(
        sum(p << (2 * k) for k, p in enumerate(pairs))
        for pairs in itertools.product((1, 2, 3), repeat=7)
    )


BOUNDARY_BITS = (0, 7, 8, 63, 64, 127, 128)
MEMBER_CASES = {
    "empty": [],
    "one": [0],
    "sparse-short": [3, 8, 9, 70],
    "sparse-long": [3, 600, 601, 607, 608, 5000],
    "three-of-2^16": [5, 40000, 65535],
    "dense-choice": choice_models(),
    **{
        f"boundaries-2^{n}": sorted({b for b in BOUNDARY_BITS if b < 1 << n} | {(1 << n) - 1})
        for n in range(6, 17)
    },
}


@pytest.mark.parametrize("bits", list(MEMBER_CASES.values()), ids=list(MEMBER_CASES))
def test_members_are_the_set_bits_in_order(bits):
    assert kernel.members(sum(1 << b for b in bits)) == bits


@pytest.mark.parametrize("width", [16, 18])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 64, 65, 300, "dense"])
def test_members_of_long_vectors(width, count):
    """Few set bits (the top one among them), around the switch between
    the two readers, and dense, against a reference that reads every bit."""
    rng = random.Random(f"{width}-{count}")
    size = 1 << width
    if count == "dense":
        vector = rng.getrandbits(size) | 1 << (size - 1)
    else:
        vector = 0
        while vector.bit_count() < count:
            vector |= 1 << (size - 1 if not vector else rng.randrange(size))
    reference = [i for i, bit in enumerate(reversed(bin(vector)[2:])) if bit == "1"]
    assert kernel.members(vector) == reference


def set_bits(vector: int) -> list[int]:
    """The set bits of a vector, increasing, read one by one off its
    binary digits."""
    return [i for i, bit in enumerate(reversed(bin(vector)[2:])) if bit == "1"]


def shaped_vector(shape: str, width: int, count: int, rng: random.Random) -> int:
    """A vector of 2^width bits: `count` bits (at most all of them) spread
    at random ("sparse") or in runs of up to 40 ("clustered"), its top bit
    among them, or about half of all bits ("dense", `count` unused)."""
    size = 1 << width
    if shape == "dense":
        return rng.getrandbits(size) | 1 << (size - 1)
    count = min(count, size)
    vector = 1 << (size - 1)
    while vector.bit_count() < count:
        if shape == "sparse":
            vector |= 1 << rng.randrange(size)
        else:
            start = rng.randrange(size)
            run = min(rng.randint(1, 40), size - start, count - vector.bit_count())
            vector |= ((1 << run) - 1) << start
    return vector


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("shape", ["sparse", "clustered", "dense"])
@pytest.mark.parametrize("width", range(4, 21))
def test_members_around_the_peel_budget(width, shape, offset):
    """One set bit fewer than `lowering._PEELED`, as many and one more, at
    every width from 2^4 to 2^20 bits, against a reference that reads
    every bit."""
    rng = random.Random(f"{width}-{shape}-{offset}")
    vector = shaped_vector(shape, width, lowering._PEELED + offset, rng)
    assert lowering.members(vector) == set_bits(vector)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("shape", ["sparse", "clustered", "dense"])
def test_members_where_the_peel_hands_over_to_the_word_scan(shape, offset):
    """16 bits 64 apart on top, each its own window, then a rest whose top
    bit sits 1024 positions below the vector's: after those 16 the bits
    taken project 16 * left / 1024 more for the `left` bits below, one
    fewer than `lowering._PEELED`, as many (the peel goes on past that
    check) and one more (the rest is scanned by words at once)."""
    rng = random.Random(f"handover-{shape}-{offset}")
    left = lowering._PEELED * 64 + 64 * offset
    width = (left - 1).bit_length()
    rest = shaped_vector(shape, width, 300, rng) >> ((1 << width) - left)
    assert rest.bit_length() == left
    top = sum(1 << (left + 1023 - 64 * j) for j in range(16))
    assert lowering.members(top | rest) == set_bits(top | rest)


def test_at_least_counts_against_brute_force():
    """Every `top` from 1 to m + 1 over 0-6 atoms at scattered positions
    of up to 8: counter c - 1 holds the masks with at least c of the atoms
    true, counted bit by bit, and is 0 beyond m; one atom's first counter
    is its column itself."""
    rng = random.Random(6)
    for trial in range(120):
        n = rng.randint(0, 8)
        cols = lowering.columns(n)
        bits = rng.sample(range(n), rng.randint(0, min(6, n)))
        atoms = sum(1 << b for b in bits)
        for top in range(1, len(bits) + 2):
            want = [sum(1 << j for j in range(1 << n) if (j & atoms).bit_count() >= c)
                    for c in range(1, top + 1)]
            assert lowering.at_least(cols, bits, top) == want, (trial, top)
    cols = lowering.columns(5)
    assert lowering.at_least(cols, [3], 2)[0] is cols[3]


@pytest.mark.parametrize("text, above, answers", [
    ("".join(f"a{i} :- a{i}. " for i in range(16)), True, 1),
    (chain_text(16), False, 0),
    ("x :- not y. y :- not x.", False, 2),  # 2 candidates over 2 atoms
    ("x :- not y. y :- not x. z :- z.", True, 2),  # 4 over 3
], ids=["16 loops", "16-atom chain", "n candidates", "n + 1 candidates"])
def test_flp_gate_splits_at_n_candidates(monkeypatch, text, above, answers):
    """The FLP query drops the candidates above a smaller model in one pass
    (`_above`) exactly when its pass has more candidates, supported models,
    than atoms: on loops (one-atom parts of two each), not on the chain,
    and at n and n + 1 candidates."""
    lp = lowering.lower(parse_program(text))
    supported = kernel.enumerate_masks(lp, lowering.ENUM_SUPPORTED)
    assert (len(supported) > lp.n) == above
    calls = []
    drop = kernel._above
    monkeypatch.setattr(kernel, "_above", lambda *args: calls.append(args) or drop(*args))
    assert len(kernel.enumerate_masks(lp, lowering.ENUM_FLP)) == answers
    assert len(calls) == above


def test_flp_splits_and_stops_at_a_part_without_answer_sets(monkeypatch):
    """The 14-atom choice gadgets split for FLP as for SFLP: two distinct
    two-atom parts, an even loop and a corpus-p1 gadget, which has no FLP
    answer set. Every part is scanned before any product is built, so the
    query ends there: `_spread` never runs."""
    lp = lowering.lower(choice_gadgets())
    splits = count_splits(monkeypatch)
    scanned = count_passes(monkeypatch)
    spread = []
    place = kernel._spread
    monkeypatch.setattr(kernel, "_spread", lambda *args: spread.append(args) or place(*args))
    assert kernel.enumerate_masks(lp, lowering.ENUM_FLP) == []
    assert splits == [7] and 1 <= len(scanned) <= 2 and all(p.n == 2 for p in scanned)
    assert spread == []


def test_proper_subsets_of_every_small_mask():
    for n in range(11):
        for mask in range(1 << n):
            want = sum(1 << j for j in range(mask) if j & mask == j)
            assert kernel._proper_subsets(mask) == want, mask


def test_flp_masks_are_supported_masks(corpus):
    proper = 0
    for program in [corpus[name] for name in CORPUS_NAMES] + mixed_programs():
        lp = lowering.lower(program)
        flp = kernel.enumerate_masks(lp, lowering.ENUM_FLP)
        supported = kernel.enumerate_masks(lp, lowering.ENUM_SUPPORTED)
        assert set(flp) <= set(supported), str(program)
        proper += len(flp) < len(supported)
    assert proper >= 100


def assert_lists_only_what_each_mode_reads(lp: lowering.LoweredProgram, label) -> None:
    """`kernel._global_pass` on `lp`, called directly: FLP returns its
    answer sets alone and SFLP its own, with empty lists in the other two
    places, and the scan's first list is every supported model."""
    listed, flp, sflp = kernel._global_pass(lp, kernel._SCAN)
    assert listed == kernel._global_pass(lp, lowering.ENUM_SUPPORTED)[0], label
    assert kernel._global_pass(lp, lowering.ENUM_FLP) == ([], flp, []), label
    assert kernel._global_pass(lp, lowering.ENUM_SFLP) == ([], [], sflp), label


def test_each_mode_lists_only_what_it_reads(corpus, monkeypatch):
    """The list contract of `_global_pass`, on whole programs (the corpus,
    `mixed_programs()` and joined loops, where the mono-support drop keeps
    candidates from the reduct loop and the scan still lists them) and on
    each part that a split scan of a disjoint union or of renamed copies
    scans, with the split gate lowered by `count_splits`."""
    drops = count_prefilter_drops(monkeypatch)
    programs = ([corpus[name] for name in CORPUS_NAMES] + mixed_programs()
                + [joined_loops(k) for k in range(1, 9)])
    dropped = 0
    for k, program in enumerate(programs):
        before = len(drops)
        assert_lists_only_what_each_mode_reads(lowering.lower(program), k)
        dropped += any(drops[before:])
    splits = count_splits(monkeypatch)
    scanned = count_passes(monkeypatch)
    parts = 0
    for seed in range(100):
        for program in (disjoint_union(seed, 4 + seed % 9)[0],
                        renamed_copies(seed, 4 + seed % 7)[0]):
            scanned.clear()
            before = len(splits)
            kernel.scan(lowering.lower(program))
            if len(splits) > before:
                for part in list(scanned):
                    before = len(drops)
                    assert_lists_only_what_each_mode_reads(part, seed)
                    parts += 1
                    dropped += any(drops[before:])
    assert dropped >= 120 and parts >= 300, (dropped, parts)


@pytest.mark.parametrize("program, supported, flp, calls_wanted", [
    ("".join(f"a{i} :- a{i}. " for i in range(16)), 1 << 16, 1, 1),
    (chain_text(16), 3, 0, 2),
], ids=["16 self-supporting loops", "16-atom chain"])
def test_flp_tests_at_most_n_candidates_one_by_one(monkeypatch, program, supported, flp,
                                                   calls_wanted):
    """The FLP query builds one subset vector per candidate that reaches the
    reduct test, and only while there are at most n candidates; beyond that
    one pass over all masks first drops those above a smaller model of P:
    2^16 supported models, 16 one-atom parts of one shape, cost one subset
    vector, not 2^16. Up to n, a candidate above a smaller one supported in
    its reduct gets none: the chain's full set falls to either of its two
    8-atom supported models."""
    lp = lowering.lower(parse_program(program))
    calls = []
    proper_subsets = kernel._proper_subsets
    monkeypatch.setattr(kernel, "_proper_subsets", lambda i: calls.append(i) or proper_subsets(i))
    assert len(kernel.enumerate_masks(lp, lowering.ENUM_SUPPORTED)) == supported
    assert len(kernel.enumerate_masks(lp, lowering.ENUM_FLP)) == flp
    assert len(calls) == calls_wanted


def test_reducts_are_the_candidates_bits_of_each_fired_vector():
    rng = random.Random(4)
    for trial in range(400):
        n = trial % 13
        size = 1 << n
        fired = [rng.getrandbits(size) for _ in range(rng.randint(0, 6))]
        fired.append((1 << size) - 1)
        fired.append(0)
        candidates = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
        candidates |= 1 | 1 << (size - 1)  # the empty mask and the whole universe
        if trial % 5 == 0:
            candidates = (1 << size) - 1
        want = {
            i: [r for r, v in enumerate(fired) if v >> i & 1]
            for i in range(size) if candidates >> i & 1
        }
        got = kernel._reducts(candidates, fired)
        assert got == want and list(got) == sorted(want), trial
    assert kernel._reducts(0, [7, 0]) == {}


def test_width_tables_are_built_once():
    for n in range(13):
        cols = lowering.columns(n)
        assert type(cols) is tuple and len(cols) == n
        assert lowering.columns(n) is cols and lowering.full(n) is lowering.full(n)
        assert lowering.full(n) == (1 << (1 << n)) - 1
        assert list(cols) == [
            sum(1 << m for m in range(1 << n) if m >> i & 1) for i in range(n)
        ], n


def test_default_backend_names_the_kernel():
    assert kernel.default_backend() == kernel.NAME
