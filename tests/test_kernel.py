"""The bit-sliced kernel against the AST: `truth_vector` against Body.eval
on every mask, `enumerate_masks` against the oracles of tests/oracles.py
in all four modes, and the mask order and decoding of `interpretations`
against `core.interp_sort_key`."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasp import kernel, lowering
from gasp.compile import rew_flp, rew_sflp
from gasp.core import (
    Atom,
    CountAggregate,
    Program,
    Rule,
    TruthTable,
    atom_set,
    interp_sort_key,
    subsets_in_canonical_order,
)
from gasp.harness import GenConfig, generate
from gasp.semantics import completion

from conftest import fs
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
    for name in MODES:
        assert kernel_sets(program, name) == enumerate_oracle(program, name), (label, name)


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
                if i % 2 == 0:
                    universe.append(Atom(f"z{i}"))
                universe.append(a)
            assert_vectors_agree(program, tuple(universe) + (Atom("zz"),))

    def test_count_bounds_beyond_members(self):
        for cmp in ("=", "!=", "<=", ">=", "<", ">"):
            for bound in range(5):
                body = CountAggregate(fs("a", "b", "c"), cmp, bound)
                assert_vectors_agree(Program([Rule(fs("d"), body)]))

    def test_parity_table_over_wide_domain(self):
        names = [Atom(f"x{i}") for i in range(9)]
        family = frozenset(s for s in all_subsets(names[1:]) if len(s) % 2)
        body = TruthTable(frozenset(names[1:]), family)
        assert_vectors_agree(Program([Rule(fs("x0"), body)]))

    def test_empty_universe(self):
        assert lowering.truth_vector(TruthTable(fs(), frozenset({fs()})), {}, 0) == 1
        assert lowering.truth_vector(TruthTable(fs(), frozenset()), {}, 0) == 0


def scrambled_atoms(n: int, rng: random.Random) -> tuple[Atom, ...]:
    """n atoms in name order, with names unrelated to their creation order."""
    letters = rng.sample("abcdefghijklmnop", n)
    return tuple(sorted(Atom(f"{c}{rng.randrange(100)}") for c in letters))


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


@pytest.mark.parametrize("bits", [[], [0], [3, 8, 9, 70], [3, 600, 601, 607, 608, 5000]])
def test_members_are_the_set_bits_in_order(bits):
    assert kernel.members(sum(1 << b for b in bits)) == bits


def test_default_backend_names_the_kernel():
    assert kernel.default_backend() == kernel.NAME
