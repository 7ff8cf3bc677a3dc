"""Metamorphic checks at 14-20 atoms, where the AST oracle is too slow.

Each test relates the kernel's answers on one program to its answers on
a transformed program, so no enumeration from the definitions is needed:

- a renaming that reverses the bit order, plus shuffled rules, maps the
  answers of every query one to one;
- adding constraints C keeps exactly the answers of P that satisfy C,
  under every semantics, since a constraint supports no atom and its
  reduct at a model of C is empty;
- adding loops `a :- a.` over atoms of P changes no FLP answer set (a
  loop holds in every interpretation), while it may add SFLP ones;
- a union of programs over disjoint atoms answers every query with the
  product of its parts' answers (checked on the first `WIDE` unions of
  17-20 atoms).

The other three are checked on the coordination chain at 14, 18 and 20
atoms (each atom derived when a 3-atom window has an uneven count) and
on the first `JOINED` `conftest.disjoint_union` programs, drawn over
16-20 atoms by seed, whose parts one random rule or constraint joins and
which then span 14-20 atoms and have a supported model.
"""

import itertools
import random

import pytest

from gasp.core import (
    Atom, Conjunct, CountAggregate, LiteralConjunction, Program, Rule, interp_sort_key,
)
from gasp.semantics import (
    SemanticsKind,
    enumerate_candidates,
    enumerate_interpretations,
    is_model,
)

from conftest import disjoint_union, product_of, relabelled

CHAIN_WIDTHS = (14, 18, 20)
JOINED = 8
WIDE = 6
CASES = [f"chain{n}" for n in CHAIN_WIDTHS] + [f"joined{k}" for k in range(JOINED)]


def chain(n: int) -> Program:
    """n atoms, x_i derived when x_i, x_(i+1), x_(i+2) (mod n) do not hold
    exactly one true atom: few models, non-convex bodies."""
    atoms = [Atom(f"x{i}") for i in range(n)]
    return Program(
        Rule({atom}, CountAggregate({atoms[i], atoms[(i + 1) % n], atoms[(i + 2) % n]}, "!=", 1))
        for i, atom in enumerate(atoms)
    )


def random_body(rng: random.Random, atoms: list[Atom]):
    """A count body or a literal conjunction over 2-4 of the atoms."""
    chosen = rng.sample(atoms, rng.randint(2, min(4, len(atoms))))
    if rng.random() < 0.5:
        return CountAggregate(chosen, rng.choice(["=", "!=", "<=", ">=", "<", ">"]),
                              rng.randint(0, len(chosen)))
    cut = rng.randint(0, len(chosen))
    return LiteralConjunction(Conjunct(chosen[:cut], chosen[cut:]))


def joined(seed: int) -> Program:
    """A disjoint union plus one random rule or constraint over atoms of
    different parts, so the program no longer splits there."""
    rng = random.Random(seed)
    program, parts = disjoint_union(seed, 16 + seed % 5)
    linked = [rng.choice(sorted(part.atoms())) for part in parts if part.atoms()]
    body = random_body(rng, linked)
    head = {rng.choice(linked)} if rng.random() < 0.5 else set()
    return Program(program.rules + (Rule(head, body),))


@pytest.fixture(scope="module")
def joined_programs() -> list[Program]:
    out = []
    for seed in itertools.count():
        program = joined(seed)
        if 14 <= len(program.atoms()) <= 20 and \
                enumerate_interpretations(program, SemanticsKind.SUPPORTED):
            out.append(program)
            if len(out) == JOINED:
                return out


@pytest.fixture(params=CASES)
def program(request, joined_programs) -> Program:
    name = request.param
    if name.startswith("chain"):
        return chain(int(name[len("chain"):]))
    return joined_programs[int(name[len("joined"):])]


def answers(program: Program) -> dict:
    return {kind: enumerate_interpretations(program, kind) for kind in SemanticsKind}


def test_reversing_the_bit_order_maps_every_query(program):
    items = sorted(program.atoms())
    mirror = dict(zip(items, reversed(items)))  # name rank i <-> n - 1 - i
    rules = list(relabelled(program, mirror.__getitem__).rules)
    random.Random(len(items)).shuffle(rules)
    mirrored = Program(rules)
    before, after = answers(program), answers(mirrored)
    for kind in SemanticsKind:
        image = {frozenset(map(mirror.__getitem__, i)) for i in before[kind]}
        assert len(image) == len(before[kind]) == len(after[kind]), kind
        assert set(after[kind]) == image, kind
    for p, found in ((program, before), (mirrored, after)):
        scanned = enumerate_candidates(p)
        assert all(scanned[kind] == found[kind] for kind in scanned)


def test_constraints_keep_the_answers_that_satisfy_them(program):
    """A random constraint, and one whose literals over three atoms all
    hold at a model of the program, so that some model is cut."""
    rng = random.Random(len(program.rules))
    atoms = sorted(program.atoms())
    before = answers(program)
    models = before[SemanticsKind.CLASSICAL]
    cut = models[rng.randrange(len(models))]
    chosen = rng.sample(atoms, 3)
    blocking = Conjunct([a for a in chosen if a in cut], [a for a in chosen if a not in cut])
    constraints = (Rule((), random_body(rng, atoms)), Rule((), LiteralConjunction(blocking)))
    after = answers(Program(program.rules + constraints))
    assert cut not in after[SemanticsKind.CLASSICAL]
    for kind in SemanticsKind:
        assert after[kind] == tuple(i for i in before[kind] if is_model(i, constraints)), kind


def test_loops_leave_the_flp_answer_sets(program):
    rng = random.Random(len(program.rules))
    atoms = sorted(program.atoms())
    loops = tuple(Rule({a}, LiteralConjunction(Conjunct({a}, ()))) for a in rng.sample(atoms, 4))
    flp = SemanticsKind.FLP
    assert enumerate_interpretations(Program(program.rules + loops), flp) == \
        enumerate_interpretations(program, flp)


@pytest.fixture(scope="module")
def wide_unions() -> list:
    """The first `WIDE` disjoint unions, drawn over 17-20 atoms by seed,
    that use at least 17 of them."""
    out = []
    for seed in itertools.count():
        program, parts = disjoint_union(seed, 17 + seed % 4)
        if len(program.atoms()) >= 17:
            out.append((program, parts))
            if len(out) == WIDE:
                return out


@pytest.mark.parametrize("k", range(WIDE))
def test_disjoint_unions_are_products_of_their_parts(k, wide_unions):
    """Where the parts (at most 8 atoms each) are cheap to enumerate on
    their own, every query of the union is the product of the parts'
    answers, in canonical order."""
    program, parts = wide_unions[k]
    for kind in SemanticsKind:
        want = product_of(enumerate_interpretations(p, kind) for p in parts)
        assert enumerate_interpretations(program, kind) == \
            tuple(sorted(want, key=interp_sort_key)), kind
