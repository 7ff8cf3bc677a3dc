import os
from pathlib import Path

import pytest

from gasp import parse_program

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def src_env() -> dict[str, str]:
    """The environment for a subprocess that imports gasp from this
    checkout: its src directory first on PYTHONPATH."""
    path = [str(CORPUS_DIR.parent / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))

# pass/fail lines recorded by the acceptance tests; replayed after the run
# so they stay visible even though pytest captures stdout of passing tests
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

CORPUS_NAMES = ("p1", "p2", "p3", "p4", "p5")


def fs(*names):
    """Shorthand: an interpretation as a frozenset of atom names."""
    from gasp import Atom

    return frozenset(Atom(n) for n in names)


# (Supported) models and answer sets of the five corpus programs, per
# semantics command name.
TABLE_EXPECTED = {
    "p1": {
        "models": {fs("a"), fs("b"), fs("a", "b")},
        "flp": set(),
        "supported": {fs("a", "b")},
        "sflp": {fs("a", "b")},
    },
    "p2": {
        "models": {fs("a", "b")},
        "flp": {fs("a", "b")},
        "supported": {fs("a", "b")},
        "sflp": {fs("a", "b")},
    },
    "p3": {
        "models": {fs("a", "b")},
        "flp": set(),
        "supported": {fs("a", "b")},
        "sflp": {fs("a", "b")},
    },
    "p4": {
        "models": {fs("a"), fs("b"), fs("a", "b")},
        "flp": {fs("a"), fs("b")},
        "supported": {fs("a"), fs("b"), fs("a", "b")},
        "sflp": {fs("a"), fs("b")},
    },
    "p5": {
        "models": {fs("a"), fs("b"), fs("a", "b")},
        "flp": {fs("a")},
        "supported": {fs("a"), fs("a", "b")},
        "sflp": {fs("a"), fs("a", "b")},
    },
}

# Completion models are exactly the supported models. In p5, comp(b) is
# true exactly at {b} (the count body is false there and nothing else heads
# b), so its constraint excludes {b}: the models are {a} and {a, b}.
COMPLETION_MODELS = {
    "p1": {fs("a", "b")},
    "p2": {fs("a", "b")},
    "p3": {fs("a", "b")},
    "p4": {fs("a"), fs("b"), fs("a", "b")},
    "p5": {fs("a"), fs("a", "b")},
}


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / f"{name}.gasp").read_text()


@pytest.fixture(scope="session")
def corpus():
    return {name: parse_program(corpus_text(name)) for name in CORPUS_NAMES}


def mixed_programs(count: int = 1000):
    """`count` generated programs over 2-5 atoms, two thirds of them allowed
    disjunctive heads, with every body kind in the generator's default mix."""
    from gasp.harness import GenConfig, generate

    return [
        generate(GenConfig(atom_count=2 + s % 4, rule_count=1 + s % 7,
                           allow_disjunctive_heads=s % 3 != 2, seed=s))
        for s in range(count)
    ]


def renamed(program, suffix: str):
    """The program with every atom `x` renamed to `x<suffix>`."""
    from gasp.core import Atom

    return relabelled(program, lambda a: Atom(a.name + suffix))


def relabelled(program, rename):
    """The program with every atom `a` replaced by `rename(a)`, rule by
    rule in the same order."""
    from gasp.core import (
        Conjunct, CountAggregate, Dnf, LiteralConjunction, Program, Rule, TruthTable,
    )

    def group(atoms):
        return frozenset(map(rename, atoms))

    def conjunct(c):
        return Conjunct(group(c.positives), group(c.negatives))

    def body(b):
        if isinstance(b, LiteralConjunction):
            return LiteralConjunction(conjunct(b.conjunct))
        if isinstance(b, CountAggregate):
            return CountAggregate(group(b.atoms), b.comparator, b.bound)
        if isinstance(b, Dnf):
            return Dnf(tuple(conjunct(d) for d in b.disjuncts))
        return TruthTable(group(b.domain), frozenset(group(s) for s in b.satisfying))

    return Program(Rule(group(r.head), body(r.body)) for r in program.rules)


def disjoint_union(seed: int, width: int):
    """2-4 programs over at most `width` <= 32 atoms in all, renamed apart
    (part k's atom `a` becomes `a<k>`, so the parts' atoms interleave in name
    order and in bit positions), and their union. A part of two or three
    atoms is a corpus program over {a, b} half the time: three of the five
    (p1, p3, p5) have an SFLP answer set that is no FLP one. Every other
    part is generated, with the generator's full body mix, about half of
    them with disjunctive heads, plus a self-supporting loop `a :- a.` on
    about half of its atoms, so that many unions have more supported
    models than atoms."""
    import random

    from gasp.core import Atom, Conjunct, LiteralConjunction, Program, Rule
    from gasp.harness import GenConfig, generate

    rng = random.Random(seed)
    # a part has at most 8 atoms, so a width over 16 takes three parts
    count = rng.randint(max(2, -(-width // 8)), min(4, width))
    sizes = [1] * count
    for _ in range(width - count):
        sizes[rng.choice([k for k in range(count) if sizes[k] < 8])] += 1
    parts = []
    for k, size in enumerate(sizes):
        if size in (2, 3) and rng.random() < 0.5:
            part = parse_program(corpus_text(rng.choice(CORPUS_NAMES)))
        else:
            part = generate(GenConfig(atom_count=size, rule_count=rng.randint(1, min(9, size)),
                                      allow_disjunctive_heads=rng.random() < 0.5,
                                      seed=rng.randrange(10**6)))
            loops = [frozenset({Atom(a)}) for a in "abcdefgh"[:size] if rng.random() < 0.5]
            part = Program(part.rules + tuple(
                Rule(a, LiteralConjunction(Conjunct(a, ()))) for a in loops
            ))
        parts.append(renamed(part, str(k)))
    return Program(r for part in parts for r in part.rules), parts


def choice_gadgets(names=None):
    """Five even loops `x :- not y. y :- not x.` and two corpus-p1 gadgets,
    part k over `names[2k]` and `names[2k + 1]`, by default 14 names that do
    not follow the parts: 3^7 models, 2^5 supported models and SFLP answer
    sets, and no FLP answer set."""
    names = names or [f"v{(5 * k) % 14:02d}" for k in range(14)]
    parts = []
    for k in range(7):
        x, y = names[2 * k], names[2 * k + 1]
        if k < 5:
            parts.append(f"{x} :- not {y}. {y} :- not {x}.")
        else:
            parts.append(f"{x} :- count{{{x}, {y}}} != 1. {y} :- count{{{x}, {y}}} != 1.")
    return parse_program("\n".join(parts))


def product_of(families):
    """The unions of one set from each family: the answers of a program
    whose parts share no atom, from each part's answers."""
    import itertools

    return {frozenset().union(*combo) for combo in itertools.product(*families)}
