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
