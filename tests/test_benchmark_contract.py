"""What the benchmark calls of gasp still works: each perfbench workload,
built at seed 0, runs a short slice of its operations through its own
`run` and finds no problem in its own `check`. perfbench/run.py runs the
same workloads in full."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402

SLICES = {
    # the first 12 battery programs, 3 of them with disjunctive heads
    "battery": lambda w: next(w.units())[:12],
    # one round of the four queries
    "chain": lambda w: next(w.units()),
    "choice": lambda w: next(w.units()),
    # every command on p1, and compile on p4's disjunctive head
    "cli": lambda w: [(cmd, "p1") for cmd in w.COMMANDS] + [("compile", "p4")],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_slice_passes_its_check(name):
    w = workloads.WORKLOADS[name](ROOT, 0)
    samples = [w.run(item) for item in SLICES[name](w)]
    assert samples and w.check(samples) == []
