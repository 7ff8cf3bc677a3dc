"""What the benchmark calls of gasp still works: each perfbench workload,
built at seed 0, runs a short slice of its operations through its own
`run` and finds no problem in its own `check`, untraced and under the
tracer of the traced run. perfbench/run.py runs the same workloads in
full."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

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


def gasp_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of gasp's modules, and `Program.__init__`, by
    owner and name."""
    from gasp import cli, compile, core, harness, kernel, lowering, parser, semantics

    out = {("Program", "__init__"): core.Program.__init__}
    for module in (cli, compile, core, harness, kernel, lowering, parser, semantics):
        out.update(((module.__name__, k), v) for k, v in vars(module).items())
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_slice_sees_the_kernel_and_uninstall_restores_gasp(name):
    """Traced, the same slice reaches the kernel and the lowering, and
    `uninstall` puts back every attribute the tracer patched: the same
    object, not an equal one. A query lowers its program once, however
    many parts the kernel splits it into."""
    w = workloads.WORKLOADS[name](ROOT, 0)
    before = gasp_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {key for key, value in gasp_attributes().items() if value is not before.get(key)}
        samples = [w.run(item, tracer) for item in SLICES[name](w)]
    finally:
        tracer.uninstall()
    after = gasp_attributes()
    assert {("gasp.kernel", "enumerate_masks"), ("gasp.lowering", "lower")} <= patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.layer_metrics()
    assert metrics["kernel.calls"] > 0 and metrics["lowering.calls"] > 0, metrics
    if name in ("chain", "choice"):  # one round of the four queries
        assert metrics["kernel.calls"] == metrics["lowering.calls"] == 4, metrics
    if name == "battery":  # `check_theorems` runs the supported and SFLP queries
        assert metrics["kernel.supported_ms"] > 0 and metrics["kernel.sflp_ms"] > 0, metrics
    assert w.check(samples) == []
