"""gasp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py [--workload {battery,chain,choice,cli}] --seed N \
        [--seconds S] [--trace {0,1}]

Without --workload it runs all four, one after another, each in a fresh
process.

Run from the root of a gasp checkout; the package is imported from
`src/`, nothing is installed or built. `--trace 0` times operations for
about S seconds and prints the end-to-end metrics; `--trace 1` runs each
operation of a fixed list untraced and traced, and prints the per-layer
metrics and the tracing overhead. Both check every output and
print, as the last line, a JSON object with `correct`, `attempted`,
`failed` and `metrics`; a wrong output makes the exit code 1.
perfbench/README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("battery", "chain", "choice", "cli")
SETUP_REPEATS = 7
# Reported times read as on a machine where calibration_loop takes
# CAL_REF_MS (see Speedometer).
CAL_REF_MS = 10.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "models_ms": "ms",
    "supported_ms": "ms",
    "flp_ms": "ms",
    "sflp_ms": "ms",
}
KIND_NAMES = ("models", "supported", "flp", "sflp")


# count windows of a 12-atom ring, as in coordination_chain
_CAL_WINDOWS = tuple((0b111 << i | 0b111 >> (12 - i)) & 0xFFF for i in range(12))


def _violates(candidate: int, window: int) -> bool:
    return (candidate & window).bit_count() != 1 and not candidate & window & -window


def calibration_loop() -> int:
    """A fixed pure-Python mix of what gasp spends its time on: building
    small frozensets, and scanning candidate masks against count bodies
    with a call per body. It never calls gasp, so no change to gasp can
    change its time."""
    acc = 0
    items = tuple(range(12))
    for mask in range(1 << 12):
        acc += len(frozenset(i for i in items if mask >> i & 1))
    for candidate in range(1 << 12):
        acc += any(_violates(candidate, w) for w in _CAL_WINDOWS)
    return acc


class Speedometer:
    """Times calibration_loop before every sample and after the last, and
    scales each sample's time by CAL_REF_MS over the mean of the two
    calibrations around it.

    The speed of a shared host drifts by a third and more within seconds
    to minutes; no regression bound absorbs that, so the end-to-end
    times are scaled. The raw times are printed as well.
    """

    def __init__(self) -> None:
        self.cal_ms: list[float] = []

    def tick(self) -> None:
        start = perf_counter()
        calibration_loop()
        self.cal_ms.append((perf_counter() - start) * 1e3)

    def factors(self) -> list[float]:
        """One factor per sample, from the calibrations on either side."""
        return [2 * CAL_REF_MS / (a + b) for a, b in zip(self.cal_ms, self.cal_ms[1:])]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time, raw and scaled, of a fresh interpreter that
    imports what the workload calls and builds its inputs; one untimed
    run first warms the bytecode cache."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    speed = Speedometer()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.tick()
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    speed.tick()
    scaled = [t * f for t, f in zip(times, speed.factors())]
    return statistics.median(times), statistics.median(scaled)


def environment() -> dict:
    from gasp import kernel

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    backend = kernel.default_backend()
    return {
        "kernel_backend": backend,
        "GASP_KERNEL": os.environ.get("GASP_KERNEL"),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "run_on_cpus": sorted(os.sched_getaffinity(0)),
        # the pure and compiled kernels differ by about 50x
        "comparable_only_with": f"kernel_backend={backend}",
    }


def attempt(w, item, tracer=None):
    """`w.run(item)`, or a sample that records the exception it raised."""
    from workloads import Sample

    start = perf_counter()
    try:
        return w.run(item, tracer)
    except Exception as exc:  # a failed operation, reported by check_samples
        ms = (perf_counter() - start) * 1e3
        return Sample(item, ms, {}, None, error=f"{type(exc).__name__}: {exc}")


def check_samples(w, samples) -> tuple[list[tuple[int, str]], list]:
    """Problems as (sample index or -1, message), and the samples that ran
    to the end, which the workload checks."""
    done = [i for i, s in enumerate(samples) if s.error is None]
    problems = [(i, f"{s.item}: {s.error}") for i, s in enumerate(samples) if s.error is not None]
    ran = [samples[i] for i in done]
    problems += [(done[idx] if idx >= 0 else -1, msg) for idx, msg in w.check(ran)]
    return problems, ran


def timed_run(w, seconds: float):
    """Whole units of operations until `seconds` have passed and the
    workload's minimum sample count is reached, with the Speedometer
    that ran between them."""
    samples = []
    speed = Speedometer()
    deadline = perf_counter() + seconds
    for unit in w.units():
        for item in unit:
            speed.tick()
            samples.append(attempt(w, item))
        if perf_counter() >= deadline and len(samples) >= w.min_ops:
            speed.tick()
            return samples, speed


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(w, samples, setup_s: float, factors: list[float]) -> dict[str, float]:
    """The end-to-end metrics, each sample's times scaled by its factor."""
    scaled_ms = [s.op_ms * f for s, f in zip(samples, factors)]
    k = w.samples_per_op  # runs end on whole units, which hold whole operations
    op_ms = [sum(scaled_ms[i:i + k]) for i in range(0, len(scaled_ms), k)]
    if w.name == "cli":
        rss_kb = max(s.rss_kb for s in samples)  # the children's peak
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": percentile(op_ms, 90),
    }
    for kind in KIND_NAMES:
        times = [s.kind_ms[kind] * f for s, f in zip(samples, factors) if kind in s.kind_ms]
        metrics[f"{kind}_ms"] = statistics.median(times) if times else 0.0  # 0: every query failed
    return metrics


def traced_run(w, workload: str, seed: int):
    from tracing import PER_LAYER_METRICS, Tracer

    ops = [item for unit in islice(w.units(), w.traced_units) for item in unit]
    tracer = Tracer()
    samples = []
    spent = {False: 0.0, True: 0.0}
    for i, item in enumerate(ops):
        # each operation runs untraced and traced back to back, in
        # alternating order, so drift in machine speed cancels out
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install()
            try:
                smp = attempt(w, item, tracer if traced else None)
            finally:
                tracer.uninstall()
            samples.append(smp)
            spent[traced] += smp.op_ms / 1e3
    untraced, traced = spent[False], spent[True]
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.ops": len(ops),
        "trace.spans": len(tracer.start),
        "trace.untraced_ms": untraced * 1e3,
        "trace.traced_ms": traced * 1e3,
        "trace.overhead_ms": (traced - untraced) * 1e3,
        "trace.overhead_share": (traced - untraced) / untraced,
    })
    metrics = {name: metrics[name] for name in PER_LAYER_METRICS}  # BENCHMARK.json's order
    tracer.write(ROOT / ".perfbench_out" / f"{workload}-seed{seed}.spans.json.gz")
    return samples, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.workload is None:
        codes = []
        for name in WORKLOAD_NAMES:
            print(f"== {name}", flush=True)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            codes.append(subprocess.run(argv, cwd=ROOT).returncode)
        return max(codes)
    if not (ROOT / "src" / "gasp" / "__init__.py").is_file():
        print(f"perfbench: no gasp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](ROOT, args.seed)
        return 0

    # one CPU for the run, its calibrations and its children: the two
    # CPUs of a shared host are not equally fast at the same moment
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.trace:
        samples, metrics = traced_run(w, args.workload, args.seed)
        units = None
    else:
        raw_setup_s, setup_s = measure_setup(args.workload, args.seed)
        samples, speed = timed_run(w, args.seconds)
        metrics = end_to_end(w, samples, setup_s, speed.factors())
        raw = end_to_end(w, samples, raw_setup_s, [1.0] * len(samples))
        units = END_TO_END_UNITS
    problems, ran = check_samples(w, samples)
    failed = len({idx for idx, _ in problems if idx >= 0})
    correct = not problems

    print("env " + json.dumps(environment()))
    if units is None:
        from tracing import metric_unit

        units = {name: metric_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"calibration median {statistics.median(speed.cal_ms):.4f} ms over "
              f"{len(speed.cal_ms)} samples (CAL_REF_MS {CAL_REF_MS})")
        for name, value in raw.items():
            print(f"raw {name} {value:.6g} {units[name]}")
    per_kind = {k: sum(k in s.kind_ms for s in samples) for k in KIND_NAMES}
    print(f"samples {len(samples)} in {len(samples) // w.samples_per_op} operations, by query "
          + " ".join(f"{k}={n}" for k, n in per_kind.items()))
    print(f"failed_share {failed / len(samples):.4f} ratio ({failed} of {len(samples)} samples)")
    for line in w.notes(ran):
        print(line)
    for _, message in problems[:20]:
        print("MISMATCH " + message)
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
