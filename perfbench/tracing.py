"""In-memory span tracer for the traced benchmark run.

`Tracer.install` wraps gasp's public functions in every module that looks
them up by name, so a call made through any of those names opens a span.
Spans are kept in flat arrays (name, start, end, parent) and folded into
per-layer self times and counts at the end. Nothing here is imported by
the untraced run.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# Kernel mode codes in lowering.ENUM_* order.
MODE_NAMES = ("models", "supported", "flp", "sflp")

# gasp.harness.CHECK_NAMES, spelled out so that the metric names stay fixed
CHECK_NAMES = (
    "flp_subset_sflp",
    "convex_equivalence",
    "supported_equals_completion_models",
    "sflp_completion_characterization",
    "compilation_bijection_flp",
    "compilation_bijection_sflp",
)
STATUSES = ("pass", "fail", "skip")

# per-layer time metric -> the span names whose self times it sums
TIME_METRICS = {
    **{f"kernel.{m}_ms": (f"kernel.{m}",) for m in MODE_NAMES},
    "semantics.decode_ms": ("semantics.enumerate_interpretations",),
    "lowering.lower_ms": ("lowering.lower",),
    "core.program_init_ms": ("core.program_init",),
    "core.to_dnf_ms": ("core.to_dnf",),
    "core.is_convex_ms": ("core.is_convex",),
    "semantics.completion_ms": ("semantics.completion",),
    "semantics.oracle_ms": ("semantics.oracle",),
    "compile.rewrite_ms": ("compile.rewrite",),
    "compile.verify_self_ms": ("compile.verify_compilation",),
    "harness.generate_ms": ("harness.generate",),
    "harness.check_self_ms": ("harness.check_theorems",),
    "parser.parse_ms": ("parser.parse_program",),
    "cli.main_ms": ("cli.main",),
}
# per-layer call-count metric -> the span names it counts
CALL_METRICS = {
    "kernel.calls": tuple(f"kernel.{m}" for m in MODE_NAMES),
    "lowering.calls": ("lowering.lower",),
    "core.program_init_calls": ("core.program_init",),
    "semantics.completion_calls": ("semantics.completion",),
    "compile.rewrite_calls": ("compile.rewrite",),
    "parser.calls": ("parser.parse_program",),
}
# counters kept by the wrappers (or by the traced cli child)
COUNTER_METRICS = (
    "kernel.candidates",
    "kernel.accepted",
    "kernel.max_atoms",
    "compile.rewritten_atoms",
    "cli.import_ms",
)
TRACE_METRICS = (
    "trace.ops",
    "trace.spans",
    "trace.untraced_ms",
    "trace.traced_ms",
    "trace.overhead_ms",
    "trace.overhead_share",
)
STATUS_METRICS = tuple(
    f"harness.status.{check}.{status}" for check in CHECK_NAMES for status in STATUSES
)


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None):
        """`name` is a span name, or a callable giving it from the call's
        arguments; `after(args, kwargs, result)` runs outside the span."""
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fixed if fixed is not None else self._id(name(*args, **kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owners, attr: str, name, after=None) -> None:
        for owner in owners:
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer has this entry point
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, after))

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap each public entry point at every place it is looked up."""
        from gasp import cli, core, harness, kernel, lowering, parser, semantics
        from gasp import compile as comp

        def after_kernel(args, kwargs, result):
            n = args[0].n
            self.counts["kernel.candidates"] += 1 << n
            self.counts["kernel.accepted"] += len(result)
            self.counts["kernel.max_atoms"] = max(self.counts["kernel.max_atoms"], n)

        def after_rewrite(args, kwargs, result):
            self.counts["compile.rewritten_atoms"] += len(result[0].atoms())

        def after_check(args, kwargs, report):
            for r in report.results:
                self.counts[f"harness.status.{r.name}.{r.status}"] += 1

        def kernel_span(lp, mode, *rest, **kw):
            return f"kernel.{MODE_NAMES[mode]}"

        self._patch([kernel], "enumerate_masks", kernel_span, after_kernel)
        self._patch([lowering], "lower", "lowering.lower")
        self._patch([semantics, harness, comp, cli], "enumerate_interpretations",
                    "semantics.enumerate_interpretations")
        self._patch([semantics, harness, cli], "completion", "semantics.completion")
        for oracle in ("is_model", "is_sflp_answer_set", "flp_reduct"):
            self._patch([harness], oracle, "semantics.oracle")
        self._patch([core.Program], "__init__", "core.program_init")
        self._patch([core, comp], "to_dnf", "core.to_dnf")
        self._patch([core, cli], "is_convex", "core.is_convex")
        for rew in ("rew_flp", "rew_sflp"):
            self._patch([comp, harness, cli], rew, "compile.rewrite", after_rewrite)
        self._patch([comp, harness], "verify_compilation", "compile.verify_compilation")
        self._patch([harness], "generate", "harness.generate")
        self._patch([harness, cli], "check_theorems", "harness.check_theorems", after_check)
        self._patch([parser, cli], "parse_program", "parser.parse_program")
        self._patch([cli], "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        spans = [
            [self.name_of[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]
        return {"names": self.names, "spans": spans, "counts": dict(self.counts)}

    def absorb(self, dump: dict) -> None:
        """Merge the spans and counters of a traced child process."""
        ids = [self._id(name) for name in dump["names"]]
        offset = len(self.start)
        for nid, start, end, parent in dump["spans"]:
            self.name_of.append(ids[nid])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
        for key, value in dump["counts"].items():
            if key == "kernel.max_atoms":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(self.dump(), handle)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Seconds of self time (span minus its child spans) and calls, by name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.name_of[i]], [0.0, 0])
            entry[0] += self.end[i] - self.start[i] - covered[i]
            entry[1] += 1
        return {name: (t, calls) for name, (t, calls) in totals.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* ones."""
        own = self.self_times()
        out: dict[str, float] = {}
        for metric, spans in TIME_METRICS.items():
            out[metric] = 1e3 * sum(own.get(s, (0.0, 0))[0] for s in spans)
        for metric, spans in CALL_METRICS.items():
            out[metric] = sum(own.get(s, (0.0, 0))[1] for s in spans)
        for metric in COUNTER_METRICS + STATUS_METRICS:
            out[metric] = self.counts.get(metric, 0)
        candidates = out["kernel.candidates"]
        out["kernel.accept_ratio"] = out["kernel.accepted"] / candidates if candidates else 0.0
        return out


PER_LAYER_METRICS = (
    tuple(TIME_METRICS) + tuple(CALL_METRICS) + COUNTER_METRICS
    + ("kernel.accept_ratio",) + STATUS_METRICS + TRACE_METRICS
)
