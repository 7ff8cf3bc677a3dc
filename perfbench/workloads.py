"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (what
`setup_s` times), yields its operations in units (`units`), runs one
operation at a time (`run`), and checks the outputs afterwards (`check`)
against references that do not come from the kernel: the AST predicates
of `gasp.semantics`, or closed forms cross-checked against them.

gasp is always called through module attributes, so that the wrappers the
traced run installs see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from time import perf_counter

from bench_kernels import coordination_chain
from cli_child import MARK
from gasp import compile as comp
from gasp import harness, parser, semantics
from gasp.core import Atom, CountAggregate, GaspError, Program, Rule, TooManyAtoms
from gasp.semantics import SemanticsKind

KINDS = tuple(SemanticsKind)
PASS, FAIL, SKIP = "pass", "fail", "skip"
# A rewriting of at most this many atoms is enumerated by the AST
# predicates to derive a compilation check's status; larger ones cost
# seconds each.
REWRITE_REF_ATOMS = 12


@dataclass
class Sample:
    """One timed operation: its latency, the per-semantics query times it
    contributes to `<kind>_ms`, and whatever `check` needs."""

    item: object
    op_ms: float
    kind_ms: dict[str, float]
    value: object
    rss_kb: int = 0
    error: str | None = None  # the exception the operation raised, if any


def _ms_since(start: float) -> float:
    return (perf_counter() - start) * 1e3


# -- references ----------------------------------------------------------


def all_subsets(atoms) -> list[frozenset[Atom]]:
    items = sorted(atoms)
    return [frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)]


def canonical(sets) -> tuple[frozenset[Atom], ...]:
    return tuple(sorted(sets, key=lambda i: tuple(sorted(a.name for a in i))))


def show(interpretation) -> str:
    return "{" + ", ".join(sorted(a.name for a in interpretation)) + "}"


def sets_from_models(models, program: Program) -> dict[SemanticsKind, tuple]:
    """The four semantics, filtering the models with the AST predicates."""
    return {
        SemanticsKind.CLASSICAL: canonical(models),
        SemanticsKind.SUPPORTED: canonical(
            i for i in models if semantics.is_supported_model(i, program)),
        SemanticsKind.FLP: canonical(
            i for i in models if semantics.is_flp_answer_set(i, program)),
        SemanticsKind.SFLP: canonical(
            i for i in models if semantics.is_sflp_answer_set(i, program)),
    }


def ast_sets(program: Program) -> dict[SemanticsKind, tuple]:
    """All four semantics by the AST predicates over every subset of atoms(P)."""
    models = [i for i in all_subsets(program.atoms()) if semantics.is_model(i, program)]
    return sets_from_models(models, program)


def convex_by_definition(body) -> bool:
    """No false subset strictly between two true subsets of the domain."""
    subsets = all_subsets(body.domain)
    true = [s for s in subsets if body.eval(s)]
    return not any(
        lo < mid < hi and not body.eval(mid)
        for lo in true for hi in true if lo < hi for mid in subsets
    )


def compilation_statuses(program: Program, kind: SemanticsKind, source, compile_limit: int) -> set[str]:
    """The statuses `check_theorems`' compilation check may report for
    `kind`, derived without the kernel.

    A rewriting over `compile_limit` atoms is skipped. One of at most
    REWRITE_REF_ATOMS atoms is enumerated by the AST predicates, and the
    status follows from the conditions `verify_compilation` checks, with
    `source` (the AST answer sets of the program) on the other side. Over
    that size the FLP rewriting must PASS (it is exact), and the SFLP one
    may PASS or FAIL (it is known not to be exact, acceptance criterion
    4f); neither may skip.
    """
    if any(a.is_reserved for a in program.atoms()) or any(len(r.head) > 1 for r in program.rules):
        return {SKIP}
    rew = comp.rew_flp if kind is SemanticsKind.FLP else comp.rew_sflp
    try:
        rewritten, cmap = rew(program)
    except TooManyAtoms:
        return {SKIP}
    n = len(rewritten.atoms())
    if n > compile_limit:
        return {SKIP}
    if n > REWRITE_REF_ATOMS:
        return {PASS} if kind is SemanticsKind.FLP else {PASS, FAIL}
    compiled = {j for j in all_subsets(rewritten.atoms()) if semantics.is_flp_answer_set(j, rewritten)}
    expanded = {i: comp.expansion(i, program, cmap) for i in source}
    exact = (
        all(e in compiled for e in expanded.values())
        and all(expanded.get(comp.contraction(j, program)) == j for j in compiled)
        and len(set(expanded.values())) == len(expanded) == len(compiled)
    )
    return {PASS} if exact else {FAIL}


def expected_statuses(program: Program, ref: dict, compile_limit: int) -> dict[str, set[str]]:
    """The statuses `check_theorems` may report, derived from the AST sets.

    Compilation FAILs are allowed where the AST sets show them: the SFLP
    rewriting is known not to be exact (acceptance criterion 4f), and such
    FAILs are tallied, not hidden.
    """
    flp, sflp = set(ref[SemanticsKind.FLP]), set(ref[SemanticsKind.SFLP])
    exp = {"flp_subset_sflp": {PASS if flp <= sflp else FAIL}}
    convex = all(convex_by_definition(r.body) for r in program.rules)
    exp["convex_equivalence"] = {PASS if flp == sflp else FAIL} if convex else {SKIP}
    if len(program.atoms()) > 12:  # check_theorems' exhaustive_limit
        exp["supported_equals_completion_models"] = {SKIP}
        exp["sflp_completion_characterization"] = {SKIP}
    else:
        completed = semantics.completion(program)
        comp_models = {
            i for i in all_subsets(program.atoms()) if semantics.is_model(i, completed)
        }
        same = comp_models == set(ref[SemanticsKind.SUPPORTED])
        exp["supported_equals_completion_models"] = {PASS if same else FAIL}
        exp["sflp_completion_characterization"] = {PASS}
    for kind in (SemanticsKind.FLP, SemanticsKind.SFLP):
        exp[f"compilation_bijection_{kind.value}"] = compilation_statuses(
            program, kind, ref[kind], compile_limit)
    return exp


def check_report(report, expected: dict[str, set[str]]) -> str | None:
    names = [r.name for r in report.results]
    if names != list(expected):
        return f"checks {names} differ from {list(expected)}"
    for r in report.results:
        if r.status not in expected[r.name]:
            return f"{r.name} is {r.status}, expected one of {sorted(expected[r.name])}"
    return None


# -- battery -------------------------------------------------------------


class Battery:
    """check_theorems over the first PROGRAMS programs of the acceptance
    battery's generator sequence, one program per operation.

    The seed only rotates the order (the cycle starts at seed mod
    PROGRAMS): a window of the sequence that starts at the seed would hold
    other programs for every seed, and their cost varies so much (single
    programs take from 1 ms to 3 s) that 112-program windows differ by
    about 50% in programs per second.
    """

    name = "battery"
    PROGRAMS = 4 * 28  # whole cycles of the generator's atom (4) and rule (7) counts
    COMPILE_LIMIT = 16
    samples_per_op = 1
    min_ops = PROGRAMS
    traced_units = 1
    QUERY_REPEATS = 5  # a query on these programs takes tens of microseconds

    def __init__(self, root: Path, seed: int):
        self.order = [(seed + i) % self.PROGRAMS for i in range(self.PROGRAMS)]

    def units(self):
        while True:
            yield self.order

    def run(self, s: int, tracer=None) -> Sample:
        cfg = harness.GenConfig(
            atom_count=2 + s % 4,
            rule_count=s % 7,
            allow_disjunctive_heads=(s % 4 == 3),
            seed=s,
        )
        start = perf_counter()
        program = harness.generate(cfg)
        report = harness.check_theorems(program, compile_limit=self.COMPILE_LIMIT)
        op_ms = _ms_since(start)
        if tracer is not None:
            # the per-layer metrics describe generate + check_theorems only
            return Sample(s, op_ms, {}, (program, report, None))
        kind_ms, found = {}, {}
        for kind in KINDS:
            start = perf_counter()
            for _ in range(self.QUERY_REPEATS):
                found[kind] = semantics.enumerate_interpretations(program, kind)
            kind_ms[kind.value] = _ms_since(start) / self.QUERY_REPEATS
        return Sample(s, op_ms, kind_ms, (program, report, found))

    def check(self, samples: list[Sample]) -> list[tuple[int, str]]:
        problems = []
        refs = {}  # a run checks each program several times
        for idx, smp in enumerate(samples):
            program, report, found = smp.value
            if smp.item not in refs:
                ref = ast_sets(program)
                refs[smp.item] = ref, expected_statuses(program, ref, self.COMPILE_LIMIT)
            ref, expected = refs[smp.item]
            for kind in KINDS if found is not None else ():
                if found[kind] != ref[kind]:
                    problems.append((idx, f"seed {smp.item}: {kind.value} differs from the AST sets"))
            trouble = check_report(report, expected)
            if trouble:
                problems.append((idx, f"seed {smp.item}: {trouble}"))
        return problems

    def notes(self, samples: list[Sample]) -> list[str]:
        tally = {}
        failing = 0
        for smp in samples:
            report = smp.value[1]
            failing += not report.ok
            for r in report.results:
                tally.setdefault(r.name, {PASS: 0, FAIL: 0, SKIP: 0})[r.status] += 1
        lines = [
            f"theorem_fail_share {failing / len(samples):.4f} ratio "
            f"({failing} of {len(samples)} programs have a theorem FAIL)"
        ]
        for name, c in tally.items():
            lines.append(f"status {name} pass={c[PASS]} fail={c[FAIL]} skip={c[SKIP]}")
        return lines


# -- chain and choice ----------------------------------------------------


class _Queries:
    """Rounds of the four enumeration queries on one program, in a seeded
    order. A query is one sample; a round of four is one operation."""

    samples_per_op = len(KINDS)
    min_ops = 2 * len(KINDS)
    traced_units = 5
    program: Program
    rng: random.Random

    def __init__(self) -> None:
        self._answers: dict[SemanticsKind, tuple] = {}

    def units(self):
        while True:
            order = list(KINDS)
            self.rng.shuffle(order)
            yield order

    def run(self, kind: SemanticsKind, tracer=None) -> Sample:
        start = perf_counter()
        found = semantics.enumerate_interpretations(self.program, kind)
        ms = _ms_since(start)
        # keep one copy of each distinct answer, so that memory does not
        # grow with the number of operations a run makes
        first = self._answers.setdefault(kind, found)
        return Sample(kind, ms, {kind.value: ms}, first if found == first else found)

    def check(self, samples: list[Sample]) -> list[tuple[int, str]]:
        ref, problems = self.reference()
        out = [(-1, p) for p in problems]
        for idx, smp in enumerate(samples):
            if smp.value != ref[smp.item]:
                out.append((idx, f"{smp.item.value}: {len(smp.value)} sets differ from the reference"))
        return out

    def notes(self, samples: list[Sample]) -> list[str]:
        sizes = {smp.item.value: len(smp.value) for smp in samples}
        return ["answers " + " ".join(f"{k}={v}" for k, v in sizes.items())]


def chain_models(n: int) -> list[list[int]]:
    """Closed form for the models of coordination_chain(n): x_i may be
    false only when exactly one of x_{i+1}, x_{i+2} is true (indices mod n).
    Returns the true indices of each model."""
    out = []

    def holds(bits, i):
        return bits[i] or bits[(i + 1) % n] != bits[(i + 2) % n]

    def extend(bits):
        j = len(bits)
        if j >= 3 and not holds(bits, j - 3):
            return
        if j == n:
            if holds(bits, n - 2) and holds(bits, n - 1):
                out.append([i for i in range(n) if bits[i]])
            return
        for b in (False, True):
            extend(bits + [b])

    extend([])
    return out


class Chain(_Queries):
    """The four queries on coordination_chain(16), its atoms renamed by a
    seeded permutation.

    At width 18 a pure-kernel query takes about 2 s, which leaves two or
    three samples per query in a run; width 16 leaves a dozen and still
    has few models (91), so the candidate filter does the work.
    """

    name = "chain"
    WIDTH = 16

    def __init__(self, root: Path, seed: int):
        super().__init__()
        self.rng = random.Random(seed)
        names = [f"x{i}" for i in range(self.WIDTH)]
        self.rng.shuffle(names)
        self.atoms = [Atom(n) for n in names]  # atoms[i] plays x_i
        rename = {Atom(f"x{i}"): a for i, a in enumerate(self.atoms)}
        self.program = Program(
            Rule(
                frozenset(rename[a] for a in r.head),
                CountAggregate(frozenset(rename[a] for a in r.body.atoms),
                               r.body.comparator, r.body.bound),
            )
            for r in coordination_chain(self.WIDTH).rules
        )

    def reference(self):
        problems = []
        small = 9  # the closed form against the AST predicates, exhaustively
        small_prog = coordination_chain(small)
        closed = {frozenset(Atom(f"x{i}") for i in m) for m in chain_models(small)}
        brute = {i for i in all_subsets(small_prog.atoms()) if semantics.is_model(i, small_prog)}
        if closed != brute:
            problems.append(f"closed-form chain models disagree with is_model at width {small}")
        models = [frozenset(self.atoms[i] for i in m) for m in chain_models(self.WIDTH)]
        if not all(semantics.is_model(i, self.program) for i in models):
            problems.append("a closed-form chain model fails is_model")
        ref = sets_from_models(models, self.program)
        return ref, problems


class Choice(_Queries):
    """The four queries on 5 even-loop pairs plus 2 corpus-p1 gadgets over
    14 seeded atom names: 3^7 models, 2^5 SFLP and no FLP answer sets.

    With 6 pairs (16 atoms) the FLP query alone takes about 6 s on the
    pure kernel, which leaves two or three samples per query in a run.
    """

    name = "choice"
    PAIRS, GADGETS = 5, 2

    def __init__(self, root: Path, seed: int):
        super().__init__()
        self.rng = random.Random(seed)
        names = [f"v{i:02d}" for i in range(2 * (self.PAIRS + self.GADGETS))]
        self.rng.shuffle(names)
        self.parts = []
        for k in range(self.PAIRS + self.GADGETS):
            x, y = names[2 * k], names[2 * k + 1]
            if k < self.PAIRS:
                self.parts.append(f"{x} :- not {y}. {y} :- not {x}.\n")
            else:
                self.parts.append(f"{x} :- count{{{x}, {y}}} != 1. {y} :- count{{{x}, {y}}} != 1.\n")
        self.program = parser.parse_program("".join(self.parts))

    def reference(self):
        # The parts share no atoms, so each semantics is the product of the
        # parts' AST sets; the whole-program predicates re-check the product.
        per_part = [ast_sets(parser.parse_program(text)) for text in self.parts]
        ref = {
            kind: canonical(frozenset().union(*combo) for combo in product(*(p[kind] for p in per_part)))
            for kind in KINDS
        }
        problems = []
        sizes = {kind: len(ref[kind]) for kind in KINDS}
        want = {SemanticsKind.CLASSICAL: 3 ** (self.PAIRS + self.GADGETS),
                SemanticsKind.SUPPORTED: 2 ** self.PAIRS,
                SemanticsKind.FLP: 0, SemanticsKind.SFLP: 2 ** self.PAIRS}
        if sizes != want:
            problems.append(f"choice reference sizes {sizes} are not the closed form {want}")
        P = self.program
        checks = ((SemanticsKind.CLASSICAL, semantics.is_model),
                  (SemanticsKind.SUPPORTED, semantics.is_supported_model),
                  (SemanticsKind.SFLP, semantics.is_sflp_answer_set))
        for kind, predicate in checks:
            if not all(predicate(i, P) for i in ref[kind]):
                problems.append(f"a {kind.value} set of the product fails its AST predicate")
        return ref, problems


# -- cli -----------------------------------------------------------------


class Cli:
    """`python -m gasp <command> corpus/pN.gasp`, one fresh process per
    operation and one at a time, in a seeded order per round."""

    name = "cli"
    COMMANDS = ("models", "supported", "flp", "sflp", "completion", "convexity", "compile", "verify")
    FILES = ("p1", "p2", "p3", "p4", "p5")
    samples_per_op = 1
    min_ops = 3 * len(COMMANDS) * len(FILES)
    traced_units = 1

    def __init__(self, root: Path, seed: int):
        from gasp import cli  # noqa: F401  what every invocation imports

        self.root = root
        self.rng = random.Random(seed)
        self.texts = {f: (root / "corpus" / f"{f}.gasp").read_text(encoding="utf-8") for f in self.FILES}
        path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def units(self):
        while True:
            items = [(c, f) for c in self.COMMANDS for f in self.FILES]
            self.rng.shuffle(items)
            yield items

    def run(self, item, tracer=None) -> Sample:
        cmd, f = item
        args = [cmd, f"corpus/{f}.gasp"]
        kind_ms = {}
        if tracer is None:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "gasp", *args], cwd=self.root,
                                    env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            out = proc.stdout.read()  # outputs are a few lines, far below a pipe buffer
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            ms = _ms_since(start)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
            rss = usage.ru_maxrss
        else:
            child = str(Path(__file__).with_name("cli_child.py"))
            start = perf_counter()
            proc = subprocess.run([sys.executable, child, *args], cwd=self.root, env=self.env,
                                  capture_output=True)
            ms = _ms_since(start)
            out, err, rss = proc.stdout, proc.stderr, 0
            head, _, last = err.rstrip(b"\n").rpartition(b"\n")
            if last.startswith(MARK.encode()):
                tracer.absorb(json.loads(last[len(MARK):]))
                err = head + b"\n" if head else b""
        if cmd in (k.value for k in KINDS):
            kind_ms[cmd] = ms
        value = (proc.returncode, out.decode(), err.decode())
        return Sample(item, ms, kind_ms, value, rss_kb=rss)

    def check(self, samples: list[Sample]) -> list[tuple[int, str]]:
        programs = {f: parser.parse_program(t) for f, t in self.texts.items()}
        refs = {f: ast_sets(p) for f, p in programs.items()}
        verdicts = {}
        problems = []
        for idx, smp in enumerate(samples):
            cmd, f = smp.item
            key = (cmd, f) + smp.value
            if key not in verdicts:
                try:
                    verdicts[key] = self._verdict(cmd, programs[f], refs[f], *smp.value)
                except (GaspError, ValueError, IndexError) as exc:  # output not in the expected form
                    verdicts[key] = f"unreadable output: {exc}"
            if verdicts[key]:
                problems.append((idx, f"{cmd} {f}: {verdicts[key]}"))
        return problems

    def notes(self, samples: list[Sample]) -> list[str]:
        codes = {}
        for smp in samples:
            codes[smp.value[0]] = codes.get(smp.value[0], 0) + 1
        return ["exit codes " + " ".join(f"{c}:{n}" for c, n in sorted(codes.items()))]

    @staticmethod
    def _verdict(cmd, program, ref, code, out, err) -> str | None:
        """None when the invocation's exit code and output are right."""
        if cmd == "compile" and any(len(r.head) > 1 for r in program.rules):
            ok = code == 2 and "disjunctive head" in err
            return None if ok else f"expected exit 2 for a disjunctive head, got {code}"
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        kinds = {k.value: k for k in KINDS}
        universe = all_subsets(program.atoms())
        if cmd in kinds:
            expected = "".join(show(i) + "\n" for i in ref[kinds[cmd]])
            return None if out == expected else "answer sets differ from the AST sets"
        if cmd == "completion":
            completed = parser.parse_program(out)
            got = {i for i in universe if semantics.is_model(i, completed)}
            same = got == set(ref[SemanticsKind.SUPPORTED])
            return None if same else "completion models differ from the supported models"
        if cmd == "convexity":
            verdicts = [convex_by_definition(r.body) for r in program.rules]
            lines = out.splitlines()
            words = [line.split()[2] for line in lines[:-1]]
            expected = ["convex" if v else "non-convex" for v in verdicts]
            last = f"program: {'convex' if all(verdicts) else 'non-convex'}"
            return None if words == expected and lines[-1] == last else "convexity verdicts differ"
        if cmd == "compile":
            rewritten = parser.parse_program(out, allow_reserved=True)
            compiled = ast_sets(rewritten)[SemanticsKind.FLP]
            back = {comp.contraction(j, program) for j in compiled}
            ok = len(back) == len(compiled) and back == set(ref[SemanticsKind.FLP])
            return None if ok else "the rewriting's FLP answer sets do not contract to the source's"
        expected = expected_statuses(program, ref, compile_limit=18)  # check_theorems' default
        rows = [line.split() for line in out.splitlines()]
        ok = [r[0] for r in rows] == list(expected) and all(
            len(r) == 2 and r[1] in expected[r[0]] - {FAIL} for r in rows
        )
        return None if ok else "verify statuses differ from the AST-derived ones"


WORKLOADS = {w.name: w for w in (Battery, Chain, Choice, Cli)}
