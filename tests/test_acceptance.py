"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; on failures the captured lines appear in the report anyway.
"""

import hashlib
import random
import subprocess
import sys
import time

import pytest

from gasp.compile import rew_flp, rew_sflp
from gasp.core import Atom, Program, TruthTable, UnsatisfiableBody, is_convex, to_dnf
from gasp.harness import FAIL, PASS, SKIP, GenConfig, check_theorems, generate
from gasp.parser import parse_program, render
from gasp.semantics import SemanticsKind, completion, enumerate_interpretations

from conftest import CORPUS_NAMES, COMPLETION_MODELS, TABLE_EXPECTED, corpus_text, fs, src_env
from oracles import all_subsets, convex_by_triples

SEEDS = 1000

# sha256 of the battery's reports over seeds 0-999: each program's text,
# then repr((name, status, details)) of each of its results. A change that
# means to alter a report updates this value and says so in CHANGES.md.
BATTERY_DIGEST = "122c9e4fce75504947dd7ab6b7260f0fcc5140740ed7465d0221a27dbfb110ac"

TOTAL = fs("a", "b", "__aux_t_1")

REW_FLP_P1_RULES = """\
a :- __aux_t_1.
b :- __aux_t_1.
__aux_t_1 | a | b :- not __aux_f_1_0.
__aux_t_1 :- a, b, not __aux_f_1_0.
__aux_f_1_1 :- a, not __aux_t_1.
__aux_f_1_1 :- b, not __aux_t_1.
__aux_f_1_2 :- not __aux_t_1, not a.
__aux_f_1_2 :- not __aux_t_1, not b.
__aux_f_1_0 :- __aux_f_1_1, __aux_f_1_2, not __aux_t_1.
"""


def report_line(label: str, ok: bool) -> None:
    import conftest

    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_1_table_reproduction(corpus, capsys):
    from gasp import cli
    from gasp.core import format_interpretation
    from conftest import CORPUS_DIR

    start = time.perf_counter()
    mismatches = []
    for name in CORPUS_NAMES:
        for kind in SemanticsKind:
            got = set(enumerate_interpretations(corpus[name], kind))
            if got != TABLE_EXPECTED[name][kind.value]:
                mismatches.append((name, kind.value, got))
            code = cli.main([kind.value, str(CORPUS_DIR / f"{name}.gasp")])
            out, _ = capsys.readouterr()
            expected_lines = {
                format_interpretation(i) for i in TABLE_EXPECTED[name][kind.value]
            }
            if code != 0 or set(out.splitlines()) != expected_lines:
                mismatches.append((name, kind.value, "cli", out))
    duration = time.perf_counter() - start
    ok = not mismatches and duration < 1.0
    report_line("criterion 1 (model/answer-set tables, <1s)", ok)
    assert not mismatches, mismatches
    assert duration < 1.0, f"took {duration:.3f}s"


def test_criterion_2_completion_models(corpus):
    mismatches = []
    for name in CORPUS_NAMES:
        comp = completion(corpus[name])
        got = set(enumerate_interpretations(comp, SemanticsKind.CLASSICAL))
        if got != COMPLETION_MODELS[name]:
            mismatches.append((name, got))
    report_line("criterion 2 (completion models)", not mismatches)
    assert not mismatches, mismatches


def test_criterion_3_compilation_goldens(corpus):
    problems = []

    rewritten, _ = rew_flp(corpus["p1"])
    if render(rewritten) != REW_FLP_P1_RULES:
        problems.append("rew_flp(p1) text")
    if rewritten != parse_program(REW_FLP_P1_RULES, allow_reserved=True):
        problems.append("rew_flp(p1) rule set")

    expected_sets = {
        ("p1", "flp"): set(),
        ("p1", "sflp"): {TOTAL},
        ("p2", "flp"): {TOTAL},
        ("p2", "sflp"): {TOTAL},
        ("p3", "flp"): set(),
        ("p3", "sflp"): {TOTAL},
    }
    for (name, semantics), expected in expected_sets.items():
        rew = rew_flp if semantics == "flp" else rew_sflp
        program, _ = rew(corpus[name])
        got = set(enumerate_interpretations(program, SemanticsKind.FLP))
        if got != expected:
            problems.append((name, semantics, got))

    report_line("criterion 3 (compilation golden files)", not problems)
    assert not problems, problems


@pytest.fixture(scope="module")
def battery():
    """One pass of the theorem battery over the random-program corpus."""
    outcome = {
        "duration": 0.0,
        "counts": {},
        "failures": {},
    }
    digest = hashlib.sha256()
    start = time.perf_counter()
    for seed in range(SEEDS):
        cfg = GenConfig(
            atom_count=2 + seed % 4,
            rule_count=seed % 7,
            allow_disjunctive_heads=(seed % 4 == 3),
            seed=seed,
        )
        program = generate(cfg)
        report = check_theorems(program)
        digest.update(report.program_text.encode())
        for result in report.results:
            digest.update(repr((result.name, result.status, result.details)).encode())
            counts = outcome["counts"].setdefault(result.name, {PASS: 0, FAIL: 0, SKIP: 0})
            counts[result.status] += 1
            if result.status == FAIL:
                outcome["failures"].setdefault(result.name, []).append(
                    (seed, report.program_text, result.details)
                )
    outcome["duration"] = time.perf_counter() - start
    outcome["digest"] = digest.hexdigest()
    return outcome


def _battery_line(battery, check_name, label):
    counts = battery["counts"][check_name]
    failures = battery["failures"].get(check_name, [])
    report_line(label, not failures)
    assert not failures, _format_failures(failures)
    return counts


def _format_failures(failures):
    lines = [f"{len(failures)} violating programs; first three:"]
    for seed, text, details in failures[:3]:
        lines.append(f"-- seed {seed}:")
        lines.append(text.rstrip())
        lines.extend(f"   {d}" for d in details[:2])
    return "\n".join(lines)


def test_criterion_4a_flp_subset_sflp(battery):
    counts = _battery_line(battery, "flp_subset_sflp", "criterion 4a (flp subset of sflp)")
    assert counts[PASS] == SEEDS


def test_criterion_4b_convex_equivalence(battery):
    counts = _battery_line(battery, "convex_equivalence", "criterion 4b (convex implies flp = sflp)")
    assert counts[PASS] >= SEEDS // 10  # the convex branch is genuinely exercised


def test_criterion_4c_supported_equals_completion(battery):
    counts = _battery_line(
        battery, "supported_equals_completion_models",
        "criterion 4c (supported models = completion models)",
    )
    assert counts[PASS] == SEEDS


def test_criterion_4d_sflp_completion_characterization(battery):
    counts = _battery_line(
        battery, "sflp_completion_characterization",
        "criterion 4d (sflp = completion characterization)",
    )
    assert counts[PASS] == SEEDS


def test_criterion_4e_compilation_bijection_flp(battery):
    counts = _battery_line(
        battery, "compilation_bijection_flp", "criterion 4e (flp compilation bijection)"
    )
    assert counts[PASS] >= SEEDS // 4  # enough atomic-head programs in range


def test_criterion_4f_compilation_bijection_sflp(battery):
    # Passes since the sflp rewriting gained its closure rules: 776 pass,
    # 0 fail and 224 skip on the battery, whose rewritings are checked up
    # to check_theorems' default cap of 20 atoms. The two witnesses that
    # broke the bijection without them, `c :- not c.` (contraction
    # direction) and `c :- count{b, c} != 1. b :- c, not a.` (expansion
    # direction), are pinned as exact in tests/test_compile.py.
    _battery_line(
        battery, "compilation_bijection_sflp", "criterion 4f (sflp compilation bijection)"
    )


def test_battery_reports_are_pinned(battery):
    assert battery["digest"] == BATTERY_DIGEST


def test_criterion_4_runtime(battery):
    ok = battery["duration"] < 60.0
    report_line(
        f"criterion 4 runtime ({SEEDS} programs in {battery['duration']:.1f}s, <60s)", ok
    )
    assert ok


def test_criterion_5_tautology_sensitivity(corpus):
    base = corpus["p1"]
    padded = Program(list(base.rules) + list(parse_program("a :- a. b :- b.").rules))
    base_sflp = set(enumerate_interpretations(base, SemanticsKind.SFLP))
    padded_sflp = set(enumerate_interpretations(padded, SemanticsKind.SFLP))
    ok = base_sflp == {fs("a", "b")} and padded_sflp == set()
    report_line("criterion 5 (tautology sensitivity witness)", ok)
    assert base_sflp == {fs("a", "b")}
    assert padded_sflp == set()


def test_criterion_6_dnf_and_convexity_oracles(corpus):
    bodies = [r.body for name in CORPUS_NAMES for r in corpus[name].rules]
    rng = random.Random(616)
    for _ in range(500):
        width = rng.randint(1, 6)
        names = [Atom(f"x{i}") for i in range(width)]
        family = frozenset(s for s in all_subsets(names) if rng.random() < 0.5)
        bodies.append(TruthTable(frozenset(names), family))

    problems = []
    for body in bodies:
        subsets = all_subsets(body.domain)
        try:
            dnf = to_dnf(body)
        except UnsatisfiableBody:
            if any(body.eval(s) for s in subsets):
                problems.append(("unsat misreported", body))
        else:
            if len(dnf.disjuncts) != sum(1 for s in subsets if body.eval(s)):
                problems.append(("minterm count", body))
            if any(dnf.eval(s) != body.eval(s) for s in subsets):
                problems.append(("dnf equivalence", body))
        if is_convex(body) != convex_by_triples(body):
            problems.append(("convexity", body))

    report_line("criterion 6 (dnf and convexity against oracles)", not problems)
    assert not problems, problems[:3]


def test_criterion_7_round_trips(corpus):
    problems = []
    for name in CORPUS_NAMES:
        if parse_program(render(corpus[name])) != corpus[name]:
            problems.append(("corpus", name))

    for seed in range(SEEDS):
        cfg = GenConfig(
            atom_count=1 + seed % 6,
            rule_count=seed % 8,
            allow_disjunctive_heads=(seed % 2 == 0),
            seed=seed * 31 + 7,
        )
        program = generate(cfg)
        if parse_program(render(program)) != program:
            problems.append(("generated", seed))

    # compiled output reparses and re-solves identically
    for name in ("p1", "p2", "p3", "p5"):
        for rew in (rew_flp, rew_sflp):
            compiled, _ = rew(corpus[name])
            reparsed = parse_program(render(compiled), allow_reserved=True)
            if reparsed != compiled:
                problems.append(("compile reparse", name))
            before = enumerate_interpretations(compiled, SemanticsKind.FLP)
            after = enumerate_interpretations(reparsed, SemanticsKind.FLP)
            if before != after:
                problems.append(("compile re-solve", name))

    # and the same through the actual executable pipe
    compiled = subprocess.run(
        [sys.executable, "-m", "gasp", "compile", "--semantics", "sflp", "-"],
        input=corpus_text("p1"), env=src_env(), capture_output=True, text=True, check=True,
    )
    solved = subprocess.run(
        [sys.executable, "-m", "gasp", "flp", "-"],
        input=compiled.stdout, env=src_env(), capture_output=True, text=True, check=True,
    )
    if solved.stdout != "{__aux_t_1, a, b}\n":
        problems.append(("cli pipe", solved.stdout))

    report_line("criterion 7 (round-trips and pipe closure)", not problems)
    assert not problems, problems[:5]
