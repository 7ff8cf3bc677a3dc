"""Time the enumeration kernel.

Times the hot path (exhaustive candidate enumeration) on three workload
shapes: direct answer-set enumeration of a scaled non-convex program,
enumeration of a compiled rewriting, and a slice of the theorem battery
(the acceptance battery's generator settings). One more row times a wide
answer end to end, kernel plus ordering and decoding: the 3^7 models of
a 14-atom program of choice gadgets. The last row is start-up: the median
of 15 fresh `python -m gasp models corpus/p1.gasp` calls minus the median
of 15 `python -c pass` calls.
`perfbench/run.py` is the measurement of record; this is a quick look.

    python3 benchmarks/bench_kernels.py [--atoms N] [--seeds N] [--repeat N]
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import gasp
from gasp import kernel, lowering, semantics
from gasp.compile import rew_sflp
from gasp.core import Atom, CountAggregate, Program, Rule
from gasp.harness import GenConfig, check_theorems, generate
from gasp.parser import parse_program


def coordination_chain(n: int) -> Program:
    """n atoms, each derived when a 3-atom window has an uneven count;
    non-convex bodies keep the subset checks busy."""
    atoms = [Atom(f"x{i}") for i in range(n)]
    rules = []
    for i, atom in enumerate(atoms):
        window = frozenset({atoms[i], atoms[(i + 1) % n], atoms[(i + 2) % n]})
        rules.append(Rule(frozenset({atom}), CountAggregate(window, "!=", 1)))
    return Program(rules)


def choice_gadgets() -> Program:
    """Five even loops `x :- not y. y :- not x.` and two corpus-p1 gadgets,
    each on its own two atoms: 14 atoms and 3^7 models."""
    parts = []
    for k in range(7):
        x, y = f"v{2 * k:02d}", f"v{2 * k + 1:02d}"
        if k < 5:
            parts.append(f"{x} :- not {y}. {y} :- not {x}.")
        else:
            parts.append(f"{x} :- count{{{x}, {y}}} != 1. {y} :- count{{{x}, {y}}} != 1.")
    return parse_program("\n".join(parts))


def timed(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_enumeration(program: Program, mode: int, repeat: int) -> float:
    lp = lowering.lower(program)
    return timed(lambda: kernel.enumerate_masks(lp, mode), repeat)


def bench_battery(seeds: int) -> float:
    start = time.perf_counter()
    for seed in range(seeds):
        cfg = GenConfig(
            atom_count=2 + seed % 4,
            rule_count=seed % 7,
            allow_disjunctive_heads=(seed % 4 == 3),
            seed=seed,
        )
        check_theorems(generate(cfg), compile_limit=16)
    return time.perf_counter() - start


def bench_startup(calls: int = 15) -> float:
    """What gasp adds to a fresh interpreter's start-up, through a query
    whose own work takes about a millisecond."""
    src = str(Path(gasp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    p1 = str(Path(__file__).resolve().parent.parent / "corpus" / "p1.gasp")
    commands = ([sys.executable, "-m", "gasp", "models", p1], [sys.executable, "-c", "pass"])
    times = ([], [])
    for _ in range(calls):  # alternating, so that drift hits both alike
        for argv, out in zip(commands, times):
            start = time.perf_counter()
            subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
            out.append(time.perf_counter() - start)
    gasp_s, bare_s = (sorted(t)[len(t) // 2] for t in times)
    return gasp_s - bare_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--atoms", type=int, default=14, help="chain width (default 14)")
    ap.add_argument("--seeds", type=int, default=150, help="battery slice size")
    ap.add_argument("--repeat", type=int, default=3, help="best-of repetitions")
    args = ap.parse_args()

    chain = coordination_chain(args.atoms)
    compiled_p1, _ = rew_sflp(parse_program(
        "a :- count{a, b} != 1. b :- count{a, b} != 1."
    ))
    rows = [
        (label, bench_enumeration(program, mode, args.repeat))
        for label, program, mode in (
            (f"models, {args.atoms}-atom chain", chain, lowering.ENUM_MODELS),
            (f"sflp, {args.atoms}-atom chain", chain, lowering.ENUM_SFLP),
            ("flp, rewritten 2-atom program", compiled_p1, lowering.ENUM_FLP),
        )
    ]
    choice = choice_gadgets()
    models = semantics.SemanticsKind.CLASSICAL
    rows.append((
        "models + decode, 14-atom choice gadgets",
        timed(lambda: semantics.enumerate_interpretations(choice, models), args.repeat),
    ))
    rows.append((f"theorem battery, {args.seeds} programs", bench_battery(args.seeds)))
    rows.append(("start-up, `gasp models` minus `python -c pass`", bench_startup()))

    width = max(len(label) for label, _ in rows)
    print(f"{'workload':<{width}}  {'time':>10}")
    for label, seconds in rows:
        print(f"{label:<{width}}  {seconds * 1e3:>8.1f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
