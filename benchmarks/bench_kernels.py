"""Time the enumeration kernel.

Times the hot path (exhaustive candidate enumeration) on four workload
shapes: the models, FLP and SFLP answer sets of a scaled non-convex
program, the FLP answer sets of 16 self-supporting loops `a :- a.`
(2^16 supported models, one answer set), enumeration of a compiled
rewriting, and a slice of the theorem battery (the acceptance battery's
generator settings). Three rows time SFLP on programs that split into
parts that share no atom, so the kernel scans each part on its own and
builds no vector over all 2^n masks: 14 loops, the 14-atom choice
gadgets, and 12 loops joined by one constraint that never fires, which
joins no part and filters the product of the parts' answers instead.
Two rows time SFLP on k loops joined into one part by the rule
`z :- count{a0, ..., a(k-1)} > k.`, whose body never holds, at 17 and 20
atoms: 2^k supported models in one global pass, where every one but the
empty set lies above a smaller mono-supported model and is dropped before
its reduct is read. One row times SFLP on 7 even loops
`x :- not y. y :- not x.` and 2 corpus-p5 gadgets joined into one part
by such a rule (19 atoms): 512 supported models and no mono-supported
one, so none is dropped, and 384 of them are blocked for FLP by a
smaller model of their reduct whose true atoms are each supported in the
program, so each of those goes through the support test of its proper
subsets (`kernel._supported`), the path no other row isolates.
Three more time the cost of scanning each distinct part once: 7 even
loops `x :- not y. y :- not x.` under `:- count{x0, ..., x6} != 1.`,
seven parts of one shape whose constraint leaves 7 of their 128
supported models, and SFLP and FLP on 7 pairwise distinct two-atom
parts, where no part repeats, so the parts' keys are paid and nothing is
saved. One row times FLP on 10 even loops over 20 atoms: 1,024
supported models, each a minimal model and an answer set, which the
split scans as one two-atom part.
Two rows sit on either side of the width above which FLP and SFLP split
(`kernel._SPLIT_FIRST`, 8 atoms): the SFLP query on 8 loops, which does
not split and tests their 2^8 supported models in one global pass, and
the one scan of 14 loops, which splits and lists the 2^14 supported
models as the product of the parts' lists.
Five more rows time queries end to end, the kernel listing in
canonical order plus decoding: the four queries (models, supported, FLP,
SFLP) on the 16-atom chain, its 91 models alone, the 3^7 models of a
14-atom program of choice gadgets, their 2^5 supported models, and the
2^16 models of 16 loops `a :- a.`, where the output, every subset of the
universe, is the whole cost. One row times
`lowering.members` alone on the 16-atom chain's models vector, 91 set
bits of 2^16. One row times the completion of the `--atoms` chain, which
builds one table per atom over the atom's local domain. One row
times `lowering.truth_vector` of a parity table over 10 of 18 atoms: a
table whose domain is not the whole universe costs its minterm DNF, and
parity is the worst case for that, 512 minterms none of which merge.
Two rows time the models and the FLP answer sets of the FLP and SFLP
rewritings, over at most 20 atoms, of the battery slice's atomic-head
programs: their `__aux` atoms sort first, so they hold the top bits.
Two rows time the supported models and the FLP and SFLP answer sets of
the battery slice's programs, lowered, enumerated and decoded: as three
queries, and as the one scan the theorem battery reads.
Each of these rows is the best of `--repeat` runs, printed in
microseconds to three significant digits. The last row is start-up: the median of 15 fresh `python -m gasp models
corpus/p1.gasp` calls minus the median of 15 `python -c pass` calls.
`perfbench/run.py` is the measurement of record; this is a quick look.

    python3 benchmarks/bench_kernels.py [--atoms N] [--seeds N] [--repeat N]
"""

import argparse
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import gasp
from gasp import kernel, lowering, semantics
from gasp.compile import rew_flp, rew_sflp
from gasp.core import DEFAULT_ATOM_LIMIT, Atom, CountAggregate, Program, Rule, TruthTable
from gasp.harness import GenConfig, check_theorems, generate
from gasp.parser import parse_program


# perfbench/workloads.py imports this function for its chain workload
# (perfbench/run.py puts this directory on sys.path): renaming it breaks
# that workload, and changing it changes what the workload measures.
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


def distinct_parts() -> Program:
    """Seven two-atom parts, no two the same program up to a renaming that
    keeps the atoms' order, over 14 atoms: the kernel's split scans each
    of them, so its part keys save nothing."""
    shapes = ("{x} :- not {y}. {y} :- not {x}.",
              "{x} :- count{{{x}, {y}}} != 1. {y} :- count{{{x}, {y}}} != 1.",
              "{x} :- {y}. {y} :- {x}.",
              "{x} :- not {y}.",
              "{y} :- not {x}.",
              "{x} :- {y}. {y} :- not {x}.",
              "{x} | {y}.")
    return parse_program(" ".join(shape.format(x=f"v{2 * k:02d}", y=f"v{2 * k + 1:02d}")
                                  for k, shape in enumerate(shapes)))


def joined_loops(k: int) -> Program:
    """k loops `a :- a.` joined into one part by a rule over all of them
    whose body never holds: k + 1 atoms, one SFLP answer set (the empty
    set)."""
    every = ", ".join(f"a{i}" for i in range(k))
    return parse_program(" ".join(f"a{i} :- a{i}." for i in range(k))
                         + f" z :- count{{{every}}} > {k}.")


def sparse_parity_table(width: int, universe: int) -> tuple[TruthTable, dict[Atom, int]]:
    """The odd-sized subsets of `width` atoms spread over a universe of
    `universe` atoms, and the universe's bit positions."""
    atoms = [Atom(f"w{i:02d}") for i in range(universe)]
    domain = [atoms[i * (universe - 1) // (width - 1)] for i in range(width)]
    odd = [frozenset(a for i, a in enumerate(domain) if m >> i & 1)
           for m in range(1 << width) if m.bit_count() % 2]
    return TruthTable(domain, odd), {a: i for i, a in enumerate(atoms)}


def timed(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def significant(us: float) -> str:
    """`us` to three significant digits, with no exponent."""
    if us <= 0:
        return "0"
    rounded = float(f"{us:.3g}")
    return f"{rounded:.{max(0, 2 - math.floor(math.log10(rounded)))}f}"


def bench_enumeration(program: Program, mode: int, repeat: int) -> float:
    lp = lowering.lower(program)
    return timed(lambda: kernel.enumerate_masks(lp, mode), repeat)


def battery_program(seed: int) -> Program:
    return generate(GenConfig(
        atom_count=2 + seed % 4,
        rule_count=seed % 7,
        allow_disjunctive_heads=(seed % 4 == 3),
        seed=seed,
    ))


def run_battery(seeds: int) -> None:
    for seed in range(seeds):
        check_theorems(battery_program(seed), compile_limit=16)


def battery_rewritings(seeds: int) -> list[lowering.LoweredProgram]:
    """The FLP and SFLP rewritings of the atomic-head programs among the
    first `seeds` of the battery, lowered, where they span at most
    DEFAULT_ATOM_LIMIT atoms."""
    out = []
    for seed in range(seeds):
        program = battery_program(seed)
        if any(len(r.head) > 1 for r in program.rules):
            continue
        for rewrite in (rew_flp, rew_sflp):
            rewritten, _ = rewrite(program)
            if len(rewritten.atoms()) <= DEFAULT_ATOM_LIMIT:
                out.append(lowering.lower(rewritten))
    return out


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
    loops = parse_program(" ".join(f"a{i} :- a{i}." for i in range(16)))
    loops14 = parse_program(" ".join(f"a{i} :- a{i}." for i in range(14)))
    loops8 = parse_program(" ".join(f"a{i} :- a{i}." for i in range(8)))
    joined = parse_program(" ".join(f"a{i} :- a{i}." for i in range(12))
                           + " :- count{" + ", ".join(f"a{i}" for i in range(12)) + "} > 12.")
    choice = choice_gadgets()
    one_of_seven = parse_program(" ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(7))
                                 + " :- count{" + ", ".join(f"x{i}" for i in range(7)) + "} != 1.")
    even_loops10 = parse_program(" ".join(f"x{i} :- not y{i}. y{i} :- not x{i}."
                                          for i in range(10)))
    gadget_atoms = [f"{v}{i}" for i in range(7) for v in "xy"] + ["a0", "b0", "a1", "b1"]
    joined_gadgets = parse_program(
        " ".join(f"x{i} :- not y{i}. y{i} :- not x{i}." for i in range(7))
        + " ".join(f" a{i} :- count{{a{i}, b{i}}} != 1. b{i} :- count{{a{i}, b{i}}} != 1."
                   f" a{i} :- not b{i}." for i in range(2))
        + f" z :- count{{{', '.join(gadget_atoms)}}} > 18.")
    compiled_p1, _ = rew_sflp(parse_program(
        "a :- count{a, b} != 1. b :- count{a, b} != 1."
    ))
    rows = [
        (label, bench_enumeration(program, mode, args.repeat))
        for label, program, mode in (
            (f"models, {args.atoms}-atom chain", chain, lowering.ENUM_MODELS),
            (f"flp, {args.atoms}-atom chain", chain, lowering.ENUM_FLP),
            (f"sflp, {args.atoms}-atom chain", chain, lowering.ENUM_SFLP),
            ("flp, 16 self-supporting loops", loops, lowering.ENUM_FLP),
            ("sflp, 14 self-supporting loops", loops14, lowering.ENUM_SFLP),
            ("sflp, 8 self-supporting loops", loops8, lowering.ENUM_SFLP),
            ("sflp, 12 loops joined by one constraint", joined, lowering.ENUM_SFLP),
            ("sflp, 16 loops joined by one rule (17 atoms)", joined_loops(16), lowering.ENUM_SFLP),
            ("sflp, 19 loops joined by one rule (20 atoms)", joined_loops(19), lowering.ENUM_SFLP),
            ("sflp, 7 even loops and 2 p5 gadgets joined by one rule (19 atoms)",
             joined_gadgets, lowering.ENUM_SFLP),
            ("sflp, 14-atom choice gadgets", choice, lowering.ENUM_SFLP),
            ("sflp, 7 even loops under exactly one x", one_of_seven, lowering.ENUM_SFLP),
            ("sflp, 7 pairwise distinct two-atom parts", distinct_parts(), lowering.ENUM_SFLP),
            ("flp, 7 pairwise distinct two-atom parts", distinct_parts(), lowering.ENUM_FLP),
            ("flp, 10 even loops (20 atoms)", even_loops10, lowering.ENUM_FLP),
            ("flp, rewritten 2-atom program", compiled_p1, lowering.ENUM_FLP),
        )
    ]
    lowered14 = lowering.lower(loops14)
    rows.append(("one scan, 14 self-supporting loops",
                 timed(lambda: kernel.scan(lowered14), args.repeat)))
    chain16 = coordination_chain(16)
    rows.append((
        "four queries, 16-atom chain",
        timed(lambda: [semantics.enumerate_interpretations(chain16, kind)
                       for kind in semantics.SemanticsKind], args.repeat),
    ))
    models = semantics.SemanticsKind.CLASSICAL
    supported = semantics.SemanticsKind.SUPPORTED
    rows.append((
        "models + decode, 16-atom chain",
        timed(lambda: semantics.enumerate_interpretations(chain16, models), args.repeat),
    ))
    rows.append((
        "models + decode, 14-atom choice gadgets",
        timed(lambda: semantics.enumerate_interpretations(choice, models), args.repeat),
    ))
    rows.append((
        "models + decode, 16 self-supporting loops",
        timed(lambda: semantics.enumerate_interpretations(loops, models), args.repeat),
    ))
    rows.append((
        "supported + decode, 14-atom choice gadgets",
        timed(lambda: semantics.enumerate_interpretations(choice, supported), args.repeat),
    ))
    chain_models = kernel.enumerate_masks(lowering.lower(chain16), lowering.ENUM_MODELS)
    vector = sum(1 << m for m in chain_models)
    rows.append((
        f"members, {len(chain_models)} of 2^16 bits",
        timed(lambda: lowering.members(vector), args.repeat),
    ))
    rows.append((
        f"completion, {args.atoms}-atom chain",
        timed(lambda: semantics.completion(chain), args.repeat),
    ))
    table, index = sparse_parity_table(10, 18)
    rows.append((
        "truth_vector, parity table over 10 of 18 atoms",
        timed(lambda: lowering.truth_vector(table, index, 18), args.repeat),
    ))
    rewritings = battery_rewritings(args.seeds)
    for label, mode in (("models", lowering.ENUM_MODELS), ("flp", lowering.ENUM_FLP)):
        rows.append((
            f"{label}, {len(rewritings)} rewritings of the battery slice",
            timed(lambda: [kernel.enumerate_masks(lp, mode) for lp in rewritings], args.repeat),
        ))
    battery_slice = [battery_program(seed) for seed in range(args.seeds)]
    kinds = (semantics.SemanticsKind.SUPPORTED, semantics.SemanticsKind.FLP,
             semantics.SemanticsKind.SFLP)
    rows.append((
        f"supported + flp + sflp, {args.seeds} programs, three queries",
        timed(lambda: [semantics.enumerate_interpretations(p, kind)
                       for p in battery_slice for kind in kinds], args.repeat),
    ))
    rows.append((
        f"supported + flp + sflp, {args.seeds} programs, one scan",
        timed(lambda: [semantics.enumerate_candidates(p) for p in battery_slice], args.repeat),
    ))
    rows.append((
        f"theorem battery, {args.seeds} programs",
        timed(lambda: run_battery(args.seeds), args.repeat),
    ))
    rows.append(("start-up, `gasp models` minus `python -c pass`", bench_startup()))

    width = max(len(label) for label, _ in rows)
    print(f"{'workload':<{width}}  {'time':>10}")
    for label, seconds in rows:
        print(f"{label:<{width}}  {significant(seconds * 1e6):>8}us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
