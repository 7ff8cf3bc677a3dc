"""Command-line front end.

Subcommands: models, supported, flp, sflp (enumeration), completion,
convexity, compile, verify. Input is a `.gasp` file or `-` for stdin.
Exit codes: 0 success (an empty enumeration is success), 2 bad input (an
unreadable file, a parse or validation error, an invalid argument or
GASP_LIMIT), 3 atom limit exceeded, 4 a theorem check failed. Any other
error is a bug in gasp and surfaces with its traceback.

Each command loads only what it runs: every command loads the parser, the
semantics and the kernel; only compile loads `gasp.compile`, only verify
`gasp.harness`, and only JSON output `json`. Those imports sit inside the
commands, which look the functions up on the module at call time. The AST
values are immutable slotted records (`core.Record`), whose classes cost
no code generation at import.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .core import (
    DEFAULT_ATOM_LIMIT,
    DisjunctiveHead,
    GaspError,
    TooManyAtoms,
    format_interpretation,
)
from .lowering import is_convex
from .parser import (
    ParseError,
    SourceProgram,
    parse_program,
    render,
    render_body,
    render_rule,
)
from .semantics import (
    SemanticsKind,
    completion,
    enumerate_interpretations,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_VIOLATION = 4

# the defaults of `verify --random`'s options, which a program file rejects
_RANDOM_DEFAULTS = {"seeds": 200, "atoms": 4, "rules": 4}


class InputError(GaspError):
    """An unreadable input file or an invalid argument or environment value."""


def _print_json(payload) -> None:
    import json  # only JSON output needs it

    print(json.dumps(payload))


def _limit(args) -> int:
    """The atom cap: --limit, else GASP_LIMIT, else the default."""
    if args.limit is not None:
        value, origin = args.limit, "--limit"
    else:
        env = os.environ.get("GASP_LIMIT")
        if not env:
            return DEFAULT_ATOM_LIMIT
        try:
            value, origin = int(env), "GASP_LIMIT"
        except ValueError as exc:
            raise InputError(f"GASP_LIMIT must be an integer, not {env!r}") from exc
    if value < 0:
        raise InputError(f"{origin} must not be negative, got {value}")
    return value


def _read_source(path: str) -> SourceProgram:
    try:
        if path == "-":
            return SourceProgram(sys.stdin.read(), "<stdin>")
        with open(path, "r", encoding="utf-8") as handle:
            return SourceProgram(handle.read(), path)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gasp",
        description="FLP and SFLP semantics for programs with generalized atoms",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="program file, or - for stdin")
        p.add_argument("--limit", type=int, default=None,
                       help="atom cap for exhaustive operations (default 20, env GASP_LIMIT)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    for name in ("models", "supported", "flp", "sflp"):
        common(sub.add_parser(name, help=f"enumerate the {name} of a program"))
    common(sub.add_parser("completion", help="print the completion of a program"))
    common(sub.add_parser("convexity", help="report per-rule and program convexity"))

    comp = sub.add_parser("compile", help="rewrite to an aggregate-free program")
    common(comp)
    comp.add_argument("--semantics", choices=("flp", "sflp"), default="flp")
    comp.add_argument("--rewrite-all", action="store_true",
                      help="also rewrite bodies equivalent to a single literal")

    ver = sub.add_parser("verify", help="run the theorem checks")
    ver.add_argument("input", nargs="?", help="program file, or - for stdin")
    ver.add_argument("--limit", type=int, default=None)
    ver.add_argument("--random", action="store_true", help="check generated programs")
    for flag, what in (("seeds", "number of random programs"),
                       ("atoms", "atoms per random program"),
                       ("rules", "rules per random program")):
        ver.add_argument(f"--{flag}", type=int, help=f"{what} (default {_RANDOM_DEFAULTS[flag]})")
    return top


def _run_enumeration(args, kind: SemanticsKind) -> int:
    program = parse_program(_read_source(args.input), allow_reserved=True)
    limit = _limit(args)
    found = enumerate_interpretations(program, kind, limit)
    if args.json:
        payload = {
            "semantics": kind.value,
            "atoms": [a.name for a in sorted(program.atoms())],
            "answer_sets": [[a.name for a in sorted(i)] for i in found],
        }
        _print_json(payload)
    else:
        for interpretation in found:
            print(format_interpretation(interpretation))
    return EXIT_OK


def _run_completion(args) -> int:
    program = parse_program(_read_source(args.input), allow_reserved=True)
    limit = _limit(args)
    completed = completion(program, limit)
    if args.json:
        _print_json({"rules": [render_rule(r) for r in completed.rules]})
    else:
        sys.stdout.write(render(completed))
    return EXIT_OK


def _run_convexity(args) -> int:
    program = parse_program(_read_source(args.input), allow_reserved=True)
    limit = _limit(args)
    verdicts = [(render_rule(r), is_convex(r.body, limit)) for r in program.rules]
    overall = all(v for _, v in verdicts)
    if args.json:
        _print_json({
            "rules": [{"rule": text, "convex": v} for text, v in verdicts],
            "program_convex": overall,
        })
    else:
        for i, (text, v) in enumerate(verdicts, start=1):
            print(f"rule {i}: {'convex' if v else 'non-convex'}  {text}")
        print(f"program: {'convex' if overall else 'non-convex'}")
    return EXIT_OK


def _run_compile(args) -> int:
    from . import compile as comp

    program = parse_program(_read_source(args.input))
    limit = _limit(args)
    rewrite = comp.rew_sflp if args.semantics == "sflp" else comp.rew_flp
    rewritten, cmap = rewrite(program, rewrite_all=args.rewrite_all, max_domain=limit)
    if args.json:
        payload = {
            "semantics": args.semantics,
            "rules": [render_rule(r) for r in rewritten.rules],
            "aux_map": [
                {
                    "body": render_body(canonical),
                    "t": names.t.name,
                    "f": [a.name for a in names.f],
                }
                for canonical, names in cmap.items()
            ],
        }
        _print_json(payload)
    else:
        sys.stdout.write(render(rewritten))
    return EXIT_OK


def _print_report(report) -> None:
    """Print a `harness.TheoremReport`, one line per check."""
    from . import harness

    for result in report.results:
        print(f"{result.name:<40} {result.status}")
        if result.status == harness.FAIL:
            for line in result.details:
                print(f"    {line}")


def _run_verify(args) -> int:
    from . import harness

    limit = _limit(args)
    given = ["--random"] if args.random else []
    given += [f"--{k}" for k in _RANDOM_DEFAULTS if getattr(args, k) is not None]
    if args.input and given:
        raise InputError(f"verify takes a program file or {', '.join(given)}, not both")
    if not args.random:
        if not args.input:
            raise InputError("verify needs a program file or --random")
        program = parse_program(_read_source(args.input), allow_reserved=True)
        report = harness.check_theorems(program, limit)
        _print_report(report)
        return EXIT_VIOLATION if not report.ok else EXIT_OK
    for k, default in _RANDOM_DEFAULTS.items():
        if getattr(args, k) is None:
            setattr(args, k, default)
    if args.seeds < 0:
        raise InputError(f"--seeds must not be negative, got {args.seeds}")
    try:  # the sizes are checked before the first program, even when there is none
        harness.GenConfig(atom_count=args.atoms, rule_count=args.rules)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    counts = {name: {"pass": 0, "fail": 0, "skip": 0} for name in harness.CHECK_NAMES}
    failures = []
    for seed in range(args.seeds):
        cfg = harness.GenConfig(
            atom_count=args.atoms,
            rule_count=args.rules,
            allow_disjunctive_heads=(seed % 4 == 3),
            seed=seed,
        )
        report = harness.check_theorems(harness.generate(cfg), limit)
        for result in report.results:
            counts[result.name][result.status] += 1
            if result.status == harness.FAIL:
                failures.append((seed, report.program_text, result))
    print(f"{'check':<40} {'pass':>6} {'fail':>6} {'skip':>6}")
    for name in harness.CHECK_NAMES:
        c = counts[name]
        print(f"{name:<40} {c['pass']:>6} {c['fail']:>6} {c['skip']:>6}")
    for seed, text, result in failures:
        print(f"\nseed {seed}: {result.name} failed")
        sys.stdout.write(text)
        for line in result.details:
            print(f"    {line}")
    print(f"\nresult: {'violations found' if failures else 'ok'} ({args.seeds} programs)")
    return EXIT_VIOLATION if failures else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("models", "supported", "flp", "sflp"):
            return _run_enumeration(args, SemanticsKind(args.command))
        if args.command == "completion":
            return _run_completion(args)
        if args.command == "convexity":
            return _run_convexity(args)
        if args.command == "compile":
            return _run_compile(args)
        return _run_verify(args)
    except TooManyAtoms as exc:
        print(f"gasp: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, DisjunctiveHead, InputError) as exc:
        print(f"gasp: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
