import io
import json
import subprocess
import sys

import pytest

from gasp import cli, harness
from gasp.harness import CheckResult, TheoremReport
from gasp.parser import parse_program

from conftest import CORPUS_DIR, corpus_text, src_env


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def corpus_path(name):
    return str(CORPUS_DIR / f"{name}.gasp")


# the bound each command hits first on p1, two atoms, under --limit 1
LIMIT_LABELS = {
    "models": "enumeration",
    "supported": "enumeration",
    "flp": "enumeration",
    "sflp": "enumeration",
    "completion": "completion table",
    "convexity": "convexity scan",
    "compile": "dnf expansion",
    "verify": "enumeration",
}


@pytest.mark.parametrize("command", sorted(LIMIT_LABELS))
def test_limit_exit_code_names_the_bound(command, capsys):
    code, _, err = run_cli([command, corpus_path("p1"), "--limit", "1"], capsys=capsys)
    assert code == 3
    assert f"gasp: {LIMIT_LABELS[command]} over 2 atoms exceeds the limit of 1" in err


class TestEnumerationCommands:
    def test_sflp_p1(self, capsys):
        code, out, _ = run_cli(["sflp", corpus_path("p1")], capsys=capsys)
        assert code == 0
        assert out == "{a, b}\n"

    def test_flp_p1_is_empty_but_ok(self, capsys):
        code, out, _ = run_cli(["flp", corpus_path("p1")], capsys=capsys)
        assert code == 0
        assert out == ""

    def test_models_p4(self, capsys):
        code, out, _ = run_cli(["models", corpus_path("p4")], capsys=capsys)
        assert code == 0
        assert out == "{a}\n{a, b}\n{b}\n"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["sflp", "--json", corpus_path("p5")], capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "semantics": "sflp",
            "atoms": ["a", "b"],
            "answer_sets": [["a"], ["a", "b"]],
        }

    def test_stdin_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["supported", "-"], stdin_text=corpus_text("p5"),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        assert out == "{a}\n{a, b}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.gasp"
        bad.write_text("a :-")
        code, _, err = run_cli(["models", str(bad)], capsys=capsys)
        assert code == 2
        assert "bad.gasp" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(["models", "no_such_file.gasp"], capsys=capsys)
        assert code == 2

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "latin1.gasp"
        bad.write_bytes(b"caf\xe9.\n")
        code, _, err = run_cli(["models", str(bad)], capsys=capsys)
        assert code == 2
        assert "latin1.gasp" in err

    def test_limit_exit_code(self, capsys, monkeypatch):
        text = " ".join(f"x{i}." for i in range(8))
        code, _, err = run_cli(
            ["models", "-", "--limit", "4"], stdin_text=text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 3
        assert "limit" in err

    def test_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("GASP_LIMIT", "4")
        text = " ".join(f"x{i}." for i in range(8))
        code, _, _ = run_cli(
            ["models", "-"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 3

    def test_flag_overrides_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("GASP_LIMIT", "4")
        text = " ".join(f"x{i}." for i in range(8))
        code, out, _ = run_cli(
            ["models", "-", "--limit", "10"], stdin_text=text,
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        assert out == "{x0, x1, x2, x3, x4, x5, x6, x7}\n"

    def test_negative_limit_rejected(self, capsys):
        code, _, err = run_cli(["models", corpus_path("p1"), "--limit", "-1"], capsys=capsys)
        assert code == 2
        assert "--limit" in err

    def test_negative_env_limit_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GASP_LIMIT", "-3")
        code, _, err = run_cli(["models", corpus_path("p1")], capsys=capsys)
        assert code == 2
        assert "GASP_LIMIT" in err

    def test_non_integer_env_limit_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("GASP_LIMIT", "ten")
        code, out, err = run_cli(["models", corpus_path("p1")], capsys=capsys)
        assert code == 2
        assert out == ""
        assert "GASP_LIMIT must be an integer, not 'ten'" in err

    def test_internal_error_is_not_an_input_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("kernel bug")

        monkeypatch.setattr(cli, "enumerate_interpretations", broken)
        with pytest.raises(ValueError, match="kernel bug"):
            cli.main(["models", corpus_path("p1")])

    def test_unsatisfiable_body_is_not_an_input_error(self, capsys, monkeypatch):
        # no input reaches a raise of UnsatisfiableBody (parsed programs hold
        # no tables, the compiler drops dead bodies, the completion keeps
        # only tables with a row), so one that escapes is a bug, not exit 2
        from gasp.core import UnsatisfiableBody

        def broken(*args, **kwargs):
            raise UnsatisfiableBody("body is false on every subset of its domain")

        monkeypatch.setattr(cli, "enumerate_interpretations", broken)
        with pytest.raises(UnsatisfiableBody):
            cli.main(["models", corpus_path("p1")])
        assert capsys.readouterr().err == ""

    def test_unknown_atom_is_not_an_input_error(self, capsys, monkeypatch):
        # `completion` asks only for the program's own atoms, so no input
        # makes it raise UnknownAtom
        from gasp.semantics import UnknownAtom

        def broken(*args, **kwargs):
            raise UnknownAtom("atom 'z' does not occur in the program")

        monkeypatch.setattr(cli, "completion", broken)
        with pytest.raises(UnknownAtom):
            cli.main(["completion", corpus_path("p1")])
        assert capsys.readouterr().err == ""

    def test_reserved_atom_error_is_not_an_input_error(self, capsys, monkeypatch):
        # `compile` parses without reserved atoms, so the parser rejects
        # them first (exit 2) and the rewriting's own check cannot fire
        from gasp import compile as comp
        from gasp.core import ReservedAtomError

        def broken(*args, **kwargs):
            raise ReservedAtomError("input already uses reserved atoms: __aux_t_1")

        monkeypatch.setattr(comp, "rew_flp", broken)
        with pytest.raises(ReservedAtomError):
            cli.main(["compile", corpus_path("p1")])
        assert capsys.readouterr().err == ""


class TestCompletionCommand:
    def test_p1_text(self, capsys):
        code, out, _ = run_cli(["completion", corpus_path("p1")], capsys=capsys)
        assert code == 0
        assert out == (
            "a :- count{a, b} != 1.\n"
            "b :- count{a, b} != 1.\n"
            ":- dnf{a & ~b}.\n"
            ":- dnf{b & ~a}.\n"
        )

    def test_unsupportable_atom_constraint_is_omitted(self, capsys, monkeypatch):
        # comp(a) for the fact program is unsatisfiable: no constraint shown
        code, out, _ = run_cli(
            ["completion", "-"], stdin_text="a.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        assert out == "a.\n"

    def test_json_drops_unsatisfiable_constraints(self, capsys, monkeypatch):
        # comp(a) is unsatisfiable, comp(b) is not: only b's constraint shows
        code, out, _ = run_cli(
            ["completion", "--json", "-"], stdin_text="a. b :- a.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        assert json.loads(out) == {
            "rules": ["a.", "b :- a.", ":- dnf{b & ~a}."],
        }

    def test_limit_bounds_the_printed_tables_too(self, capsys, monkeypatch):
        # a's table spans 22 atoms and has one row; printing adds no cap
        names = sorted(f"b{i}" for i in range(21))
        code, out, err = run_cli(
            ["completion", "--limit", "25", "-"],
            stdin_text=f"a :- count{{{', '.join(names)}}} > 0.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"a :- count{{{', '.join(names)}}} > 0.",
            ":- dnf{a & " + " & ".join("~" + n for n in names) + "}.",
            *(f":- dnf{{{n}}}." for n in names),
        ]


class TestConvexityCommand:
    def test_p1(self, capsys):
        code, out, _ = run_cli(["convexity", corpus_path("p1")], capsys=capsys)
        assert code == 0
        assert out.splitlines() == [
            "rule 1: non-convex  a :- count{a, b} != 1.",
            "rule 2: non-convex  b :- count{a, b} != 1.",
            "program: non-convex",
        ]

    def test_json(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["convexity", "-", "--json"], stdin_text="a :- b.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        payload = json.loads(out)
        assert payload["program_convex"] is True
        assert payload["rules"] == [{"rule": "a :- b.", "convex": True}]


class TestCompileCommand:
    def test_pipe_closure(self, capsys, monkeypatch):
        code, compiled, _ = run_cli(
            ["compile", "--semantics", "sflp", corpus_path("p1")], capsys=capsys
        )
        assert code == 0
        code, out, _ = run_cli(
            ["flp", "-"], stdin_text=compiled, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert out == "{__aux_t_1, a, b}\n"

    def test_flp_equals_sflp_on_compiled_output(self, capsys, monkeypatch):
        for name in ("p1", "p2", "p3", "p5"):
            for semantics in ("flp", "sflp"):
                code, compiled, _ = run_cli(
                    ["compile", "--semantics", semantics, corpus_path(name)],
                    capsys=capsys,
                )
                assert code == 0
                _, flp_out, _ = run_cli(
                    ["flp", "-"], stdin_text=compiled,
                    monkeypatch=monkeypatch, capsys=capsys,
                )
                _, sflp_out, _ = run_cli(
                    ["sflp", "-"], stdin_text=compiled,
                    monkeypatch=monkeypatch, capsys=capsys,
                )
                assert flp_out == sflp_out

    def test_reserved_input_rejected(self, capsys, monkeypatch):
        # the parser rejects a reserved atom anywhere, as bad input
        for text in ("a :- __aux_t_1.", "__aux_t_1.\n"):
            code, _, err = run_cli(
                ["compile", "-"], stdin_text=text,
                monkeypatch=monkeypatch, capsys=capsys,
            )
            assert code == 2
            assert "uses the reserved `__aux` prefix" in err

    def test_disjunctive_head_rejected(self, capsys):
        code, _, err = run_cli(["compile", corpus_path("p4")], capsys=capsys)
        assert code == 2

    def test_disjunctive_head_reported_before_the_limit(self, capsys, monkeypatch):
        # the first rule's DNF would exceed --limit 2; bad input comes first
        code, out, err = run_cli(
            ["compile", "--limit", "2", "-"], stdin_text="a :- count{b, c, d} > 1. x | y :- z.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert (code, out) == (2, "")
        assert err == "gasp: cannot compile a rule with a disjunctive head: x | y\n"

    def test_emit_json(self, capsys):
        code, out, _ = run_cli(
            ["compile", "--semantics", "sflp", "--json", corpus_path("p1")],
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["semantics"] == "sflp"
        assert payload["rules"][0] == "a :- __aux_t_1."
        assert payload["aux_map"] == [
            {
                "body": "dnf{~a & ~b | a & b}",
                "t": "__aux_t_1",
                "f": ["__aux_f_1_0", "__aux_f_1_1", "__aux_f_1_2"],
            }
        ]

    def test_json_flag_is_an_alias(self, capsys):
        code, out, _ = run_cli(
            ["compile", "--json", corpus_path("p1")], capsys=capsys
        )
        assert code == 0
        json.loads(out)

    def test_rewrite_all(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["compile", "--rewrite-all", "-"], stdin_text="a :- b. b.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 0
        assert "__aux_t_2" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["compile", corpus_path("p2")], capsys=capsys)
        _, second, _ = run_cli(["compile", corpus_path("p2")], capsys=capsys)
        assert first == second


class TestVerifyCommand:
    def test_file_mode_all_pass(self, capsys):
        code, out, _ = run_cli(["verify", corpus_path("p1")], capsys=capsys)
        assert code == 0
        assert "flp_subset_sflp" in out
        assert "fail" not in out.replace("pass  fail", "")

    def test_random_mode_reports_table(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--random", "--seeds", "10", "--atoms", "3", "--rules", "3"],
            capsys=capsys,
        )
        assert code in (0, 4)
        assert "flp_subset_sflp" in out
        assert "10 programs" in out

    def test_violation_exit_code(self, capsys, monkeypatch):
        fake = TheoremReport(
            "p.\n",
            (CheckResult("flp_subset_sflp", "fail", ("{p}",)),),
        )
        monkeypatch.setattr(harness, "check_theorems", lambda *a, **k: fake)
        code, out, _ = run_cli(["verify", corpus_path("p1")], capsys=capsys)
        assert code == 4
        assert "{p}" in out

    def test_random_mode_prints_each_failure(self, capsys, monkeypatch):
        fake = TheoremReport(
            "p :- q.\n",
            (CheckResult("flp_subset_sflp", "fail", ("{p} is FLP, not SFLP",)),),
        )
        monkeypatch.setattr(harness, "check_theorems", lambda *a, **k: fake)
        code, out, _ = run_cli(["verify", "--random", "--seeds", "2"], capsys=capsys)
        assert code == 4
        assert out.split("\n\n", 1)[1] == (
            "seed 0: flp_subset_sflp failed\n"
            "p :- q.\n"
            "    {p} is FLP, not SFLP\n"
            "\n"
            "seed 1: flp_subset_sflp failed\n"
            "p :- q.\n"
            "    {p} is FLP, not SFLP\n"
            "\n"
            "result: violations found (2 programs)\n"
        )

    def test_limit_caps_the_enumerated_rewriting(self, capsys, monkeypatch):
        """p1's rewriting spans 6 atoms, which `flp --limit 3` refuses to
        enumerate, so `verify --limit 3` skips both compilation checks."""
        code, out, _ = run_cli(["verify", "--limit", "3", corpus_path("p1")], capsys=capsys)
        assert code == 0
        statuses = dict(line.split() for line in out.splitlines())
        assert statuses["flp_subset_sflp"] == "pass"
        assert statuses["compilation_bijection_flp"] == "skip"
        assert statuses["compilation_bijection_sflp"] == "skip"
        _, compiled, _ = run_cli(["compile", corpus_path("p1")], capsys=capsys)
        code, _, err = run_cli(["flp", "--limit", "3", "-"], compiled, monkeypatch, capsys)
        assert code == 3
        assert "6 atoms" in err
        report = harness.check_theorems(parse_program(corpus_text("p1")), limit=3)
        assert report.results[-1].details == ("rewriting spans 6 atoms",)

    def test_verify_needs_input_or_random(self, capsys):
        code, _, err = run_cli(["verify"], capsys=capsys)
        assert code == 2

    def test_verify_rejects_input_with_random(self, capsys):
        code, out, err = run_cli(["verify", corpus_path("p1"), "--random"], capsys=capsys)
        assert code == 2
        assert "verify takes a program file or --random, not both" in err
        assert out == ""

    def test_random_mode_rejects_bad_sizes(self, capsys):
        code, _, err = run_cli(["verify", "--random", "--atoms", "9"], capsys=capsys)
        assert code == 2
        assert "atom_count" in err

    @pytest.mark.parametrize("seeds", ["0", "1"])
    @pytest.mark.parametrize("option", [["--atoms", "99"], ["--atoms", "0"], ["--rules", "11"]])
    def test_random_sizes_are_checked_before_any_program(self, seeds, option, capsys):
        """A bad size is bad input whether or not a program is generated."""
        code, out, err = run_cli(["verify", "--random", "--seeds", seeds, *option], capsys=capsys)
        assert code == 2
        assert "count must be in" in err
        assert out == ""

    @pytest.mark.parametrize("options", [
        ["--seeds", "3"], ["--atoms", "3"], ["--rules", "2"], ["--atoms", "4", "--rules", "4"],
    ])
    def test_program_file_rejects_random_options(self, options, capsys):
        """The random-program options, even at their defaults, are bad input
        next to a program file, as --random is."""
        code, out, err = run_cli(["verify", corpus_path("p1"), *options], capsys=capsys)
        assert code == 2
        assert f"verify takes a program file or {', '.join(options[::2])}, not both" in err
        assert out == ""

    def test_random_mode_rejects_negative_seeds(self, capsys):
        code, out, err = run_cli(["verify", "--random", "--seeds", "-3"], capsys=capsys)
        assert code == 2
        assert "--seeds" in err
        assert "result" not in out


def _gasp(*args, stdin_text=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "gasp", *args], input=stdin_text,
                          env=src_env(), capture_output=True, text=True, check=True)


class TestConsoleEntry:
    def test_module_invocation_pipe(self):
        compiled = _gasp("compile", "--semantics", "sflp", corpus_path("p1"))
        solved = _gasp("flp", "-", stdin_text=compiled.stdout)
        assert solved.stdout == "{__aux_t_1, a, b}\n"

    def test_version_flag(self):
        out = _gasp("--version")
        assert "gasp" in out.stdout
