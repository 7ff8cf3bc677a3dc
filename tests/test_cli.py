import io
import json
import subprocess
import sys

import pytest

from gasp import cli, harness
from gasp.harness import CheckResult, TheoremReport

from conftest import CORPUS_DIR, corpus_text


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def corpus_path(name):
    return str(CORPUS_DIR / f"{name}.gasp")


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

    def test_internal_error_is_not_an_input_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("kernel bug")

        monkeypatch.setattr(cli, "enumerate_interpretations", broken)
        with pytest.raises(ValueError, match="kernel bug"):
            cli.main(["models", corpus_path("p1")])


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
        code, _, err = run_cli(
            ["compile", "-"], stdin_text="a :- __aux_t_1.",
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2
        assert "__aux" in err

    def test_disjunctive_head_rejected(self, capsys):
        code, _, err = run_cli(["compile", corpus_path("p4")], capsys=capsys)
        assert code == 2

    def test_emit_json(self, capsys):
        code, out, _ = run_cli(
            ["compile", "--semantics", "sflp", "--emit", "json", corpus_path("p1")],
            capsys=capsys,
        )
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

    def test_verify_needs_input_or_random(self, capsys):
        code, _, err = run_cli(["verify"], capsys=capsys)
        assert code == 2

    def test_random_mode_rejects_bad_sizes(self, capsys):
        code, _, err = run_cli(["verify", "--random", "--atoms", "9"], capsys=capsys)
        assert code == 2
        assert "atom_count" in err

    def test_random_mode_rejects_negative_seeds(self, capsys):
        code, out, err = run_cli(["verify", "--random", "--seeds", "-3"], capsys=capsys)
        assert code == 2
        assert "--seeds" in err
        assert "result" not in out


class TestConsoleEntry:
    def test_module_invocation_pipe(self):
        compiled = subprocess.run(
            [sys.executable, "-m", "gasp", "compile", "--semantics", "sflp",
             corpus_path("p1")],
            capture_output=True, text=True, check=True,
        )
        solved = subprocess.run(
            [sys.executable, "-m", "gasp", "flp", "-"],
            input=compiled.stdout, capture_output=True, text=True, check=True,
        )
        assert solved.stdout == "{__aux_t_1, a, b}\n"

    def test_version_flag(self):
        out = subprocess.run(
            [sys.executable, "-m", "gasp", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert "gasp" in out.stdout
