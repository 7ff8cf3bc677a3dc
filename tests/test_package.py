"""The package surface and what each command imports.

`gasp` resolves its public names on first access, and a `gasp` command
imports only the modules it runs; these tests pin both down.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gasp

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gasp"

# every public name of the package, by the submodule that defines it
HOMES = {
    "core": {
        "Atom", "Body", "Conjunct", "CountAggregate", "DEFAULT_ATOM_LIMIT",
        "DisjunctiveHead", "Dnf", "GaspError", "Interpretation",
        "LiteralConjunction", "Program", "ReservedAtomError", "Rule", "TOP",
        "TooManyAtoms", "TruthTable", "UnsatisfiableBody",
        "format_interpretation", "is_convex", "is_convex_program", "to_dnf",
    },
    "parser": {"ParseError", "ReservedAtom", "SourceProgram", "parse_program", "render"},
    "semantics": {
        "SemanticsKind", "UnknownAtom", "completion", "completion_atom",
        "enumerate_interpretations", "flp_reduct", "is_flp_answer_set",
        "is_model", "is_sflp_answer_set", "is_supported_model",
        "satisfies_rule", "sflp_via_completion",
    },
    "compile": {
        "AuxNames", "contraction", "expansion", "rew_flp", "rew_sflp",
        "verify_compilation",
    },
    "harness": {"GenConfig", "TheoremReport", "check_theorems", "generate"},
}
SUBMODULES = {"compile", "core", "harness", "kernel", "lowering", "parser", "semantics"}
PUBLIC = set().union(*HOMES.values()) | SUBMODULES


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, check=True)


class TestSurface:
    def test_all_names(self):
        assert len(gasp.__all__) == len(PUBLIC) == 55
        assert set(gasp.__all__) == PUBLIC

    def test_names_resolve_to_their_submodules(self):
        for module, names in HOMES.items():
            home = importlib.import_module(f"gasp.{module}")
            for name in names:
                assert getattr(gasp, name) is getattr(home, name), name
        for module in SUBMODULES:
            assert getattr(gasp, module) is importlib.import_module(f"gasp.{module}")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from gasp import *", namespace)
        for name in PUBLIC:
            assert namespace[name] is getattr(gasp, name), name

    def test_dir_lists_every_name(self):
        assert PUBLIC <= set(dir(gasp))
        assert "__version__" in dir(gasp)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            gasp.nope
        with pytest.raises(ImportError):
            from gasp import nope  # noqa: F401
        with pytest.raises(AttributeError, match="supp_rule"):
            gasp.supp_rule  # deleted: `with_support_rules` is the one builder

    def test_disjunctive_head_is_one_class(self):
        from gasp import compile as comp
        from gasp import core

        assert gasp.DisjunctiveHead is core.DisjunctiveHead is comp.DisjunctiveHead

    def test_import_loads_no_submodule(self):
        out = _python("import sys, gasp; print(sorted(m for m in sys.modules if m.startswith('gasp')))")
        assert out.stdout.strip() == "['gasp']"


# Runs `cli.main(argv)` and prints to stderr the modules it added, beyond
# the ones the interpreter had loaded before gasp was imported.
FOOTPRINT = """
import sys
before = set(sys.modules)
from gasp import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print("\\n".join(sorted(set(sys.modules) - before)), file=sys.stderr)
raise SystemExit(code)
"""
NOT_FOR_QUERIES = {"gasp.compile", "gasp.harness", "dataclasses", "inspect", "json"}


def _loaded(*args: str) -> set[str]:
    return set(_python(FOOTPRINT, *args).stderr.split())


class TestImportFootprint:
    @pytest.mark.parametrize("command", ["models", "completion", "convexity"])
    def test_queries_load_neither_compile_nor_harness(self, command):
        loaded = _loaded(command, "corpus/p1.gasp")
        assert {"gasp.cli", "gasp.parser", "gasp.semantics"} <= loaded
        assert not loaded & NOT_FOR_QUERIES

    def test_verify_loads_the_harness(self):
        assert "gasp.harness" in _loaded("verify", "corpus/p1.gasp")

    def test_no_module_uses_dataclasses(self):
        sources = sorted(SRC.glob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text(encoding="utf-8")
            assert "import dataclasses" not in text, path.name
            assert "from dataclasses" not in text, path.name
