"""Programs with generalized atoms: FLP/SFLP semantics, completion,
convexity analysis, and compilation to aggregate-free programs.

The public names below are imported from their submodules on first
access, so that a program (or a `gasp` command) loads only the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Atom",
        "Body",
        "Conjunct",
        "CountAggregate",
        "DEFAULT_ATOM_LIMIT",
        "DisjunctiveHead",
        "Dnf",
        "GaspError",
        "Interpretation",
        "LiteralConjunction",
        "Program",
        "ReservedAtomError",
        "Rule",
        "TOP",
        "TooManyAtoms",
        "TruthTable",
        "UnsatisfiableBody",
        "format_interpretation",
    ),
    "lowering": ("is_convex", "is_convex_program", "to_dnf"),
    "parser": ("ParseError", "ReservedAtom", "SourceProgram", "parse_program", "render"),
    "semantics": (
        "SemanticsKind",
        "UnknownAtom",
        "completion",
        "completion_atom",
        "enumerate_interpretations",
        "flp_reduct",
        "is_flp_answer_set",
        "is_model",
        "is_sflp_answer_set",
        "is_supported_model",
        "satisfies_rule",
        "sflp_via_completion",
    ),
    "compile": (
        "AuxNames",
        "contraction",
        "expansion",
        "rew_flp",
        "rew_sflp",
        "verify_compilation",
    ),
    "harness": ("GenConfig", "TheoremReport", "check_theorems", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("compile", "core", "harness", "kernel", "lowering", "parser", "semantics")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
