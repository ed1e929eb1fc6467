"""The public surface: exported names resolve, removed ones stay removed,
and every library name the benchmark harness uses still exists."""

import ast
import importlib
from pathlib import Path

import pytest

import w3lab

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = ("verma", "kac", "fock", "exact")

REMOVED = {
    "w3lab": ["AlphaInvariants", "BigRational", "Mode", "ModeOperator",
              "current_mode", "normal_power_mode", "fz_field_mode",
              "apply_mode", "inner_product", "rho_coefficients"],
    "w3lab.kac": ["AlphaInvariants", "_f_sum"],
    "w3lab.verma": ["Mode", "apply", "apply_mode", "apply_lambda",
                    "inner_product"],
    "w3lab.exact": ["BigRational"],
    "w3lab.fock": ["ModeOperator", "current_mode", "normal_power_mode",
                   "fz_field_mode", "rho_coefficients", "State",
                   "VACUUM_KEY", "PRUNE_TOL", "_level_index", "key_level",
                   "state_inner", "state_norm", "state_prune",
                   "vacuum_state", "word_state", "_leftmost"],
    "w3lab.cli": ["RunConfig", "_config", "DEFAULT_TOLERANCES"],
}


def test_all_names_resolve():
    for name in w3lab.__all__:
        assert hasattr(w3lab, name), name


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(mod, name), (module, name)


def test_removed_members_are_gone():
    from w3lab import exact, fock, verma
    assert not hasattr(verma.GramMatrix, "evaluate_float")
    assert not hasattr(exact.ExactScalar, "is_rational")
    assert not hasattr(exact.ExactScalar, "as_fraction")
    assert not hasattr(exact.ExactScalar, "evaluate_float")
    assert not hasattr(fock.Realization, "_a_state")
    assert not hasattr(fock.Realization, "_state_apply")
    assert "eta" not in fock.RealizationParams.__dataclass_fields__


def _harness_uses():
    """(module, name) for every library name the benchmark sources use."""
    uses = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.startswith("w3lab"):
                uses.update((node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                uses.add((f"w3lab.{node.value.id}", node.attr))
    return uses


def test_harness_names_resolve():
    uses = _harness_uses()
    assert ("w3lab.verma", "gram_matrix") in uses
    assert ("w3lab.kac", "kac_closed_form_exact") in uses
    for module, name in sorted(uses):
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            # ``from w3lab import verma`` names a submodule
            importlib.import_module(f"{module}.{name}")
    # methods the harness calls on the Gram matrices it builds
    from w3lab.verma import GramMatrix
    for name in ("evaluate", "to_json", "from_json", "dimension"):
        assert hasattr(GramMatrix, name), name
