"""w3lab: exact W3-algebra Gram/Kac machinery, free-field checks, unitarity."""

from .classify import (Status, UnitarityVerdict, Witness, classify, f11,
                       region_scan)

# Names from the exact, Kac and Verma modules load their module on first
# access (PEP 562), so that importing the package, as the classify and
# region commands do, loads the classifier alone.
_LAZY = {
    "exact": ("ExactScalar", "PoleAtForbiddenCentralCharge", "parse_rational",
              "parse_scalar"),
    "kac": ("ComparisonReport", "DegenerateSample", "KacFactors",
            "compare_with_gram", "kac_closed_form_exact", "p2"),
    "verma": ("GramMatrix", "LevelTooLarge", "ModeWord", "determinant",
              "determinant_at", "enumerate_basis", "gram_matrix"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(["Status", "UnitarityVerdict", "Witness", "classify", "f11",
                  "region_scan", *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module
    if name in _LAZY:  # w3lab.kac and the like, with no import statement
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
