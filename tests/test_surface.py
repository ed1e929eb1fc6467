"""The public surface: exported names resolve, removed ones stay removed,
and every library name the benchmark harness uses still exists."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import w3lab

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = ("verma", "kac", "fock", "exact")

REMOVED = {
    "w3lab": ["AlphaInvariants", "BigRational", "Mode", "ModeOperator",
              "current_mode", "normal_power_mode", "fz_field_mode",
              "apply_mode", "inner_product", "rho_coefficients",
              "CutoffExceeded", "Realization", "RealizationParams",
              "check_automorphism_identity", "check_w3_relations",
              "check_weak_symmetry", "cyclic_gram", "verify_rho_ode",
              "f_mn", "f_mm", "kac_closed_form",
              # the lazy re-exports: modules are imported by name
              "_LAZY", "_HOME", "__getattr__",
              "ExactScalar", "PoleAtForbiddenCentralCharge", "parse_rational",
              "parse_scalar", "ComparisonReport", "DegenerateSample",
              "KacFactors", "compare_with_gram", "kac_closed_form_exact",
              "p2", "GramMatrix", "LevelTooLarge", "ModeWord", "determinant",
              "determinant_at", "enumerate_basis", "gram_matrix"],
    "w3lab.kac": ["AlphaInvariants", "_f_sum", "f_mn", "f_mm",
                  "kac_closed_form", "f_pair_product", "f11_alt",
                  "alpha_pm_squared", "_f_mn_complex", "_as_real", "IM_TOL",
                  # f11 has one home, w3lab.classify
                  "f11",
                  # the factor table is the plain function kac_factors
                  "KacFactors",
                  # one bicolored-partition enumerator, verma.level_keys
                  "p2"],
    "w3lab.classify": ["constructive_family_contains",
                       # one _verdict decides every range of c
                       "_rule", "_below_2", "_classified", "_above_98",
                       "_VACUUM",
                       # every input goes through Fraction itself
                       "_as_fraction"],
    "w3lab.verma": ["Mode", "apply", "apply_mode", "apply_lambda",
                    "inner_product", "_bareiss", "fraction_ring",
                    # the level cap is the CLI's (cli.LEVEL_CAP)
                    "LevelTooLarge", "DEFAULT_LEVEL_CAP", "check_level",
                    # one prepend rule, _prepended; the determinant over Q
                    # lives in modular
                    "_may_prepend", "rational_determinant"],
    # one symmetric kernel, which takes its scales from rational_determinant
    "w3lab.modular": ["bareiss_determinant", "BAREISS_MAX_N",
                      "integer_determinant"],
    "w3lab.exact": ["BigRational", "_poly_exact_div", "_divide_poly_by_den",
                    "_scale_by_den", "_DEN_CONST", "_DEN_LIN"],
    "w3lab.fock": ["ModeOperator", "current_mode", "normal_power_mode",
                   "fz_field_mode", "rho_coefficients", "State",
                   "VACUUM_KEY", "PRUNE_TOL", "_level_index", "key_level",
                   "state_inner", "state_norm", "state_prune",
                   "vacuum_state", "word_state", "_leftmost",
                   # the cyclic Gram needs a cutoff of its level, no margin
                   "CYCLIC_MARGIN",
                   # zero_vector_norms reports the scales under "scale"
                   "zero_vector_scales", "level_norms",
                   # rho' is the family "rhop", one circle-derivative rule
                   "rho_prime_coefficient",
                   # one split table, _split_rows
                   "_split_offsets"],
    "w3lab.cli": ["RunConfig", "_config", "DEFAULT_TOLERANCES", "click",
                  "RationalParam", "FiniteFloat", "RATIONAL", "FINITE",
                  "_read_cached", "_degrees_within", "_REPEATED_VARIABLE",
                  "PSD_TOL", "_positive", "_level_cap",
                  # the cache file holds the printed JSON, unversioned
                  "FORMAT_VERSION", "_entries_sha256",
                  # kac-verify checks its samples file by reading it
                  "_existing_file",
                  # fz-check's one pass rule: RESIDUAL_TOL and _bound
                  "RELATION_TOL", "AUTOMORPHISM_TOL", "WEAK_SYMMETRY_TOL",
                  "ZERO_VECTOR_TOL", "_within"],
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
    assert not hasattr(exact.ExactScalar, "exact_div")
    for name in ("from_rational", "monomial", "_canonical"):
        assert not hasattr(exact.ExactScalar, name), name
    assert not hasattr(verma.ModeWord, "grade")
    # Lambda_s is a mode of the engine: apply_mode("Lambda", s, v)
    assert not hasattr(verma.Engine, "apply_lambda")
    # the pairwise inner product is the tests' cross-check of gram_matrix
    assert not hasattr(verma.Engine, "inner_product")
    assert not hasattr(fock.CyclicGram, "to_csv")
    # the cyclic Gram comes by level blocks, not as one matrix
    for name in ("variant", "level", "gram"):
        assert name not in fock.CyclicGram.__dataclass_fields__, name
    assert "shift1" not in inspect.signature(fock.Realization).parameters
    assert not hasattr(fock.Realization, "_a_state")
    assert not hasattr(fock.Realization, "_state_apply")
    # the sector-1 sums are cached by the current, as combination families
    assert not hasattr(fock.Realization, "_family")
    assert not hasattr(fock.Realization(fock.RealizationParams()),
                       "_families")
    assert "eta" not in fock.RealizationParams.__dataclass_fields__
    # W's sign flips with q2 -> -q2
    assert "b_sign" not in fock.RealizationParams.__dataclass_fields__
    # one enumerator of a level's bicolored partitions
    assert fock.level_keys is verma.level_keys
    assert "margin" not in inspect.signature(fock.cyclic_gram).parameters
    # callers write a block at its own levels and cut rows themselves
    assert not hasattr(fock._Graded, "rows_upto")
    # blocks are composed by _Graded.compose directly, with no wrapper
    assert not hasattr(fock._Current, "_then")
    assert not hasattr(fock.Realization, "_then")
    from w3lab import kac
    assert "level_cap" not in inspect.signature(verma.gram_matrix).parameters
    assert "level_cap" not in inspect.signature(
        kac.compare_with_gram).parameters
    # the report is its exact ratios: no float spread, no constant method,
    # no measured constant (the verdict reads kac_constant)
    for name in ("max_rel_deviation", "method", "constant"):
        assert name not in kac.ComparisonReport._fields, name


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


def _resolve(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        # ``from w3lab import verma`` names a submodule
        return importlib.import_module(f"{module}.{name}")
    return getattr(mod, name)


def _harness_calls():
    """(source, object, positional count, keyword names) for every call the
    benchmark sources make on a w3lab name, directly or as
    ``Tracer.timed(name, cmd, fn, *args)``, which calls fn(*args).  The
    count is None when an argument is starred."""
    calls = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {a.asname or a.name: (node.module, a.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("w3lab") for a in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            keywords = node.keywords
            if (isinstance(func, ast.Attribute) and func.attr == "timed"
                    and len(args) >= 3):
                func, args, keywords = args[2], args[3:], []
            chain = []
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            if not isinstance(func, ast.Name) or func.id not in imported:
                continue
            obj = _resolve(*imported[func.id])
            for attr in chain:
                obj = getattr(obj, attr)
            starred = (any(isinstance(a, ast.Starred) for a in args)
                       or any(k.arg is None for k in keywords))
            calls.append((f"{path.name}:{node.lineno}", obj,
                          None if starred else len(args),
                          [k.arg for k in keywords if k.arg]))
    return calls


def test_harness_calls_bind():
    """Every call the harness makes on a w3lab name binds to the current
    signature: its keyword names always, its positional count when no
    argument is starred."""
    from w3lab import fock, verma
    calls = _harness_calls()
    called = {obj for _, obj, _, _ in calls}
    for obj in (verma.gram_matrix, verma.determinant_at,
                fock.RealizationParams, fock.check_w3_relations):
        assert obj in called, obj
    assert any(obj is fock.RealizationParams and "cutoff" in kw
               for _, obj, _, kw in calls)
    for where, obj, npos, keywords in calls:
        try:
            inspect.signature(obj).bind_partial(*[None] * (npos or 0),
                                                **dict.fromkeys(keywords))
        except TypeError as e:
            pytest.fail(f"{where}: {obj.__qualname__}: {e}")


def test_harness_names_resolve():
    uses = _harness_uses()
    assert ("w3lab.verma", "gram_matrix") in uses
    assert ("w3lab.kac", "kac_closed_form_exact") in uses
    for module, name in sorted(uses):
        _resolve(module, name)
    # members the harness reads on the Gram matrices it builds and on
    # their entries
    from w3lab.exact import ExactScalar
    from w3lab.verma import GramMatrix
    for name in ("evaluate", "to_json", "from_json", "dimension"):
        assert hasattr(GramMatrix, name), name
    for name in ("terms", "denom_power", "evaluate"):
        assert hasattr(ExactScalar, name), name
