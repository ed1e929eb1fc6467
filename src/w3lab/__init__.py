"""w3lab: exact W3-algebra Gram/Kac machinery, free-field checks, unitarity."""

from .classify import Status, UnitarityVerdict, Witness, classify, region_scan
from .exact import (ExactScalar, PoleAtForbiddenCentralCharge, parse_rational,
                    parse_scalar)
from .fock import (CutoffExceeded, Realization, RealizationParams,
                   check_automorphism_identity, check_w3_relations,
                   check_weak_symmetry, cyclic_gram, rho_coefficients,
                   verify_rho_ode)
from .kac import (ComparisonReport, DegenerateSample, KacFactors,
                  compare_with_gram, f11, f_mm, f_mn, kac_closed_form,
                  kac_closed_form_exact, p2)
from .verma import (GramMatrix, LevelTooLarge, ModeWord, apply_mode,
                    determinant, determinant_at, enumerate_basis, gram_matrix,
                    inner_product)

__all__ = [
    "ComparisonReport", "CutoffExceeded", "DegenerateSample", "ExactScalar",
    "GramMatrix", "KacFactors", "LevelTooLarge", "ModeWord",
    "PoleAtForbiddenCentralCharge", "Realization", "RealizationParams",
    "Status", "UnitarityVerdict", "Witness", "apply_mode",
    "check_automorphism_identity", "check_w3_relations",
    "check_weak_symmetry", "classify", "compare_with_gram", "cyclic_gram",
    "determinant", "determinant_at", "enumerate_basis", "f11", "f_mm",
    "f_mn", "gram_matrix", "inner_product", "kac_closed_form",
    "kac_closed_form_exact", "p2", "parse_rational", "parse_scalar",
    "region_scan", "rho_coefficients", "verify_rho_ode",
]

__version__ = "0.1.0"
