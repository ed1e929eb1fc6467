"""w3lab: exact W3-algebra Gram/Kac machinery, free-field checks, unitarity."""

from .classify import Status, UnitarityVerdict, Witness, classify, region_scan
from .exact import (ExactScalar, PoleAtForbiddenCentralCharge, parse_rational,
                    parse_scalar)
from .kac import (ComparisonReport, DegenerateSample, KacFactors,
                  compare_with_gram, f11, kac_closed_form_exact, p2)
from .verma import (GramMatrix, LevelTooLarge, ModeWord, determinant,
                    determinant_at, enumerate_basis, gram_matrix)

__all__ = [
    "ComparisonReport", "DegenerateSample", "ExactScalar", "GramMatrix",
    "KacFactors", "LevelTooLarge", "ModeWord", "PoleAtForbiddenCentralCharge",
    "Status", "UnitarityVerdict", "Witness", "classify", "compare_with_gram",
    "determinant", "determinant_at", "enumerate_basis", "f11", "gram_matrix",
    "kac_closed_form_exact", "p2", "parse_rational", "parse_scalar",
    "region_scan",
]

__version__ = "0.1.0"
