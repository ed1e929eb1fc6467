"""w3lab: exact W3-algebra Gram/Kac machinery, free-field checks, unitarity.

The package exports the classifier alone, so that importing it, as the
classify and region commands do, loads no other module.  Every other
module is imported by name: ``from w3lab import exact, kac, verma, fock``.
"""

from .classify import (Status, UnitarityVerdict, Witness, classify, f11,
                       region_scan)

__all__ = ["Status", "UnitarityVerdict", "Witness", "classify", "f11",
           "region_scan"]

__version__ = "0.1.0"
