"""w3lab: exact W3-algebra Gram/Kac machinery, free-field checks, unitarity.

The package re-exports nothing, so importing it loads no other module.
Every module is imported by name: ``from w3lab import classify, exact, kac,
modular, verma, fock``.
"""

__version__ = "0.1.0"
