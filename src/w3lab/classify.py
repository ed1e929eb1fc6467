"""Unitarity of the irreducible lowest-weight representation at real (c,h,w).

For 2 <= c <= 98 the answer is complete: unitary iff the first Kac
determinant quantity f11(h,c) - w^2 is >= 0 (f11 in the normalization that
matches the exact level-1 Gram determinant, det(Gram_1) = 9*(f11 - w^2)).
For c > 98 the vacuum h = w = 0 is unitary, as it is for 2 <= c <= 98;
elsewhere only two one-sided witnesses apply: membership in the
constructive two-current family region

    h >= (c-2)/24,  |w| <= sqrt(8/(198+45c)) * (2h - (c-2)/12)^(3/2)

implies unitary, and failure of the necessary condition f11 - w^2 >= 0
implies not unitary; in between the verdict is Unknown.  For c < 2 the
classifier honestly answers Unknown (the discrete-series values
c = 2(1 - 12/(m(m+1))), m >= 4, are attached as metadata when c matches
one, but the coset criterion itself is out of scope here).

Rational inputs are classified with exact arithmetic so boundary points
(quantity exactly zero) come out Unitary, per the ">= 0" in the criterion.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from operator import itemgetter

# Nothing else of the package is imported here (exact only on the pole's
# error path), so that the classify and region commands load none of the
# Verma, Kac or Fock machinery.


class Status(str, Enum):
    UNITARY = "Unitary"
    NOT_UNITARY = "NotUnitary"
    UNKNOWN = "Unknown"


class Witness(str, Enum):
    VACUUM_THEOREM = "VacuumTheorem"
    FIRST_KAC_DETERMINANT = "FirstKacDeterminant"
    CONSTRUCTIVE_FAMILY = "ConstructiveFamily"
    NECESSARY_CONDITION_FAILED = "NecessaryConditionFailed"
    OUT_OF_CLASSIFIED_REGION = "OutOfClassifiedRegion"


class UnitarityVerdict(namedtuple("UnitarityVerdict",
                                  ("status", "witness", "detail"))):
    """A status, the witness that decides it, and the detail dict of the
    inputs and quantities it rests on."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d = {"status": self.status.value, "witness": self.witness.value}
        d.update({k: (str(v) if isinstance(v, Fraction) else v)
                  for k, v in self.detail.items()})
        return d


def _as_fraction(x) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so the sign
    # logic below stays exact for whatever numbers the caller actually has.
    return x if isinstance(x, Fraction) else Fraction(x)


def _check_pole(c: Fraction, what: str) -> None:
    if 22 + 5 * c == 0:
        from .exact import PoleAtForbiddenCentralCharge
        raise PoleAtForbiddenCentralCharge(f"{what} at c = -22/5")


def f11(h, c) -> Fraction:
    """First Kac determinant up to the positive constant 9 (exact):
    f11 = 2h^2(96h - 3c + 6) / (27(5c+22)), the m = n = 1 value of f_mn.

    det(Gram_1) = 9 * (f11 - w^2) identically.
    """
    h, c = Fraction(h), Fraction(c)
    _check_pole(c, "f11")
    return 2 * h * h * (96 * h - 3 * c + 6) / (27 * (5 * c + 22))


def discrete_series_index(c: Fraction) -> int | None:
    """m >= 4 with c = 2(1 - 12/(m(m+1))), if the central charge matches."""
    if c >= 2:
        return None
    # m(m+1) = 24/(2-c)
    t = Fraction(24, 1) / (2 - c)
    if t.denominator != 1:
        return None
    n = t.numerator
    m = math.isqrt(n)
    return m if m >= 4 and m * (m + 1) == n else None


def constructive_bound_sq(c: Fraction, h: Fraction) -> Fraction | None:
    """The constructive family's bound on w^2 at (c, h),
    8/(198+45c) * (2h - (c-2)/12)^3; None where the family has no point
    (c < 2 or h < (c-2)/24)."""
    if c < 2 or h < Fraction(c - 2, 24):
        return None
    return Fraction(8, 198 + 45 * c) * (2 * h - Fraction(c - 2, 12)) ** 3


def classify(c, h, w) -> UnitarityVerdict:
    """Decide unitarity at real (c, h, w); exact when the inputs are exact."""
    c, h, w = _as_fraction(c), _as_fraction(h), _as_fraction(w)
    _check_pole(c, "classification")
    detail: dict = {"c": c, "h": h, "w": w}
    w2, quantity = w * w, None
    if c < 2:
        m = discrete_series_index(c)
        if m is not None:
            detail["discrete_series_m"] = m
            detail["note"] = ("central charge matches the discrete series; "
                              "the coset criterion is not implemented here")
    else:
        quantity = detail["f11_minus_w2"] = f11(h, c) - w2
    bound_sq = constructive_bound_sq(c, h)
    if c >= 2 and h == 0 and w == 0:
        status, witness = _VACUUM
    else:
        status, witness = _rule(c)(h, w, w2, quantity, bound_sq)
    if witness is Witness.CONSTRUCTIVE_FAMILY:
        detail["constructive_bound_sq"] = bound_sq
    return UnitarityVerdict(status, witness, detail)


# The vacuum h = w = 0 is unitary for every c >= 2, whichever range of c it
# lies in; classify and region_scan decide it before the c-range rule.
_VACUUM = (Status.UNITARY, Witness.VACUUM_THEOREM)

# The criteria, one function per range of c.  Each maps (h, w, w2, quantity,
# bound_sq) to (Status, Witness), where w2 = w^2, quantity = f11(h, c) - w^2
# and bound_sq = constructive_bound_sq(c, h); classify and region_scan both
# call them, region_scan with w2 and f11 taken once per column and row.

def _rule(c: Fraction):
    """The criterion that holds at central charge c != -22/5."""
    if c < 2:
        return _below_2
    return _classified if c <= 98 else _above_98


def _below_2(h, w, w2, quantity, bound_sq) -> tuple:
    """c < 2: the coset criterion is out of scope, so the verdict reads
    none of its inputs (quantity is None here)."""
    return Status.UNKNOWN, Witness.OUT_OF_CLASSIFIED_REGION


def _classified(h, w, w2, quantity, bound_sq) -> tuple:
    """2 <= c <= 98 away from the vacuum, where the criterion is
    complete."""
    if quantity >= 0:
        return Status.UNITARY, Witness.FIRST_KAC_DETERMINANT
    return Status.NOT_UNITARY, Witness.FIRST_KAC_DETERMINANT


def _above_98(h, w, w2, quantity, bound_sq) -> tuple:
    """c > 98 away from the vacuum: a partial answer from two one-sided
    witnesses."""
    if quantity < 0:
        return Status.NOT_UNITARY, Witness.NECESSARY_CONDITION_FAILED
    if bound_sq is not None and w2 <= bound_sq:
        return Status.UNITARY, Witness.CONSTRUCTIVE_FAMILY
    return Status.UNKNOWN, Witness.OUT_OF_CLASSIFIED_REGION


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

CSV_FIELDS = ("c", "h", "w", "status", "witness", "f11_minus_w2",
              "constructive_bound")


def region_scan(c, h_range: tuple, w_range: tuple,
                resolution: int) -> list:
    """Dense grid of verdicts on [h_min,h_max] x [w_min,w_max] at fixed c,
    one dict per cell keyed by CSV_FIELDS, rows of fixed h in order.

    The axis work is linear in the resolution: w, w^2 and str(w) are taken
    once per column, f11 and the constructive bound once per row.  A cell
    costs one subtraction f11 - w^2 and one verdict, and below c = 2, where
    the verdict reads neither h nor w, no arithmetic at all.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    c = _as_fraction(c)
    _check_pole(c, "classification")
    h0, h1 = (_as_fraction(x) for x in h_range)
    w0, w1 = (_as_fraction(x) for x in w_range)
    steps = [Fraction(j, resolution - 1) for j in range(resolution)]
    columns = [(w, w * w, str(w))
               for w in (w0 + (w1 - w0) * t for t in steps)]
    rule, c_text, rows = _rule(c), str(c), []
    if c < 2:
        # _value_ is the plain attribute behind Enum's slower value property
        status, witness = rule(None, None, None, None, None)
        below = [(w_text, status._value_, witness._value_, "")
                 for _, _, w_text in columns]
    for t in steps:
        h = h0 + (h1 - h0) * t
        bound_sq = constructive_bound_sq(c, h)
        bound = "" if bound_sq is None else repr(float(bound_sq) ** 0.5)
        if c < 2:
            cells = below
        else:
            f11_hc, cells, h_zero = f11(h, c), [], h == 0
            for w, w2, w_text in columns:
                quantity = f11_hc - w2
                status, witness = (_VACUUM if h_zero and w == 0 else
                                   rule(h, w, w2, quantity, bound_sq))
                cells.append((w_text, status._value_, witness._value_,
                              str(quantity)))
        h_text = str(h)
        rows.extend({"c": c_text, "h": h_text, "w": w_text, "status": s,
                     "witness": wit, "f11_minus_w2": q,
                     "constructive_bound": bound}
                    for w_text, s, wit, q in cells)
    return rows


def region_scan_csv(rows) -> str:
    """The rows of ``region_scan`` as RFC-4180 CSV with a header line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows(map(itemgetter(*CSV_FIELDS), rows))
    return buf.getvalue()
