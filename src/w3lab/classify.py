"""Unitarity of the irreducible lowest-weight representation at real (c,h,w).

For 2 <= c <= 98 the answer is complete: unitary iff the first Kac
determinant quantity f11(h,c) - w^2 is >= 0 (f11 in the normalization that
matches the exact level-1 Gram determinant, det(Gram_1) = 9*(f11 - w^2)).
For c > 98 only two one-sided witnesses apply: membership in the
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
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .exact import PoleAtForbiddenCentralCharge
from .kac import f11


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


@dataclass
class UnitarityVerdict:
    status: Status
    witness: Witness
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"status": self.status.value, "witness": self.witness.value}
        d.update({k: (str(v) if isinstance(v, Fraction) else v)
                  for k, v in self.detail.items()})
        return d


def _as_fraction(x) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so the sign
    # logic below stays exact for whatever numbers the caller actually has.
    return x if isinstance(x, Fraction) else Fraction(x)


def discrete_series_index(c: Fraction) -> Optional[int]:
    """m >= 4 with c = 2(1 - 12/(m(m+1))), if the central charge matches."""
    if c >= 2:
        return None
    # m(m+1) = 24/(2-c)
    t = Fraction(24, 1) / (2 - c)
    if t.denominator != 1:
        return None
    n = t.numerator
    m = int((n ** 0.5))
    for cand in (m - 1, m, m + 1):
        if cand >= 4 and cand * (cand + 1) == n:
            return cand
    return None


def constructive_bound_sq(c: Fraction, h: Fraction) -> Optional[Fraction]:
    """The constructive family's bound on w^2 at (c, h),
    8/(198+45c) * (2h - (c-2)/12)^3; None where the family has no point
    (c < 2 or h < (c-2)/24)."""
    if c < 2 or h < Fraction(c - 2, 24):
        return None
    return Fraction(8, 198 + 45 * c) * (2 * h - Fraction(c - 2, 12)) ** 3


def constructive_family_contains(c: Fraction, h: Fraction,
                                 w: Fraction) -> bool:
    """Exact membership in the constructive unitary region."""
    bound = constructive_bound_sq(c, h)
    return bound is not None and w * w <= bound


def classify(c, h, w) -> UnitarityVerdict:
    """Decide unitarity at real (c, h, w); exact when the inputs are exact."""
    c, h, w = _as_fraction(c), _as_fraction(h), _as_fraction(w)
    if 22 + 5 * c == 0:
        raise PoleAtForbiddenCentralCharge("classification at c = -22/5")

    detail: dict = {"c": c, "h": h, "w": w}

    if c < 2:
        m = discrete_series_index(c)
        if m is not None:
            detail["discrete_series_m"] = m
            detail["note"] = ("central charge matches the discrete series; "
                              "the coset criterion is not implemented here")
        return UnitarityVerdict(Status.UNKNOWN,
                                Witness.OUT_OF_CLASSIFIED_REGION, detail)

    quantity = f11(h, c) - w * w
    detail["f11_minus_w2"] = quantity

    if c <= 98:
        if h == 0 and w == 0:
            return UnitarityVerdict(Status.UNITARY, Witness.VACUUM_THEOREM,
                                    detail)
        if quantity >= 0:
            return UnitarityVerdict(Status.UNITARY,
                                    Witness.FIRST_KAC_DETERMINANT, detail)
        return UnitarityVerdict(Status.NOT_UNITARY,
                                Witness.FIRST_KAC_DETERMINANT, detail)

    # c > 98: partial answer
    if quantity < 0:
        return UnitarityVerdict(Status.NOT_UNITARY,
                                Witness.NECESSARY_CONDITION_FAILED, detail)
    if constructive_family_contains(c, h, w):
        detail["constructive_bound_sq"] = constructive_bound_sq(c, h)
        return UnitarityVerdict(Status.UNITARY, Witness.CONSTRUCTIVE_FAMILY,
                                detail)
    return UnitarityVerdict(Status.UNKNOWN, Witness.OUT_OF_CLASSIFIED_REGION,
                            detail)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

CSV_FIELDS = ("c", "h", "w", "status", "witness", "f11_minus_w2",
              "constructive_bound")


def region_scan(c, h_range: Tuple, w_range: Tuple,
                resolution: int) -> List[dict]:
    """Dense grid of verdicts on [h_min,h_max] x [w_min,w_max] at fixed c."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    c = _as_fraction(c)
    h0, h1 = (_as_fraction(x) for x in h_range)
    w0, w1 = (_as_fraction(x) for x in w_range)
    rows = []
    for i in range(resolution):
        h = h0 + (h1 - h0) * Fraction(i, resolution - 1)
        bound_sq = constructive_bound_sq(c, h)
        bound = "" if bound_sq is None else repr(float(bound_sq) ** 0.5)
        for j in range(resolution):
            w = w0 + (w1 - w0) * Fraction(j, resolution - 1)
            v = classify(c, h, w)
            rows.append({
                "c": str(c), "h": str(h), "w": str(w),
                "status": v.status.value, "witness": v.witness.value,
                "f11_minus_w2": str(v.detail.get("f11_minus_w2", "")),
                "constructive_bound": bound,
            })
    return rows


def region_scan_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
