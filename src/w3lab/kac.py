"""Closed-form Kac determinant machinery and the Gram comparison oracle.

The determinant at level N factors, up to a positive level-dependent
constant, as

    prod_{k=1..N} prod_{mn=k} (f_mn(h, c) - w^2)^{P2(N-k)}

where P2 is the bicolored partition counting function and f_mn is built from
alpha_pm^2 = (50 - c +- sqrt((2-c)(98-c))) / 192.  For m != n the two factors
f_mn, f_nm are algebraic conjugates; their sum and product are rational, so
the paired products are evaluated exactly in the quadratic extension
Q(sqrt(D)) with D = (2-c)(98-c)/96^2.  Every quantity here is exact: the same
code runs with Fraction coefficients (numeric points) and ExactScalar
coefficients (fully symbolic).  The float route through complex alpha_pm^2
is kept only as the tests' independent reference (tests/kac_reference.py).

Two normalization conventions for the first-level factor circulate,
differing by a factor 2; the exact level-1 Gram determinant equals
9 * (f11 - w^2) with f11 = 2h^2(96h - 3c + 6)/(27(5c+22)), the m = n = 1
value of f_mn.  The two loci w^2 = f11 and w^2 = f11/2 differ as sets, and
only the former is the true vanishing locus of the determinant.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Any, List, NamedTuple, Sequence, Tuple

from . import modular, verma
from .classify import _check_pole
from .exact import B_SQUARED, C, H, ONE, W, ExactScalar


class DegenerateSample(ValueError):
    """A comparison sample point sits on the vanishing locus."""


# ---------------------------------------------------------------------------
# bicolored partition counts
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def p2(n: int) -> int:
    """Number of bicolored partitions of n (two independent colors)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dp = [1] + [0] * n
    for _color in (1, 2):
        for part in range(1, n + 1):
            for s in range(part, n + 1):
                dp[s] += dp[s - part]
    return dp[n]


# ---------------------------------------------------------------------------
# f_mn in the quadratic extension
# ---------------------------------------------------------------------------

def _f_mn_ext(m: int, n: int, h, c) -> Tuple[Any, Any, Any]:
    """(x, y, D) with (5c+22) f_mn = x + y sqrt(D), exact over Q or the
    symbolic ring.

    With s = (50-c)/192 and alpha_pm^2 = s +- sqrt(D)/2, the two factors of
    (5c+22) f_mn = (64/9) A B^2 are
    A = h + (mn-4)/2 + (8-m^2-n^2) s + (m^2-n^2)/2 sqrt(D) and
    B = h + 2(mn-1) - 4(m^2+n^2-2) s + 2(m^2-n^2) sqrt(D).
    """
    s = (50 - c) * Fraction(1, 192)
    # D = (2-c)(98-c)/9216, so sqrt(D) = sqrt((2-c)(98-c))/96
    D = (2 - c) * (98 - c) * Fraction(1, 9216)
    q, d = m * m + n * n, m * m - n * n
    ax = Fraction(64, 9) * (h + Fraction(m * n - 4, 2) + (8 - q) * s)
    ay = Fraction(32 * d, 9)  # (64/9) A = ax + ay sqrt(D)
    bx = h + 2 * (m * n - 1) - 4 * (q - 2) * s  # B = bx + 2d sqrt(D)
    b2x, b2y = bx * bx + 4 * d * d * D, 4 * d * bx  # B^2
    return ax * b2x + ay * b2y * D, ax * b2y + ay * b2x, D


# ---------------------------------------------------------------------------
# the closed-form determinant
# ---------------------------------------------------------------------------

def kac_factors(level: int) -> Tuple[Tuple[int, int, int], ...]:
    """Factor table (m, n, exponent) covering mn = k <= N with P2(N-k)."""
    return tuple((m, k // m, p2(level - k)) for k in range(1, level + 1)
                 for m in range(1, k + 1) if k % m == 0)


def kac_closed_form_exact(level: int, c, h, w) -> Fraction:
    """Exact rational closed-form product at a rational (c, h, w) point.

    Raises PoleAtForbiddenCentralCharge at c = -22/5.  It runs over reduced
    Fractions, not the engine's point ring, because ``_f_mn_ext`` mixes in
    constants such as 1/192 whose denominators that ring need not hold.
    """
    c, h, w = map(Fraction, (c, h, w))
    _check_pole(c, "b^2 = 16/(22+5c) has its pole")
    return _closed_form(level, Fraction(1), c, h, w, 1 / (22 + 5 * c))


def kac_closed_form_symbolic(level: int) -> ExactScalar:
    """The closed-form product as an ExactScalar in (c, h, w)."""
    return _closed_form(level, ONE, C, H, W, B_SQUARED * Fraction(1, 16))


def _closed_form(level: int, one, c, h, w, inv_den):
    """The closed-form product from the values ``one``, c, h, w and
    ``inv_den`` = 1/(22+5c), all Fractions or all ExactScalars.

    Each f_mn carries 1/(22+5c).  An m != n factor is paired with its
    conjugate f_nm: with (5c+22) f_mn = x + y sqrt(D), f_mn f_nm =
    (x^2 - y^2 D)/(22+5c)^2 and f_mn + f_nm = 2x/(22+5c), so the pair's
    factor f_mn f_nm - w^2 (f_mn + f_nm) + w^4 is rational in c, h, w.  On
    the diagonal m = n, y = 0.
    """
    w2 = w * w
    acc = one
    for m, n, e in kac_factors(level):
        if m > n:
            continue
        x, y, D = _f_mn_ext(m, n, h, c)
        if m == n:
            fac = x * inv_den - w2
        else:
            fac = (((x * x - y * y * D) * inv_den - 2 * w2 * x) * inv_den
                   + w2 * w2)
        acc = acc * fac ** e
    return acc


# ---------------------------------------------------------------------------
# comparison with the exact Gram determinant
# ---------------------------------------------------------------------------

class ComparisonReport(NamedTuple):
    level: int
    points: List[Tuple[Fraction, Fraction, Fraction]]
    ratios: List[Fraction]
    constant: Fraction
    verdict: str

    def to_json(self) -> str:
        return json.dumps({
            "level": self.level,
            "points": [[str(x) for x in p] for p in self.points],
            "ratios": [str(r) for r in self.ratios],
            "constant": str(self.constant),
            "verdict": self.verdict,
            "method": "evaluated",
        }, indent=2)


def compare_with_gram(level: int,
                      sample_points: Sequence[Tuple],
                      tol: object = None,
                      gram: "verma.GramMatrix | None" = None
                      ) -> ComparisonReport:
    """Ratio det(Gram_N at point) / closed_form(N at point) across points.

    With a symbolic ``gram`` the determinant is taken of its value at each
    point.  Without one, the Gram matrix is built directly over Q at each
    point by the point engine.  Both sides are exact rationals, so the
    verdict is exact: "ok" iff every ratio equals the first and that ratio
    is positive.  ``tol`` is not read; the slot stays for callers that pass
    ``gram`` after it by position.
    """
    pts = [tuple(Fraction(x) for x in p) for p in sample_points]
    if len(pts) < 2:
        raise ValueError("need at least 2 sample points")
    closed_forms: List[Fraction] = []
    for (cv, hv, wv) in pts:
        cf = kac_closed_form_exact(level, cv, hv, wv)
        if cf == 0:
            raise DegenerateSample(
                f"closed form vanishes at c={cv}, h={hv}, w={wv}")
        closed_forms.append(cf)
    ratios: List[Fraction] = []
    for pt, cf in zip(pts, closed_forms):
        rows = (verma.gram_matrix(level, verma.point_ring(*pt)).entries
                if gram is None else gram.evaluate(*pt))
        ratios.append(modular.rational_determinant(rows) / cf)
    base = ratios[0]
    ok = base > 0 and all(r == base for r in ratios)
    return ComparisonReport(level=level, points=pts, ratios=ratios,
                            constant=base, verdict="ok" if ok else "fail")
