"""Closed-form Kac determinant machinery and the Gram comparison oracle.

The determinant at level N is C_N = ``kac_constant(N)`` (checked through
N = 8) times

    prod_{k=1..N} prod_{mn=k} (f_mn(h, c) - w^2)^{P2(N-k)}

where P2 is the bicolored partition counting function and f_mn is built from
alpha_pm^2 = (50 - c +- sqrt((2-c)(98-c))) / 192.  For m != n the two factors
f_mn, f_nm are algebraic conjugates; their sum and product are rational.
``_kac_factor`` writes each factor, paired or diagonal, in integers; the
symbolic product runs the same code on ExactScalars.  The tests' independent
references are in tests/kac_reference.py.

Two normalization conventions for the first-level factor circulate,
differing by a factor 2; the exact level-1 Gram determinant equals
9 * (f11 - w^2) with f11 = 2h^2(96h - 3c + 6)/(27(5c+22)), the m = n = 1
value of f_mn.  The two loci w^2 = f11 and w^2 = f11/2 differ as sets, and
only the former is the true vanishing locus of the determinant.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from . import modular, verma
from .classify import _check_pole
from .exact import B_SQUARED, C, H, ONE, W, ExactScalar


class DegenerateSample(ValueError):
    """A comparison sample point sits on the vanishing locus."""


# ---------------------------------------------------------------------------
# one Kac factor in integers
# ---------------------------------------------------------------------------

def _kac_factor(m: int, n: int, a, b, hn, hd, wn, wd):
    """(num, den, k) with the factor of (m, n), m <= n, equal to
    num / (den g^k), where c = a/b, h = hn/hd, w^2 = wn/wd and g = 22b + 5a.

    With r = (2b-a)(98b-a), so that sqrt((2-c)(98-c)) = sqrt(r)/b, the two
    pieces of (5c+22) f_mn = (64/9) A B^2 are A = (ax + e sqrt(r))/(192 b hd)
    and B = (bx + e sqrt(r))/(48 b hd) with e = (m^2-n^2) hd, so
    f_mn = P / (L g) with P = (ax + e sqrt(r))(bx + e sqrt(r))^2 and
    L = 62208 b^2 hd^3.  The conjugate f_nm takes -sqrt(r).  On the diagonal
    the factor is f_mm - w^2; for m < n it is the pair product
    f_mn f_nm - w^2 (f_mn + f_nm) + w^4, whose terms are rational: P times
    its conjugate is the norm (ax^2 - e^2 r)(bx^2 - e^2 r)^2, and their sum
    is twice the rational part px.  The arguments are ints, or ExactScalars
    with b = hd = wd = 1.
    """
    q, e = m * m + n * n, (m * m - n * n) * hd
    s = (50 * b - a) * hd  # 192 b hd (50-c)/192
    ax = 192 * b * hn + 96 * (m * n - 4) * b * hd + (8 - q) * s
    bx = 48 * b * hn + 96 * (m * n - 1) * b * hd - (q - 2) * s
    er = e * e * (2 * b - a) * (98 * b - a)
    px = ax * bx * bx + er * (ax + 2 * bx)
    big_l = 62208 * b * b * hd * hd * hd
    u = wn * big_l * (22 * b + 5 * a)  # w^2 L g, over wd
    if m == n:
        return px * wd - u, big_l * wd, 1
    nb = bx * bx - er
    norm = (ax * ax - er) * nb * nb
    return (norm * wd * wd - 2 * px * wd * u + u * u,
            big_l * big_l * wd * wd, 2)


# ---------------------------------------------------------------------------
# the closed-form determinant
# ---------------------------------------------------------------------------

def kac_factors(level: int) -> Tuple[Tuple[int, int, int], ...]:
    """Factor table (m, n, exponent) covering mn = k <= N with P2(N-k),
    the number of bicolored partitions of N-k."""
    return tuple((m, k // m, len(verma.level_keys(level - k)))
                 for k in range(1, level + 1)
                 for m in range(1, k + 1) if k % m == 0)


def kac_constant(level: int) -> int:
    """C_N = prod (3mn)^(2e) over ``kac_factors(N)``, the constant the exact
    ratio det(Gram_N) / closed form takes at levels 1-8."""
    return math.prod((3 * m * n) ** (2 * e) for m, n, e in kac_factors(level))


def kac_closed_form_exact(level: int, c, h, w) -> Fraction:
    """Exact rational closed-form product at a rational (c, h, w) point.

    Raises PoleAtForbiddenCentralCharge at c = -22/5.  Each factor comes
    from ``_kac_factor`` in integers; its numerator and denominator lose
    their gcd, are raised and multiplied as ints, and one Fraction is
    formed at the end.
    """
    c, h, w = map(Fraction, (c, h, w))
    _check_pole(c, "b^2 = 16/(22+5c) has its pole")
    a, b, w2 = c.numerator, c.denominator, w * w
    num, den, k_total = 1, 1, 0
    for m, n, e in kac_factors(level):
        if m > n:
            continue
        fn, fd, k = _kac_factor(m, n, a, b, h.numerator, h.denominator,
                                w2.numerator, w2.denominator)
        g = math.gcd(fn, fd)
        num *= (fn // g) ** e
        den *= (fd // g) ** e
        k_total += k * e
    return Fraction(num, den * (22 * b + 5 * a) ** k_total)


def kac_closed_form_symbolic(level: int) -> ExactScalar:
    """The closed-form product as an ExactScalar in (c, h, w), from the same
    ``_kac_factor`` with 1/g = b^2/16."""
    inv_g = B_SQUARED * Fraction(1, 16)
    acc = ONE
    for m, n, e in kac_factors(level):
        if m <= n:
            fn, fd, k = _kac_factor(m, n, C, 1, H, 1, W * W, 1)
            acc = acc * (fn * Fraction(1, fd) * inv_g ** k) ** e
    return acc


# ---------------------------------------------------------------------------
# comparison with the exact Gram determinant
# ---------------------------------------------------------------------------

class ComparisonReport(NamedTuple):
    level: int
    points: List[Tuple[Fraction, Fraction, Fraction]]
    ratios: List[Fraction]
    verdict: str

    def to_json(self) -> str:
        return json.dumps({
            "level": self.level,
            "points": [[str(x) for x in p] for p in self.points],
            "ratios": [str(r) for r in self.ratios],
            "constant": str(kac_constant(self.level)),
            "verdict": self.verdict,
            "method": "evaluated",
        }, indent=2)


def compare_with_gram(level: int,
                      sample_points: Sequence[Tuple],
                      tol: object = None,
                      gram: "verma.GramMatrix | None" = None
                      ) -> ComparisonReport:
    """Ratio det(Gram_N at point) / closed_form(N at point) at each point.

    With a symbolic ``gram`` the determinant is taken of its value at each
    point.  Without one, the Gram matrix is built directly over Q at each
    point by the point engine.  Both sides are exact rationals, so the
    verdict is exact: "ok" iff every ratio equals ``kac_constant(level)``,
    which makes one point a complete check.  An empty point list is
    refused.  ``tol`` is not read; the slot stays for callers that pass
    ``gram`` after it by position.
    """
    pts = [tuple(Fraction(x) for x in p) for p in sample_points]
    if not pts:
        raise ValueError("need at least one sample point")
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
    ok = all(r == kac_constant(level) for r in ratios)
    return ComparisonReport(level=level, points=pts, ratios=ratios,
                            verdict="ok" if ok else "fail")
