"""Closed-form Kac determinant machinery and the Gram comparison oracle.

The determinant at level N factors, up to a positive level-dependent
constant, as

    prod_{k=1..N} prod_{mn=k} (f_mn(h, c) - w^2)^{P2(N-k)}

where P2 is the bicolored partition counting function and f_mn is built from
alpha_pm^2 = (50 - c +- sqrt((2-c)(98-c))) / 192.  For m != n the two factors
f_mn, f_nm are algebraic conjugates; their sum and product are rational, so
the paired products are evaluated exactly in the quadratic extension
Q(sqrt(D)) with D = (2-c)(98-c)/96^2.  The same code runs with Fraction
coefficients (numeric points) and ExactScalar coefficients (fully symbolic).

Two normalization conventions for the first-level factor circulate,
differing by a factor 2; the exact level-1 Gram determinant equals
9 * (f_mm|_{m=1} - w^2), so f11 here is the f_mm value.  The two loci
w^2 = f11 and w^2 = f11/2 differ as sets, and only the former is the true
vanishing locus of the determinant.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, List, Sequence, Tuple

from . import verma
from .exact import ExactScalar, PoleAtForbiddenCentralCharge

IM_TOL = 1e-10


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


def alpha_pm_squared(c_val: float) -> Tuple[complex, complex]:
    root = cmath.sqrt(complex((2 - c_val) * (98 - c_val)))
    return ((50 - c_val + root) / 192, (50 - c_val - root) / 192)


def _as_real(z: complex, what: str) -> float:
    if abs(z.imag) > IM_TOL * (1.0 + abs(z.real)):
        raise ArithmeticError(f"{what}: imaginary residue {z.imag!r} too large")
    return z.real


def f_mn(m: int, n: int, h: float, c: float) -> float:
    """Numeric f_mn via complex arithmetic; the result must be real.

    For m != n and 2 < c < 98 the two alpha_pm^2 are complex conjugates and
    f_mn is genuinely real only in paired products; this function returns the
    real value of the single factor and asserts the imaginary residue is
    negligible (which holds whenever the inputs make f_mn real, e.g. m = n or
    c outside (2, 98)).  Use f_pair_product for m != n inside (2, 98).
    """
    if abs(22 + 5 * c) < 1e-300:
        raise PoleAtForbiddenCentralCharge("f_mn at c = -22/5")
    return _as_real(_f_mn_complex(m, n, h, c) / (5 * c + 22), f"f_{m}{n}")


def _f_mn_complex(m: int, n: int, h: float, c: float) -> complex:
    """(5c+22) * f_mn as a complex number (pole factored out)."""
    ap, am = alpha_pm_squared(c)
    A = h + (4 - n * n) * ap + (4 - m * m) * am - 2 + m * n / 2.0
    B = h - 4 * ((n * n - 1) * ap + (m * m - 1) * am) - 2 * (1 - m * n)
    return 64.0 / 9.0 * A * B * B


def f_pair_product(m: int, n: int, h, c) -> Fraction:
    """Exact f_mn * f_nm, rational because swapping m and n swaps
    alpha_+^2 and alpha_-^2, so f_nm is the conjugate of f_mn."""
    h, c = Fraction(h), Fraction(c)
    x, y, D = _f_mn_ext(m, n, h, c)
    return (x * x - y * y * D) / (5 * c + 22) ** 2


def f_mm(m: int, h, c) -> Fraction:
    """Exact f_mm via its factored closed form; equals the general formula at m=n."""
    h, c = Fraction(h), Fraction(c)
    den = 7776 * (5 * c + 22)
    if den == 0:
        raise PoleAtForbiddenCentralCharge("f_mm at c = -22/5")
    num = ((c - 2) * m * m - c + 24 * h + 2) ** 2 * (96 * h + (c - 2) * (m * m - 4))
    return num / den


def f11(h, c) -> Fraction:
    """First Kac determinant up to the positive constant 9 (exact).

    This is f_mm at m = 1; det(Gram_1) = 9 * (f11 - w^2) identically.
    """
    return f_mm(1, h, c)


def f11_alt(h, c) -> Fraction:
    """The competing half-size normalization of the first-level factor."""
    h, c = Fraction(h), Fraction(c)
    return h * h * (96 * h - 3 * (c - 2)) / (27 * (5 * c + 22))


# ---------------------------------------------------------------------------
# the closed-form determinant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KacFactors:
    """Factor table (m, n, exponent) covering mn = k <= N with P2(N-k)."""

    level: int
    factors: Tuple[Tuple[int, int, int], ...]

    @staticmethod
    def at_level(level: int) -> "KacFactors":
        facs = []
        for k in range(1, level + 1):
            e = p2(level - k)
            for m in range(1, k + 1):
                if k % m == 0:
                    facs.append((m, k // m, e))
        return KacFactors(level, tuple(facs))


def kac_closed_form(level: int, c: float, h: float, w: float) -> float:
    """Numeric closed-form product via complex arithmetic.

    Near the branch points c = 2 and c = 98 the complex square root is
    ill-conditioned, so the computation falls back to the exact
    symmetric-function path there.
    """
    if abs(22 + 5 * c) < 1e-300:
        raise PoleAtForbiddenCentralCharge("closed form at c = -22/5")
    if abs((2 - c) * (98 - c)) < 1e-12:
        return float(kac_closed_form_exact(level, Fraction(c), Fraction(h),
                                           Fraction(w)))
    den = 5 * c + 22
    acc = complex(1.0)
    for m, n, e in KacFactors.at_level(level).factors:
        acc *= (_f_mn_complex(m, n, h, c) / den - w * w) ** e
    return _as_real(acc, f"kac_closed_form(level={level})")


def kac_closed_form_exact(level: int, c, h, w) -> Fraction:
    """Exact rational closed-form product at a rational (c, h, w) point.

    Raises PoleAtForbiddenCentralCharge at c = -22/5.
    """
    return _closed_form(level, verma.point_ring(c, h, w))


def kac_closed_form_symbolic(level: int) -> ExactScalar:
    """The closed-form product as an ExactScalar in (c, h, w)."""
    return _closed_form(level, verma.SYMBOLIC)


def _closed_form(level: int, ring: "verma.Ring"):
    """The closed-form product over a Verma coefficient ring.

    Each f_mn carries 1/(22+5c) = b^2/16, which the ring holds.  An m != n
    factor is paired with its conjugate f_nm: with (5c+22) f_mn = x + y
    sqrt(D), f_mn f_nm = (x^2 - y^2 D) b^4/256 and f_mn + f_nm = 2x b^2/16,
    so the pair's factor f_mn f_nm - w^2 (f_mn + f_nm) + w^4 stays inside
    the ring.  On the diagonal m = n, y = 0.
    """
    w2 = ring.w * ring.w
    inv_den = ring.b2 * ring.lift(Fraction(1, 16))
    acc = ring.one
    for m, n, e in KacFactors.at_level(level).factors:
        if m > n:
            continue
        x, y, D = _f_mn_ext(m, n, ring.h, ring.c)
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

@dataclass
class ComparisonReport:
    level: int
    points: List[Tuple[Fraction, Fraction, Fraction]]
    ratios: List[Fraction]
    constant: Fraction
    max_rel_deviation: float
    verdict: str
    method: str = "evaluated"

    def to_json(self) -> str:
        return json.dumps({
            "level": self.level,
            "points": [[str(x) for x in p] for p in self.points],
            "ratios": [str(r) for r in self.ratios],
            "constant": str(self.constant),
            "maxRelDeviation": self.max_rel_deviation,
            "verdict": self.verdict,
            "method": self.method,
        }, indent=2)


def compare_with_gram(level: int,
                      sample_points: Sequence[Tuple],
                      tol: object = None,
                      gram: "verma.GramMatrix | None" = None,
                      level_cap: int = verma.DEFAULT_LEVEL_CAP
                      ) -> ComparisonReport:
    """Ratio det(Gram_N at point) / closed_form(N at point) across points.

    With a symbolic ``gram`` the determinant is taken of its value at each
    point.  Without one, the Gram matrix is built directly over Q at each
    point by the point engine, under ``level_cap``.  Both sides are exact
    rationals, so the verdict is exact: "ok" iff every ratio equals the
    first and that ratio is positive.  The relative spread is reported as a
    float, 0.0 whenever the formula holds.  ``tol`` is not read; the slot
    stays for callers that pass ``gram`` after it by position.
    """
    pts = [tuple(Fraction(x) for x in p) for p in sample_points]
    if len(pts) < 2:
        raise ValueError("need at least 2 sample points")
    if gram is None:
        verma.check_level(level, level_cap)
    closed_forms: List[Fraction] = []
    for (cv, hv, wv) in pts:
        cf = kac_closed_form_exact(level, cv, hv, wv)
        if cf == 0:
            raise DegenerateSample(f"closed form vanishes at {(cv, hv, wv)}")
        closed_forms.append(cf)
    ratios: List[Fraction] = []
    for pt, cf in zip(pts, closed_forms):
        if gram is None:
            rows = verma.gram_matrix(level, level_cap,
                                     verma.point_ring(*pt)).entries
            det = verma.rational_determinant(rows)
        else:
            det = verma.determinant_at(gram, *pt)
        ratios.append(det / cf)
    base = ratios[0]
    if base == 0:
        max_dev = max(abs(float(r)) for r in ratios)
    else:
        max_dev = max(abs(float((r - base) / base)) for r in ratios)
    exact = all(r == base for r in ratios)
    verdict = "ok" if (exact and base > 0) else "fail"
    return ComparisonReport(level=level, points=pts, ratios=ratios,
                            constant=base, max_rel_deviation=max_dev,
                            verdict=verdict)
