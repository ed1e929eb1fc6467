"""Reference Kac factors the closed form of ``w3lab.kac`` is compared
against, and a brute-force count of bicolored partitions, the exponents' P2.

f_mn goes through alpha_pm^2 = (50 - c +- sqrt((2-c)(98-c))) / 192 as complex
numbers, and f_mm through its factored display formula, so neither shares
code with ``w3lab.kac``'s integer route.  For m != n and 2 < c < 98 a single
f_mn is genuinely complex; only the paired product f_mn f_nm is real.

``closed_form`` is the exact product by a second route: f_mn in the
quadratic extension Q(sqrt(D)), D = (2-c)(98-c)/96^2, over reduced Fractions
or ExactScalars.
"""

import cmath
from fractions import Fraction


def alpha_pm_squared(c: float):
    root = cmath.sqrt(complex((2 - c) * (98 - c)))
    return (50 - c + root) / 192, (50 - c - root) / 192


def f_mn(m: int, n: int, h: float, c: float) -> complex:
    """f_mn = (64/9) A B^2 / (5c+22) in complex arithmetic."""
    ap, am = alpha_pm_squared(c)
    A = h + (4 - n * n) * ap + (4 - m * m) * am - 2 + m * n / 2.0
    B = h - 4 * ((n * n - 1) * ap + (m * m - 1) * am) - 2 * (1 - m * n)
    return 64.0 / 9.0 * A * B * B / (5 * c + 22)


def f_mm(m: int, h, c) -> Fraction:
    """Exact f_mm via its factored closed form."""
    h, c = Fraction(h), Fraction(c)
    num = ((c - 2) * m * m - c + 24 * h + 2) ** 2 \
        * (96 * h + (c - 2) * (m * m - 4))
    return num / (7776 * (5 * c + 22))


def f_mn_quadratic(m: int, n: int, h, c):
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


def closed_form(level: int, one, c, h, w, inv_den):
    """The closed-form product from the values ``one``, c, h, w and
    ``inv_den`` = 1/(22+5c), all Fractions or all ExactScalars.

    Each f_mn carries 1/(22+5c).  An m != n factor is paired with its
    conjugate f_nm: with (5c+22) f_mn = x + y sqrt(D), f_mn f_nm =
    (x^2 - y^2 D)/(22+5c)^2 and f_mn + f_nm = 2x/(22+5c), so the pair's
    factor f_mn f_nm - w^2 (f_mn + f_nm) + w^4 is rational in c, h, w.  On
    the diagonal m = n, y = 0.  The exponent of (m, n) is P2(N - mn).
    """
    w2 = w * w
    acc = one
    for k in range(1, level + 1):
        e = brute_force_bicolored(level - k)
        for m in range(1, k + 1):
            n = k // m
            if k % m or m > n:
                continue
            x, y, D = f_mn_quadratic(m, n, h, c)
            if m == n:
                fac = x * inv_den - w2
            else:
                fac = (((x * x - y * y * D) * inv_den - 2 * w2 * x) * inv_den
                       + w2 * w2)
            acc = acc * fac ** e
    return acc


def closed_form_exact(level: int, c, h, w) -> Fraction:
    """``closed_form`` at a rational point (c != -22/5)."""
    c, h, w = map(Fraction, (c, h, w))
    return closed_form(level, Fraction(1), c, h, w, 1 / (22 + 5 * c))


def brute_force_bicolored(n):
    """Independent bicolored-partition count: enumerate both color classes."""
    def partitions(k, smallest=1):
        if k == 0:
            return [()]
        out = []
        for p in range(smallest, k + 1):
            for rest in partitions(k - p, p):
                out.append((p,) + rest)
        return out
    count = 0
    for a in range(n + 1):
        count += len(partitions(a)) * len(partitions(n - a))
    return count
