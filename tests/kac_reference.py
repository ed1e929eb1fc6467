"""Float Kac factors: the reference the exact closed form is compared against,
and a brute-force count of bicolored partitions, the exponents' P2.

f_mn goes through alpha_pm^2 = (50 - c +- sqrt((2-c)(98-c))) / 192 as complex
numbers, and f_mm through its factored display formula, so neither shares
code with the quadratic-extension route of ``w3lab.kac``.  For m != n and
2 < c < 98 a single f_mn is genuinely complex; only the paired product
f_mn f_nm is real.
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
