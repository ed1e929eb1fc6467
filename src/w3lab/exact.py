"""Exact scalar arithmetic for the symbolic side of the library.

Scalars are polynomials in the central charge ``c`` and the two lowest
weights ``h``, ``w`` with arbitrary-precision rational coefficients, divided
by a power of ``d = 22+5c`` (the reduction engine brings in nothing else,
since b^2 = 16/d).  Each is stored as a Laurent polynomial in ``(d, h, w)``,
in which the exponent of ``d`` may be negative: a dict from exponents to
nonzero integer numerators, over one positive common denominator per scalar.
That denominator is never reduced by +, - or *: a product multiplies the two
denominators, and a sum of scalars over the same denominator adds integers.
So no ring operation forms a Fraction or reduces a coefficient; a sum over
two different denominators takes one gcd, of the denominators.  Nothing
divides one scalar by another either: the symbolic determinant
(``verma.determinant``) is an expansion in minors.

Equality and ``hash`` both read the form over the least denominator
(``_reduced``), so a scalar is one value whatever its denominator.

The c-form, a numerator in ``(c, h, w)`` with reduced Fraction coefficients
over the least power of ``22+5c``, exists only at the edges: the
constructor takes it, ``terms`` and ``denom_power`` give it, and ``str``
and ``parse_scalar`` write and read it.  Both conversions substitute
c = (d-22)/5 or d = 5c+22 one (h, w) group at a time, as an integer Taylor
shift over one common denominator.  ``evaluate`` too sums integers over one
common denominator and forms one Fraction at the end.

No floating point is used anywhere in this module: sign decisions near the
vanishing locus of determinants are ill-conditioned, so everything is kept
rational.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

Monomial = Tuple[int, int, int]  # exponents of (c, h, w), or of (d, h, w)

_VARS = ("c", "h", "w")


class PoleAtForbiddenCentralCharge(ValueError):
    """Raised when evaluation hits the excluded central charge c = -22/5."""


def _monomial_sort_key(m: Monomial):
    # graded lexicographic with c > h > w; used for printing
    return (m[0] + m[1] + m[2], m[0], m[1], m[2])


@lru_cache(maxsize=None)
def _factor_text(m: Monomial) -> str:
    """The product of variables that ``m`` stands for, as ``str`` writes
    it: "c^2*h", or "" for the constant monomial."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(_VARS, m) if e)


def _groups(nums: Dict[Monomial, int], offset: int):
    """``nums`` split by (h, w) into integer lists indexed by the first
    exponent plus ``offset``."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for (e, eh, ew), x in nums.items():
        e += offset
        a = groups.get((eh, ew))
        if a is None:
            a = groups[eh, ew] = [0] * (e + 1)
        elif len(a) <= e:
            a.extend([0] * (e + 1 - len(a)))
        a[e] = x
    return groups


def _taylor_shift(a: List[int], s: int) -> None:
    """Replace the coefficients of p(x) in ``a`` by those of p(x + s)."""
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += s * a[j + 1]


def _to_laurent(terms: Dict[Monomial, Fraction], denom_power: int):
    """(nums, den): the c-form ``terms`` / (22+5c)**denom_power in
    (d, h, w), over one common denominator."""
    den = math.lcm(*[q.denominator for q in terms.values()])
    groups = _groups({m: q.numerator * (den // q.denominator)
                      for m, q in terms.items()}, 0)
    # c^k = (d-22)^k / 5^k, all over 5^top
    top = max(map(len, groups.values()), default=1) - 1
    out: Dict[Monomial, int] = {}
    for (eh, ew), a in groups.items():
        a = [x * 5 ** (top - k) for k, x in enumerate(a)]
        _taylor_shift(a, -22)
        for j, x in enumerate(a):
            if x:
                out[(j - denom_power, eh, ew)] = x
    return out, den * 5 ** top


def _powers(num: int, den: int, top: int) -> List[int]:
    """[num^k den^(top-k) for k = 0..top]: (num/den)^k over den^top."""
    nums, dens = [1], [1]
    for _ in range(top):
        nums.append(nums[-1] * num)
        dens.append(dens[-1] * den)
    return [n * d for n, d in zip(nums, reversed(dens))]


class ExactScalar:
    """A polynomial in (c, h, w) over Q, divided by (22+5c)**denom_power.

    Built from that c-form; stored as the Laurent polynomial in
    (d, h, w), d = 22+5c, with nonzero integer numerators over one positive
    denominator that need not be the least.  ``terms`` and ``denom_power``
    give the c-form back with the least power.
    """

    __slots__ = ("_n", "_den")

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None,
                 denom_power: int = 0):
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        self._n, self._den = _to_laurent(
            {m: Fraction(q) for m, q in (terms or {}).items() if q},
            denom_power)

    @staticmethod
    def _of(nums: Dict[Monomial, int], den: int) -> "ExactScalar":
        """The scalar with Laurent numerators ``nums`` (nonzero) over
        ``den`` > 0."""
        out = object.__new__(ExactScalar)
        out._n = nums
        out._den = den
        return out

    def _c_form(self):
        """(numerators, den): the c-form numerator in (c, h, w) with integer
        coefficients over ``den``, not reduced."""
        nums: Dict[Monomial, int] = {}
        for (eh, ew), a in _groups(self._n, self.denom_power).items():
            _taylor_shift(a, 22)  # d^j = (c' + 22)^j with c' = 5c
            for i, x in enumerate(a):
                if x:
                    nums[(i, eh, ew)] = x * 5 ** i
        return nums, self._den

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """The c-form numerator in (c, h, w) over (22+5c)**denom_power."""
        nums, den = self._c_form()
        return {m: Fraction(x, den) for m, x in nums.items()}

    @property
    def denom_power(self) -> int:
        """The least power of 22+5c that clears the denominators."""
        return max(0, -min((m[0] for m in self._n), default=0))

    # -- ring structure ------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return scalar(x)
        return NotImplemented

    def __add__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        den, d2 = self._den, other._den
        if den == d2:
            t, s2 = dict(self._n), 1
        else:  # over the lcm of the denominators
            g = math.gcd(den, d2)
            s1, s2 = d2 // g, den // g
            den *= s1
            t = {m: x * s1 for m, x in self._n.items()}
        for m, x in other._n.items():
            s = t.pop(m, 0) + x * s2
            if s:
                t[m] = s
        return ExactScalar._of(t, den if t else 1)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._of({m: -x for m, x in self._n.items()}, self._den)

    def __sub__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return ExactScalar._coerce(other) + (-self)

    def __mul__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t: Dict[Monomial, int] = {}
        get = t.get
        for (e1, i1, j1), x in self._n.items():
            for (e2, i2, j2), y in other._n.items():
                m = (e1 + e2, i1 + i2, j1 + j2)
                t[m] = get(m, 0) + x * y
        t = {m: x for m, x in t.items() if x}
        return ExactScalar._of(t, self._den * other._den if t else 1)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not representable")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self._n)

    def _reduced(self):
        """(numerators, den) over the least denominator, which equal
        scalars share."""
        g = math.gcd(self._den, *self._n.values())
        return {m: x // g for m, x in self._n.items()}, self._den // g

    def __eq__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._reduced() == other._reduced()

    def __hash__(self):
        nums, den = self._reduced()
        return hash((frozenset(nums.items()), den))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, c_val, h_val, w_val) -> Fraction:
        """Exact value at rational (c, h, w).

        Raises PoleAtForbiddenCentralCharge when c = -22/5 and the scalar
        actually carries a (22+5c) denominator.
        """
        d_val = 22 + 5 * Fraction(c_val)
        h_val, w_val = Fraction(h_val), Fraction(w_val)
        nums = self._n
        low = -self.denom_power
        if low and not d_val:
            raise PoleAtForbiddenCentralCharge(
                "evaluation at c = -22/5 hits the (22+5c) pole")
        if not nums:
            return Fraction(0)
        # d^e h^i w^j over d_den^E h_den^I w_den^J, with e shifted by -low
        # so that every power is nonnegative; d^low is applied at the end
        tops = [max(m[k] for m in nums) for k in range(3)]
        tops[0] -= low
        (dn, dd), (hn, hd), (wn, wd) = (
            (x.numerator, x.denominator) for x in (d_val, h_val, w_val))
        dp = _powers(dn, dd, tops[0])
        hp = _powers(hn, hd, tops[1])
        wp = _powers(wn, wd, tops[2])
        total = sum(x * dp[e - low] * hp[i] * wp[j]
                    for (e, i, j), x in nums.items())
        return Fraction(total * dd ** -low,
                        self._den * dd ** tops[0] * hd ** tops[1]
                        * wd ** tops[2] * dn ** -low)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        nums, den = self._c_form()
        if not nums:
            return "0"
        parts = []
        for mono in sorted(nums, key=_monomial_sort_key, reverse=True):
            x = nums[mono]
            g = math.gcd(x, den)
            mag = str(abs(x) // g)
            if g != den:
                mag += f"/{den // g}"
            factors = _factor_text(mono)
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = mag + "*" + factors
            parts.append(f" - {body}" if x < 0 else f" + {body}")
        text = "".join(parts)
        text = text[3:] if text[1] == "+" else "-" + text[3:]
        k = self.denom_power
        return f"({text})/(22+5c)^{k}" if k else text

    def __repr__(self):
        return f"ExactScalar({self})"


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?P<coef>\d+(?:/\d+)?)?"
    r"(?P<vars>(?:\*?\s*[chw](?:\^\d+)?)*)\s*")
_FACTOR_RE = re.compile(r"([chw])(?:\^(\d+))?")


def parse_scalar(text: str) -> ExactScalar:
    """Parse the textual form produced by ``str(ExactScalar)``."""
    s = text.strip()
    denom_power = 0
    m = re.fullmatch(r"\((?P<poly>.*)\)\s*/\s*\(22\s*\+\s*5c\)(?:\^(?P<k>\d+))?",
                     s, re.S)
    if m:
        s = m.group("poly").strip()
        denom_power = int(m.group("k") or 1)
    if s in ("0", ""):
        return ZERO
    terms: Dict[Monomial, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar at ...{s[pos:]!r}")
        sign, coef, factors = m.group("sign", "coef", "vars")
        if not coef and not factors.strip():
            raise ValueError(f"empty term in {text!r}")
        num, _, den = (coef or "1").partition("/")
        q = Fraction(-int(num) if sign == "-" else int(num), int(den or 1))
        exps = [0, 0, 0]
        for name, e in _FACTOR_RE.findall(factors):
            exps[_VARS.index(name)] += int(e or 1)
        mono = tuple(exps)
        terms[mono] = terms[mono] + q if mono in terms else q
        pos = m.end()
    return ExactScalar(terms, denom_power)


# ---------------------------------------------------------------------------
# common constants
# ---------------------------------------------------------------------------

def scalar(x) -> ExactScalar:
    """Lift an int or Fraction into the ring."""
    x = Fraction(x)
    return ExactScalar._of({(0, 0, 0): x.numerator} if x else {},
                           x.denominator)


ZERO = scalar(0)
ONE = scalar(1)
C = ExactScalar({(1, 0, 0): 1})
H = ExactScalar({(0, 1, 0): 1})
W = ExactScalar({(0, 0, 1): 1})
# b^2 = 16/(22+5c), the monomial 16 d^-1; b itself is irrational in c and
# only ever appears as a floating-point number on the Fock side.
B_SQUARED = ExactScalar._of({(-1, 0, 0): 16}, 1)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer/decimal strings into an exact rational."""
    return Fraction(text.strip())
