"""Exact scalar arithmetic for the symbolic side of the library.

Scalars are polynomials in the central charge ``c`` and the two lowest
weights ``h``, ``w`` with arbitrary-precision rational coefficients, divided
by a power of ``d = 22+5c`` (the reduction engine brings in nothing else,
since b^2 = 16/d).  Each is stored as a Laurent polynomial in ``(d, h, w)``:
a dict from exponents to Fractions in which the exponent of ``d`` may be
negative.  That ring has one representation per element, so equality is
structural and +, -, * are plain dict operations that never divide.  Nothing
divides one scalar by another either: the symbolic determinant
(``verma.determinant``) is an expansion in minors.

The c-form, a numerator in ``(c, h, w)`` over the least power of ``22+5c``,
exists only at the edges: the constructor takes it, ``terms`` and
``denom_power`` give it, and ``str`` and ``parse_scalar`` write and read it.
Both conversions substitute c = (d-22)/5 or d = 5c+22 one (h, w) group at a
time, as an integer Taylor shift over one common denominator.

No floating point is used anywhere in this module: sign decisions near the
vanishing locus of determinants are ill-conditioned, so everything is kept
rational.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Tuple

Monomial = Tuple[int, int, int]  # exponents of (c, h, w), or of (d, h, w)

_VARS = ("c", "h", "w")


class PoleAtForbiddenCentralCharge(ValueError):
    """Raised when evaluation hits the excluded central charge c = -22/5."""


def _monomial_sort_key(m: Monomial):
    # graded lexicographic with c > h > w; used for printing
    return (m[0] + m[1] + m[2], m[0], m[1], m[2])


def _groups(terms: Dict[Monomial, Fraction], offset: int):
    """(den, groups): ``terms`` over one common denominator ``den``, split
    by (h, w) into integer lists indexed by the first exponent plus
    ``offset``."""
    den = math.lcm(*[q.denominator for q in terms.values()])
    groups: Dict[Tuple[int, int], List[int]] = {}
    for (e, eh, ew), q in terms.items():
        e += offset
        a = groups.get((eh, ew))
        if a is None:
            a = groups[eh, ew] = [0] * (e + 1)
        elif len(a) <= e:
            a.extend([0] * (e + 1 - len(a)))
        a[e] = q.numerator * (den // q.denominator)
    return den, groups


def _taylor_shift(a: List[int], s: int) -> None:
    """Replace the coefficients of p(x) in ``a`` by those of p(x + s)."""
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += s * a[j + 1]


def _to_laurent(terms: Dict[Monomial, Fraction], denom_power: int):
    """The c-form ``terms`` / (22+5c)**denom_power in (d, h, w)."""
    out: Dict[Monomial, Fraction] = {}
    den, groups = _groups(terms, 0)
    for (eh, ew), a in groups.items():
        # c^k = (d-22)^k / 5^k, all over 5^deg
        deg = len(a) - 1
        a = [x * 5 ** (deg - k) for k, x in enumerate(a)]
        _taylor_shift(a, -22)
        for j, x in enumerate(a):
            if x:
                out[(j - denom_power, eh, ew)] = Fraction(x, den * 5 ** deg)
    return out


class ExactScalar:
    """A polynomial in (c, h, w) over Q, divided by (22+5c)**denom_power.

    Built from that c-form; stored as the Laurent polynomial in
    (d, h, w), d = 22+5c, with no zero coefficients.  ``terms`` and
    ``denom_power`` give the c-form back with the least power.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None,
                 denom_power: int = 0):
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        self._t = _to_laurent({m: Fraction(q) for m, q in (terms or {}).items()
                               if q}, denom_power)

    @staticmethod
    def _of(t: Dict[Monomial, Fraction]) -> "ExactScalar":
        """The scalar with Laurent terms ``t`` (nonzero Fractions)."""
        out = object.__new__(ExactScalar)
        out._t = t
        return out

    @property
    def terms(self) -> Dict[Monomial, Fraction]:
        """The c-form numerator in (c, h, w) over (22+5c)**denom_power."""
        terms: Dict[Monomial, Fraction] = {}
        den, groups = _groups(self._t, self.denom_power)
        for (eh, ew), a in groups.items():
            _taylor_shift(a, 22)  # d^j = (c' + 22)^j with c' = 5c
            for i, x in enumerate(a):
                if x:
                    terms[(i, eh, ew)] = Fraction(x * 5 ** i, den)
        return terms

    @property
    def denom_power(self) -> int:
        """The least power of 22+5c that clears the denominators."""
        return max(0, -min((m[0] for m in self._t), default=0))

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
        t = dict(self._t)
        for m, q in other._t.items():
            s = t.pop(m, None)
            s = q if s is None else s + q
            if s:
                t[m] = s
        return ExactScalar._of(t)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._of({m: -q for m, q in self._t.items()})

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
        t: Dict[Monomial, Fraction] = {}
        for (a1, b1, c1), q1 in self._t.items():
            for (a2, b2, c2), q2 in other._t.items():
                m = (a1 + a2, b1 + b2, c1 + c2)
                t[m] = t[m] + q1 * q2 if m in t else q1 * q2
        return ExactScalar._of({m: q for m, q in t.items() if q})

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
        return bool(self._t)

    def __eq__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, c_val, h_val, w_val) -> Fraction:
        """Exact value at rational (c, h, w).

        Raises PoleAtForbiddenCentralCharge when c = -22/5 and the scalar
        actually carries a (22+5c) denominator.
        """
        h_val, w_val = Fraction(h_val), Fraction(w_val)
        d_val = 22 + 5 * Fraction(c_val)
        if d_val == 0 and self.denom_power:
            raise PoleAtForbiddenCentralCharge(
                "evaluation at c = -22/5 hits the (22+5c) pole")
        return sum((q * d_val**ed * h_val**eh * w_val**ew
                    for (ed, eh, ew), q in self._t.items()), Fraction(0))

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mono in sorted(terms, key=_monomial_sort_key, reverse=True):
            num, den = terms[mono].numerator, terms[mono].denominator
            factors = []
            for name, e in zip(_VARS, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not factors:
                body = mag
            elif mag == "1":
                body = "*".join(factors)
            else:
                body = mag + "*" + "*".join(factors)
            parts.append(("-" if num < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        if self.denom_power:
            return f"({text})/(22+5c)^{self.denom_power}"
        return text

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
    return ExactScalar._of({(0, 0, 0): x} if x else {})


ZERO = scalar(0)
ONE = scalar(1)
C = ExactScalar({(1, 0, 0): 1})
H = ExactScalar({(0, 1, 0): 1})
W = ExactScalar({(0, 0, 1): 1})
# b^2 = 16/(22+5c), the monomial 16 d^-1; b itself is irrational in c and
# only ever appears as a floating-point number on the Fock side.
B_SQUARED = ExactScalar._of({(-1, 0, 0): Fraction(16)})


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer/decimal strings into an exact rational."""
    return Fraction(text.strip())
