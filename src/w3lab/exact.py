"""Exact scalar arithmetic for the symbolic side of the library.

Scalars live in the ring of polynomials in the central charge ``c`` and the
two lowest weights ``h``, ``w`` with arbitrary-precision rational
coefficients, divided by a nonnegative power of ``(22+5c)``.  Every quantity
the reduction engine produces has exactly this shape, so the ring is closed
under all operations we need and structural equality is decidable.

No floating point is used anywhere in this module: sign decisions near the
vanishing locus of determinants are ill-conditioned, so everything is kept
rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Tuple

Monomial = Tuple[int, int, int]  # exponents of (c, h, w)

_VARS = ("c", "h", "w")

# Denominator polynomial 22 + 5c, as a c-coefficient list [22, 5].
_DEN_CONST = 22
_DEN_LIN = 5


class PoleAtForbiddenCentralCharge(ValueError):
    """Raised when evaluation hits the excluded central charge c = -22/5."""


def _monomial_sort_key(m: Monomial):
    # graded lexicographic with c > h > w; used for printing and division
    return (m[0] + m[1] + m[2], m[0], m[1], m[2])


def _divide_poly_by_den(terms: Dict[Monomial, Fraction]):
    """Divide a polynomial by (22+5c); return the quotient or None.

    The division is done per (h, w)-exponent group, treating each group as a
    univariate polynomial in c.
    """
    groups: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (ec, eh, ew), coef in terms.items():
        groups.setdefault((eh, ew), {})[ec] = coef
    out: Dict[Monomial, Fraction] = {}
    for (eh, ew), cpoly in groups.items():
        if not cpoly:
            continue
        deg = max(cpoly)
        rem = [cpoly.get(i, Fraction(0)) for i in range(deg + 1)]
        quo = [Fraction(0)] * max(deg, 1)
        for i in range(deg, 0, -1):
            q = rem[i] / _DEN_LIN
            quo[i - 1] = q
            rem[i - 1] -= _DEN_CONST * q
        if rem[0] != 0:
            return None
        for i, q in enumerate(quo):
            if q != 0:
                out[(i, eh, ew)] = q
    return out


class ExactScalar:
    """A polynomial in (c, h, w) over Q, divided by (22+5c)**denom_power.

    Instances are immutable and kept in canonical form: no zero coefficients
    are stored and ``denom_power`` is minimal (the numerator is not divisible
    by 22+5c unless the power is already zero).  Equality is therefore
    structural.
    """

    __slots__ = ("terms", "denom_power", "_hash")

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None,
                 denom_power: int = 0):
        terms = {m: Fraction(c) for m, c in (terms or {}).items() if c != 0}
        if denom_power < 0:
            raise ValueError("denom_power must be nonnegative")
        while denom_power > 0 and terms:
            reduced = _divide_poly_by_den(terms)
            if reduced is None:
                break
            terms = reduced
            denom_power -= 1
        if not terms:
            denom_power = 0
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denom_power", denom_power)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rational(q) -> "ExactScalar":
        q = Fraction(q)
        return ExactScalar({(0, 0, 0): q}) if q else ExactScalar()

    @staticmethod
    def monomial(ec: int, eh: int, ew: int, coef=1) -> "ExactScalar":
        return ExactScalar({(ec, eh, ew): Fraction(coef)})

    # -- ring structure ------------------------------------------------

    @staticmethod
    def _coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactScalar.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = max(self.denom_power, other.denom_power)
        terms = _scale_by_den(self.terms, k - self.denom_power)
        for m, c in _scale_by_den(other.terms, k - other.denom_power).items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return ExactScalar(terms, k)

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar({m: -c for m, c in self.terms.items()},
                           self.denom_power)

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
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return ExactScalar(terms, self.denom_power + other.denom_power)

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
        return bool(self.terms)

    def __eq__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.denom_power == other.denom_power
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            h = hash((self.denom_power, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- evaluation ------------------------------------------------------

    def evaluate(self, c_val, h_val, w_val) -> Fraction:
        """Exact value at rational (c, h, w).

        Raises PoleAtForbiddenCentralCharge when c = -22/5 and the scalar
        actually carries a (22+5c) denominator.
        """
        c_val, h_val, w_val = Fraction(c_val), Fraction(h_val), Fraction(w_val)
        den = _DEN_CONST + _DEN_LIN * c_val
        if den == 0 and self.denom_power > 0:
            raise PoleAtForbiddenCentralCharge(
                "evaluation at c = -22/5 hits the (22+5c) pole")
        num = Fraction(0)
        for (ec, eh, ew), coef in self.terms.items():
            num += coef * c_val**ec * h_val**eh * w_val**ew
        return num / den**self.denom_power if self.denom_power else num

    # -- exact division (needed by fraction-free elimination) -------------

    def exact_div(self, other: "ExactScalar") -> "ExactScalar":
        """Divide by ``other`` assuming the quotient lies in the ring."""
        other = ExactScalar._coerce(other)
        if not other:
            raise ZeroDivisionError("exact_div by zero")
        if not self:
            return ZERO
        # strip (22+5c) factors from the divisor numerator
        num = dict(other.terms)
        extra = 0
        while True:
            reduced = _divide_poly_by_den(num)
            if reduced is None:
                break
            num = reduced
            extra += 1
        quo = _poly_exact_div(self.terms, num)
        power = self.denom_power + extra - other.denom_power
        if power >= 0:
            return ExactScalar(quo, power)
        return ExactScalar(_scale_by_den(quo, -power), 0)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_monomial_sort_key, reverse=True):
            coef = self.terms[mono]
            factors = []
            for name, e in zip(_VARS, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coef)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            sign = "-" if coef < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        if self.denom_power:
            return f"({text})/(22+5c)^{self.denom_power}"
        return text

    def __repr__(self):
        return f"ExactScalar({self})"


def _scale_by_den(terms: Dict[Monomial, Fraction], k: int):
    """Multiply a polynomial by (22+5c)**k."""
    out = dict(terms)
    for _ in range(k):
        nxt: Dict[Monomial, Fraction] = {}
        for (ec, eh, ew), coef in out.items():
            m0 = (ec, eh, ew)
            nxt[m0] = nxt.get(m0, Fraction(0)) + _DEN_CONST * coef
            m1 = (ec + 1, eh, ew)
            nxt[m1] = nxt.get(m1, Fraction(0)) + _DEN_LIN * coef
        out = {m: c for m, c in nxt.items() if c != 0}
    return out


def _poly_exact_div(num: Dict[Monomial, Fraction],
                    den: Dict[Monomial, Fraction]) -> Dict[Monomial, Fraction]:
    """Multivariate exact polynomial division (remainder must vanish)."""
    rem = dict(num)
    lead_den = max(den, key=_monomial_sort_key)
    cden = den[lead_den]
    quo: Dict[Monomial, Fraction] = {}
    while rem:
        lead = max(rem, key=_monomial_sort_key)
        exps = tuple(a - b for a, b in zip(lead, lead_den))
        if any(e < 0 for e in exps):
            raise ArithmeticError("exact_div: divisor does not divide")
        q = rem[lead] / cden
        quo[exps] = quo.get(exps, Fraction(0)) + q
        for m, c in den.items():
            mm = (m[0] + exps[0], m[1] + exps[1], m[2] + exps[2])
            r = rem.get(mm, Fraction(0)) - q * c
            if r:
                rem[mm] = r
            else:
                rem.pop(mm, None)
    return quo


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?P<coef>\d+(?:/\d+)?)?"
    r"(?P<vars>(?:\*?\s*[chw](?:\^\d+)?)*)\s*")


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
        sign = -1 if m.group("sign") == "-" else 1
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if not m.group("coef") and not m.group("vars").strip():
            raise ValueError(f"empty term in {text!r}")
        exps = [0, 0, 0]
        for fac in re.finditer(r"([chw])(?:\^(\d+))?", m.group("vars")):
            exps[_VARS.index(fac.group(1))] += int(fac.group(2) or 1)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coef
        pos = m.end()
    return ExactScalar(terms, denom_power)


# ---------------------------------------------------------------------------
# common constants
# ---------------------------------------------------------------------------

ZERO = ExactScalar()
ONE = ExactScalar.from_rational(1)
C = ExactScalar.monomial(1, 0, 0)
H = ExactScalar.monomial(0, 1, 0)
W = ExactScalar.monomial(0, 0, 1)
# b^2 = 16/(22+5c); b itself is irrational in c and only ever appears as a
# floating-point number on the Fock side.
B_SQUARED = ExactScalar({(0, 0, 0): Fraction(16)}, 1)


def scalar(x) -> ExactScalar:
    """Coerce an int/Fraction into the ring."""
    return ExactScalar.from_rational(x)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer/decimal strings into an exact rational."""
    return Fraction(text.strip())
