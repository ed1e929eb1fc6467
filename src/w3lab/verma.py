"""Abstract lowest-weight calculus for the two-field algebra (L, W).

Ordered words of creation modes applied to the lowest weight vector span the
representation space; this module rewrites an arbitrary mode application back
into that ordered basis using the commutation relations

    [L_m, L_n] = (m-n) L_{m+n} + (c/12) m(m^2-1) delta_{m+n,0}
    [L_m, W_n] = (2m-n) W_{m+n}
    [W_m, W_n] = (c/360) m(m^2-1)(m^2-4) delta_{m+n,0}
                 + b^2 (m-n) Lambda_{m+n}
                 + (1/30)(m-n)(2m^2 - mn + 2n^2 - 8) L_{m+n}

with b^2 = 16/(22+5c) and
Lambda_n = sum_{k>-2} L_{n-k} L_k + sum_{k<=-2} L_k L_{n-k}
           - (3/10)(n+2)(n+3) L_n.

The L-coefficient in [W, W] is 1/30: that value is forced by the field-form
relations (expand the delta-function commutator into modes) and is the one the
free-field realization satisfies.

These relations are written once, as the table ``bracket`` over a coefficient
Ring, and the finite-range collapse of Lambda_s once, as ``lambda_terms``.
The rewriting Engine reads both, and so does ``fock.check_w3_relations`` over
a float Ring, so the Fock sweep checks this same table against the
free-field realization.

The rewriting Engine is parametric in its coefficient Ring.  Over SYMBOLIC
the coefficients are ExactScalars, i.e. polynomials in c, 1/(22+5c), h, w;
over point_ring(c, h, w) they are the values those take at one rational
point, which builds the Gram matrix at that point without the symbolic one.
That ring is Z[1/D], with D the lcm of the denominators of c, h, w, b^2 and
720: each value is n / D**k, never reduced, so its + and * take no gcd, and
``gram_matrix`` reduces each entry to a Fraction once, at the end.
``fraction_ring`` is Q at the point as reduced Fractions, for the closed-form
Kac product.  Each engine owns its memo, so results over different rings
never mix.
Termination of the rewriting recurses on the grade
g = 2*(number of L) + 3*(number of W), which strictly drops on every
commutator byproduct, plus the number of out-of-order adjacent pairs, which
drops on every swap.

The symbolic determinant is an expansion in minors and never divides; the
determinant over Q scales the rows to integers and hands them to
``modular.integer_determinant`` (Bareiss up to 40 rows, multi-modular
above).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from .exact import (B_SQUARED, C, ExactScalar, H, ONE, W, ZERO,
                    PoleAtForbiddenCentralCharge, parse_scalar, scalar)
from .modular import integer_determinant


class LevelTooLarge(ValueError):
    """Requested Gram level exceeds the configured symbolic-size guard."""


# Soft guard: P2(level)^2 exact reductions must stay desk-sized, in any ring.
DEFAULT_LEVEL_CAP = 6


class ModeWord(namedtuple("ModeWord", ("lpart", "wpart"))):
    """Ordered word L_{-m1}...L_{-ml} W_{-n1}...W_{-nk} applied to Omega.

    Both index tuples are weakly increasing positive integers.  A tuple, so
    that the hashing and equality of every memo and position lookup run in
    C, and so do the ``lpart`` and ``wpart`` getters.
    """

    __slots__ = ()

    def __new__(cls, lpart: Tuple[int, ...] = (),
                wpart: Tuple[int, ...] = ()):
        if any(m <= 0 for m in lpart) or any(n <= 0 for n in wpart):
            raise ValueError("mode indices must be positive")
        if list(lpart) != sorted(lpart) or list(wpart) != sorted(wpart):
            raise ValueError("mode indices must be weakly increasing")
        return tuple.__new__(cls, (lpart, wpart))

    @property
    def level(self) -> int:
        return sum(self.lpart) + sum(self.wpart)

    def label(self) -> str:
        if not self.lpart and not self.wpart:
            return "1"
        toks = [f"L-{m}" for m in self.lpart] + [f"W-{n}" for n in self.wpart]
        return " ".join(toks)

    @staticmethod
    def from_label(text: str) -> "ModeWord":
        text = text.strip()
        if text in ("1", ""):
            return OMEGA
        lpart, wpart = [], []
        for tok in text.split():
            gen, idx = tok[0], int(tok[1:])
            if idx >= 0:
                raise ValueError(f"expected negative mode index in {tok!r}")
            (lpart if gen == "L" else wpart).append(-idx)
        return ModeWord(tuple(sorted(lpart)), tuple(sorted(wpart)))


OMEGA = ModeWord()

# A vector in the module: finite map word -> coefficient in the engine's ring.
VermaVector = Dict[ModeWord, Any]

class Ring(NamedTuple):
    """The coefficients a rewriting engine works over.

    ``c``, ``h``, ``w`` and ``b2`` = 16/(22+5c) are the ring's values of the
    central charge, the two lowest weights and the [W, W] composite
    coefficient; ``lift`` maps an int or Fraction into the ring, and
    ``export`` maps a ring value to what ``gram_matrix`` and
    ``Engine.inner_product`` return.
    """

    one: Any
    zero: Any
    c: Any
    h: Any
    w: Any
    b2: Any
    lift: Callable[[Any], Any]
    export: Callable[[Any], Any] = lambda x: x


# Polynomials in (c, h, w) over powers of (22+5c): the symbolic Gram.
SYMBOLIC = Ring(ONE, ZERO, C, H, W, B_SQUARED, scalar)


def fraction_ring(c_val, h_val, w_val) -> Ring:
    """Q at a fixed rational point (c, h, w), as reduced Fractions.

    Raises PoleAtForbiddenCentralCharge at c = -22/5, where b^2 has its pole.
    """
    c_val, h_val, w_val = Fraction(c_val), Fraction(h_val), Fraction(w_val)
    den = 22 + 5 * c_val
    if den == 0:
        raise PoleAtForbiddenCentralCharge(
            "b^2 = 16/(22+5c) has its pole at c = -22/5")
    return Ring(Fraction(1), Fraction(0), c_val, h_val, w_val,
                Fraction(16) / den, Fraction)


# The constants of ``bracket`` and ``lambda_terms`` have denominators 12,
# 360, 30 and 10, all of which divide 720.
_CONSTANT_DENOMINATOR = 720


def point_ring(c_val, h_val, w_val) -> Ring:
    """Z[1/D] at a fixed rational point (c, h, w): the engine's ring for
    Gram matrices at a point.

    D is the lcm of the denominators of c, h, w, b^2 and 720, so every
    value the engine forms is n / D**k.  Values are kept in that form and
    never reduced, so + and * take no gcd; ``export`` gives the reduced
    Fraction.  ``lift`` raises ValueError on a denominator that does not
    divide D.  Raises PoleAtForbiddenCentralCharge at c = -22/5.
    """
    exact = fraction_ring(c_val, h_val, w_val)
    values = (exact.c, exact.h, exact.w, exact.b2)
    base = math.lcm(_CONSTANT_DENOMINATOR, *(x.denominator for x in values))
    powers = [1, base]  # powers[k] = D**k, extended on demand

    def power(k: int) -> int:
        while len(powers) <= k:
            powers.append(powers[-1] * base)
        return powers[k]

    class Point:
        """n / D**k, unreduced."""

        __slots__ = ("n", "k")

        def __init__(self, n: int, k: int):
            self.n = n
            self.k = k

        def __add__(self, other):
            k, j = self.k, other.k
            if k == j:
                return Point(self.n + other.n, k)
            try:
                if k > j:
                    return Point(self.n + other.n * powers[k - j], k)
                return Point(self.n * powers[j - k] + other.n, j)
            except IndexError:
                power(abs(k - j))
                return self + other

        def __mul__(self, other):
            return Point(self.n * other.n, self.k + other.k)

        def __bool__(self):
            return self.n != 0

    def lift(x) -> Point:
        if isinstance(x, int):
            return Point(x, 0)
        scale, rest = divmod(base, x.denominator)
        if rest:
            raise ValueError(f"the denominator of {x} does not divide {base}")
        return Point(x.numerator * scale, 1)

    def export(x: Point) -> Fraction:
        return Fraction(x.n, power(x.k))

    return Ring(Point(1, 0), Point(0, 0), *map(lift, values), lift, export)


def bracket(g1: str, m: int, g2: str, n: int,
            ring: Ring) -> List[Tuple[Any, str, int]]:
    """[X_m, Y_n] for X, Y in {L, W} as (coefficient, kind, index) terms.

    The commutator is the sum of coefficient * kind_index, where kind is
    "L", "W", "Lambda" or "1" (the central term, index 0).  Coefficients lie
    in ``ring``; terms whose coefficient vanishes identically are left out.
    """
    lift = ring.lift
    s = m + n
    if g1 == "L" and g2 == "L":
        out = [(lift(m - n), "L", s)] if m != n else []
        if s == 0 and m * (m * m - 1):
            out.append((ring.c * lift(Fraction(m * (m * m - 1), 12)), "1", 0))
        return out
    if g1 == "L":
        return [(lift(2 * m - n), "W", s)] if 2 * m != n else []
    if g2 == "L":
        # [W_m, L_n] = -[L_n, W_m]
        return [(lift(m - 2 * n), "W", s)] if 2 * n != m else []
    out = []
    if s == 0 and m * (m * m - 1) * (m * m - 4):
        out.append((ring.c * lift(Fraction(m * (m * m - 1) * (m * m - 4), 360)),
                    "1", 0))
    if m != n:
        out.append((ring.b2 * lift(m - n), "Lambda", s))
        lc = Fraction((m - n) * (2 * m * m - m * n + 2 * n * n - 8), 30)
        if lc:
            out.append((lift(lc), "L", s))
    return out


@lru_cache(maxsize=None)
def lambda_terms(s: int, level: int
                 ) -> Tuple[Tuple[Fraction, Tuple[int, ...]], ...]:
    """Lambda_s on vectors of level <= ``level`` as (coefficient, L indices).

    Each term is coefficient * L_{i1} ... L_{ir}, the last index acting
    first.  L_k kills such vectors for k > level, so the first normal-ordered
    sum runs over k in [-1, level] and the second over k in [s-level, -2].
    """
    terms = [(Fraction(1), (s - k, k)) for k in range(-1, level + 1)]
    terms += [(Fraction(1), (k, s - k)) for k in range(s - level, -1)]
    if (s + 2) * (s + 3):
        terms.append((Fraction(-3 * (s + 2) * (s + 3), 10), (s,)))
    return tuple(terms)


def _combine(acc: VermaVector, vec: VermaVector, scale) -> None:
    """acc += scale * vec, dropping coefficients that cancel to zero."""
    if not scale:
        return
    get = acc.get
    for word, coef in vec.items():
        cur = get(word)
        new = coef * scale if cur is None else cur + coef * scale
        if new:
            acc[word] = new
        elif cur is not None:
            del acc[word]


def _may_prepend(gen: str, idx: int, word: ModeWord) -> bool:
    """True if the creator (gen, idx<0) can be prepended keeping order."""
    m0 = -idx
    if gen == "L":
        return not word.lpart or m0 <= word.lpart[0]
    # W creators must sit after every L
    if word.lpart:
        return False
    return not word.wpart or m0 <= word.wpart[0]


def _prepended(gen: str, idx: int, word: ModeWord) -> ModeWord:
    m0 = -idx
    if gen == "L":
        return ModeWord((m0,) + word.lpart, word.wpart)
    return ModeWord(word.lpart, (m0,) + word.wpart)


def _leading(word: ModeWord) -> Tuple[str, int, ModeWord]:
    if word.lpart:
        return "L", -word.lpart[0], ModeWord(word.lpart[1:], word.wpart)
    return "W", -word.wpart[0], ModeWord((), word.wpart[1:])


class Engine:
    """The rewriting engine over one coefficient ring, with its own memo.

    The memo maps (gen, n, word) to the reduced vector of that mode applied
    to that word.  It is valid only for this engine's ring, which is why it
    lives here and not at module level.
    """

    def __init__(self, ring: Ring = SYMBOLIC):
        self.ring = ring
        self._memo: Dict[Tuple[str, int, ModeWord], VermaVector] = {}

    def _apply_word(self, gen: str, n: int, word: ModeWord) -> VermaVector:
        """Action of the generator mode (gen, n) on a basis word."""
        key = (gen, n, word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit

        ring = self.ring
        out: VermaVector = {}
        if not word.lpart and not word.wpart:
            if n < 0:
                out = {_prepended(gen, n, word): ring.one}
            elif n == 0:
                weight = ring.h if gen == "L" else ring.w
                if weight:
                    out = {OMEGA: weight}
            # positive modes annihilate Omega
        elif n < 0 and _may_prepend(gen, n, word):
            out = {_prepended(gen, n, word): ring.one}
        else:
            g1, i1, rest = _leading(word)
            # K_nu K_mu rest = K_mu (K_nu rest) + [K_nu, K_mu] rest
            apply_word = self._apply_word
            for w2, coef in apply_word(gen, n, rest).items():
                _combine(out, apply_word(g1, i1, w2), coef)
            for coef, kind, idx in bracket(gen, n, g1, i1, ring):
                if kind == "1":
                    vec = {rest: ring.one}
                elif kind == "Lambda":
                    vec = self.apply_lambda(idx, {rest: ring.one})
                else:
                    vec = apply_word(kind, idx, rest)
                _combine(out, vec, coef)

        self._memo[key] = out
        return out

    def apply_mode(self, gen: str, n: int, vec: VermaVector) -> VermaVector:
        """Exact action of L_n or W_n on a vector, in the ordered basis."""
        if gen not in ("L", "W"):
            raise ValueError(f"unknown generator {gen!r}")
        out: VermaVector = {}
        for word, coef in vec.items():
            _combine(out, self._apply_word(gen, n, word), coef)
        return out

    def apply_lambda(self, s: int, vec: VermaVector) -> VermaVector:
        """Action of Lambda_s, summed over the terms of ``lambda_terms``."""
        lift = self.ring.lift
        out: VermaVector = {}
        for word, coef in vec.items():
            for q, modes in lambda_terms(s, word.level):
                step = {word: self.ring.one}
                for k in reversed(modes):
                    step = self.apply_mode("L", k, step)
                _combine(out, step, coef if q == 1 else coef * lift(q))
        return out

    def inner_product(self, u: ModeWord, v: ModeWord):
        """<u Omega, v Omega> for the canonical form with <Omega, Omega> = 1.

        The left word is adjoined onto the right: its modes act with
        reversed order and negated indices, and the Omega-coefficient of the
        fully reduced vector is the value of the form, given as the ring's
        ``export`` of it.
        """
        ring = self.ring
        vec: VermaVector = {v: ring.one}
        for gen, modes in (("L", u.lpart), ("W", u.wpart)):
            for m in modes:
                vec = self.apply_mode(gen, m, vec)
        return ring.export(vec.get(OMEGA, ring.zero))


def clear_cache() -> None:
    """Reset the rewriting memo.

    Every Gram build runs on a fresh Engine whose memo lives only as long as
    that call, so there is no shared memo left to clear.  Kept for callers
    that reset it between runs.
    """


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------

def enumerate_basis(level: int) -> List[ModeWord]:
    """All ordered words of the given level, in a fixed deterministic order.

    The order is descending lexicographic on (lpart, wpart), which puts the
    all-L words first and the all-W words last.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    words = [ModeWord(lpart[::-1], wpart[::-1])
             for n in range(level + 1)
             for lpart in partitions(n) for wpart in partitions(level - n)]
    words.sort(key=lambda w: (w.lpart, w.wpart), reverse=True)
    return words


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The partitions of n as weakly decreasing tuples, largest parts first."""
    out: List[Tuple[int, ...]] = []
    def rec(prefix, largest, remaining):
        if remaining == 0:
            out.append(prefix)
        for p in range(min(largest, remaining), 0, -1):
            rec(prefix + (p,), p, remaining - p)
    rec((), n, n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

class GramMatrix(NamedTuple):
    """A Gram matrix over its basis; entries lie in the ring it was built in."""

    level: int
    basis: List[ModeWord]
    entries: List[List[Any]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def evaluate(self, c_val, h_val, w_val) -> List[List[Fraction]]:
        return [[e.evaluate(c_val, h_val, w_val) for e in row]
                for row in self.entries]

    def payload(self) -> dict:
        """The object ``to_json`` writes: level, basis labels, entry strings."""
        return {
            "level": self.level,
            "basis": [w.label() for w in self.basis],
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2)

    @staticmethod
    def from_json(text: str) -> "GramMatrix":
        payload = json.loads(text)
        return GramMatrix(
            level=payload["level"],
            basis=[ModeWord.from_label(s) for s in payload["basis"]],
            entries=[[parse_scalar(s) for s in row]
                     for row in payload["entries"]],
        )


def check_level(level: int, level_cap: int = DEFAULT_LEVEL_CAP) -> None:
    """Raise LevelTooLarge when a Gram build above the cap is requested."""
    if level > level_cap:
        raise LevelTooLarge(
            f"level {level} exceeds cap {level_cap}; raise level_cap if the "
            f"P2(level)^2 exact reductions are genuinely wanted")


def gram_matrix(level: int, level_cap: int = DEFAULT_LEVEL_CAP,
                ring: Ring = SYMBOLIC) -> GramMatrix:
    """Gram matrix of the canonical form at the given level, over ``ring``.

    Over SYMBOLIC the entries are ExactScalars in (c, h, w); over
    ``point_ring(c, h, w)`` they are the Fractions those take at the point,
    each reduced once, by the ring's ``export``, after the build.

    The levels 0..level are built in turn on one engine, each from the
    lower ones through the adjoint of the leading mode: for u = X_{-m} u',
    <u, v> = <u', X_m v> = sum_w (X_m v)[w] <u', w>, with X_m v one memoised
    rewrite and <u', w> an entry of the level-(N-m) Gram.  Entries are
    computed for j <= i and mirrored.  ``Engine.inner_product`` computes the
    same entries pairwise.
    """
    check_level(level, level_cap)
    engine = Engine(ring)
    zero = ring.zero
    basis, entries = [OMEGA], [[ring.one]]
    grams, positions = [entries], [{OMEGA: 0}]
    for n in range(1, level + 1):
        basis = enumerate_basis(n)
        d = len(basis)
        entries = [[zero] * d for _ in range(d)]
        for i, u in enumerate(basis):
            gen, idx, rest = _leading(u)
            pos = positions[n + idx]
            row = grams[n + idx][pos[rest]]
            for j in range(i + 1):
                acc = zero
                for word, coef in engine._apply_word(gen, -idx,
                                                     basis[j]).items():
                    x = row[pos[word]]
                    if x:
                        acc = acc + coef * x
                entries[i][j] = entries[j][i] = acc
        grams.append(entries)
        positions.append({word: i for i, word in enumerate(basis)})
    export = ring.export
    for i, row in enumerate(entries):
        for j in range(i + 1):
            row[j] = entries[j][i] = export(row[j])
    return GramMatrix(level, basis, entries)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def determinant(gram: GramMatrix) -> ExactScalar:
    """Exact symbolic determinant by expansion in minors, with no division.

    The rows are taken in turn.  After k rows, ``minors`` maps the bitmask
    of a set of k columns to the minor on the first k rows and those
    columns.  Row k extends each minor by one unused column j (Laplace
    along the minor's last row), with the sign of the parity of the used
    columns to the right of j.  That is n 2^(n-1) ring products.
    """
    n = gram.dimension
    minors = {0: ONE}
    for row in gram.entries:
        grown: Dict[int, ExactScalar] = {}
        for mask, minor in minors.items():
            odd = False
            for j in range(n - 1, -1, -1):
                if mask >> j & 1:
                    odd = not odd
                elif row[j]:
                    term = -(minor * row[j]) if odd else minor * row[j]
                    key = mask | 1 << j
                    grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors.get((1 << n) - 1, ZERO)


def rational_determinant(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix.

    Each row is scaled to integers by the lcm of its denominators, the
    integer determinant is taken by ``modular.integer_determinant``
    (Bareiss elimination up to ``modular.BAREISS_MAX_N`` rows,
    multi-modular above), and the result is divided by the product of the
    scales.
    """
    ints = []
    scale = 1
    for row in rows:
        s = math.lcm(*(q.denominator for q in row))
        ints.append([q.numerator * (s // q.denominator) for q in row])
        scale *= s
    return Fraction(integer_determinant(ints), scale)


def determinant_at(gram: GramMatrix, c_val, h_val, w_val) -> Fraction:
    """Exact rational determinant of a symbolic Gram evaluated at a point."""
    return rational_determinant(gram.evaluate(c_val, h_val, w_val))
