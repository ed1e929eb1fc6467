import math
import random
from fractions import Fraction

import pytest

from w3lab.exact import (B_SQUARED, C, ExactScalar, H, ONE,
                         PoleAtForbiddenCentralCharge, W, ZERO,
                         parse_rational, parse_scalar, scalar)

DEN = ExactScalar({(1, 0, 0): Fraction(5), (0, 0, 0): Fraction(22)})


def rand_scalar(rng, max_terms=4, with_denom=True):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    k = rng.randint(0, 2) if with_denom else 0
    return ExactScalar(terms, k)


def rand_scalars(rng, count):
    """``count`` random scalars, each times DEN**j for j = 0..3 in turn, so
    that numerators divisible by 22+5c (which a random numerator almost
    never is) come up as often as not."""
    return [rand_scalar(rng) * DEN ** (i % 4) for i in range(count)]


def test_additive_inverse():
    assert C + (-C) == ZERO
    assert not (C - C)


def test_like_terms_add():
    inv = ExactScalar({(0, 0, 0): Fraction(1)}, 1)
    assert inv + inv == ExactScalar({(0, 0, 0): Fraction(2)}, 1)


def test_disjoint_monomials_add():
    s = H * W + C * C
    assert s.terms == {(0, 1, 1): Fraction(1), (2, 0, 0): Fraction(1)}


def test_mul_cancellation_restores_zero_power():
    inv = ExactScalar({(0, 0, 0): Fraction(1)}, 1)
    assert DEN * inv == ONE
    assert (DEN * inv).denom_power == 0


def test_mul_partial_cancellation():
    out = B_SQUARED * DEN * DEN
    assert out == scalar(16) * DEN
    assert out.denom_power == 0


def test_mul_plain_monomials():
    assert H * H == ExactScalar({(0, 2, 0): 1})


def test_den_over_its_own_power_is_one():
    assert ExactScalar(DEN.terms, 1) == ONE
    assert ExactScalar(DEN.terms, 1).denom_power == 0
    assert ExactScalar((DEN * DEN).terms, 1) == DEN


def test_evaluate_b_squared():
    assert B_SQUARED.evaluate(2, 0, 0) == Fraction(1, 2)


def test_evaluate_monomials():
    assert (H * W).evaluate(17, 3, 4) == 12


def test_evaluate_pole():
    with pytest.raises(PoleAtForbiddenCentralCharge):
        B_SQUARED.evaluate(Fraction(-22, 5), 1, 1)
    # a denominator-free scalar is fine at the excluded charge
    assert (C + H).evaluate(Fraction(-22, 5), 1, 0) == Fraction(-17, 5)


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(1000):
        a, b, d = rand_scalars(rng, 3)
        assert (a + b) * d == a * d + b * d
    # associativity / commutativity spot checks
    for _ in range(200):
        a, b, d = rand_scalars(rng, 3)
        assert a * (b * d) == (a * b) * d
        assert a * b == b * a
        assert a + b == b + a


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(999)
    for _ in range(300):
        a, b = rand_scalars(rng, 2)
        cv = Fraction(rng.randint(-20, 100), rng.randint(1, 7))
        if 22 + 5 * cv == 0:
            continue
        hv = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        wv = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        pt = (cv, hv, wv)
        assert (a * b).evaluate(*pt) == a.evaluate(*pt) * b.evaluate(*pt)
        assert (a + b).evaluate(*pt) == a.evaluate(*pt) + b.evaluate(*pt)


def test_canonicalization_idempotent():
    rng = random.Random(77)
    for a in rand_scalars(rng, 300):
        again = ExactScalar(dict(a.terms), a.denom_power)
        assert again == a
        assert again.denom_power == a.denom_power


def test_denom_power_minimality():
    # the numerator is not divisible by the prime 22+5c: it does not vanish
    # identically at c = -22/5
    rng = random.Random(31)
    c0 = Fraction(-22, 5)
    for a in rand_scalars(rng, 200):
        if a.denom_power > 0:
            at_pole = {}
            for (ec, eh, ew), q in a.terms.items():
                at_pole[eh, ew] = at_pole.get((eh, ew), 0) + q * c0 ** ec
            assert any(at_pole.values())


def test_serialization_round_trip():
    rng = random.Random(4242)
    for a in rand_scalars(rng, 300):
        assert parse_scalar(str(a)) == a
    sample = "(64*h^3 - 3*h^2*c + 6*h^2)/(22+5c)^1"
    expect = ExactScalar({(0, 3, 0): Fraction(64), (1, 2, 0): Fraction(-3),
                          (0, 2, 0): Fraction(6)}, 1)
    assert parse_scalar(sample) == expect
    assert parse_scalar(str(ZERO)) == ZERO
    assert str(ONE) == "1"


@pytest.mark.parametrize("text, message", [
    ("c +", "empty term in 'c +'"),
    ("x", "cannot parse scalar at ...'x'"),
])
def test_parse_scalar_rejects_malformed_text(text, message):
    with pytest.raises(ValueError) as err:
        parse_scalar(text)
    assert str(err.value) == message


def test_parse_rational_strips_blanks():
    assert parse_rational(" 3/4 ") == Fraction(3, 4)


def test_repr_and_foreign_operands():
    assert repr(ONE) == "ExactScalar(1)"
    for op in (lambda x: ONE + x, lambda x: ONE - x, lambda x: ONE * x):
        with pytest.raises(TypeError):
            op("x")
    assert (ONE == "x") is False


def test_negative_denominator_power_is_rejected():
    with pytest.raises(ValueError, match="denom_power must be nonnegative"):
        ExactScalar({}, -1)


def test_pow():
    assert (C + ONE) ** 3 == (C + ONE) * (C + ONE) * (C + ONE)
    assert (H ** 0) == ONE
    with pytest.raises(ValueError):
        H ** -1


# ---------------------------------------------------------------------------
# differential test against a Fraction-dict reference
# ---------------------------------------------------------------------------
#
# The reference is a Laurent polynomial in (d, h, w), d = 22+5c, as a dict
# from exponents to nonzero reduced Fractions: one canonical form per value.

def ref_add(a, b):
    out = dict(a)
    for m, q in b.items():
        out[m] = out.get(m, 0) + q
    return {m: q for m, q in out.items() if q}


def ref_mul(a, b):
    out = {}
    for (e1, i1, j1), p in a.items():
        for (e2, i2, j2), q in b.items():
            m = (e1 + e2, i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + p * q
    return {m: q for m, q in out.items() if q}


def ref_pow(a, n):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_evaluate(a, c, h, w):
    """The value as a sum of Fraction powers and products."""
    d = 22 + 5 * Fraction(c)
    return sum((q * d ** e * Fraction(h) ** i * Fraction(w) ** j
                for (e, i, j), q in a.items()), Fraction(0))


def ref_c_form(a):
    """(terms, k): the numerator in (c, h, w) over (22+5c)^k, k the least
    power, by the binomial expansion of d^n = (5c + 22)^n."""
    k = max(0, -min((e for e, _, _ in a), default=0))
    out = {}
    for (e, i, j), q in a.items():
        n = e + k
        for r in range(n + 1):
            m = (r, i, j)
            out[m] = out.get(m, 0) + q * math.comb(n, r) * 5 ** r * 22 ** (n - r)
    return {m: q for m, q in out.items() if q}, k


def as_ref(x):
    """The reference form of an ExactScalar, read off its integer
    numerators and common denominator."""
    return {m: Fraction(n, x._den) for m, n in x._n.items()}


def from_ref(a, rng):
    """The ExactScalar of ``a`` over a random multiple of the least common
    denominator, so that equal values come with unequal denominators."""
    den = math.lcm(*(q.denominator for q in a.values())) * rng.choice(
        (1, 2, 7, 720, 720 ** 2))
    return ExactScalar._of({m: int(q * den) for m, q in a.items()}, den)


def rand_ref(rng, max_terms=4):
    """Random Laurent terms with d-powers -3..2 and denominators that do
    and do not divide 720."""
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        m = (rng.randint(-3, 2), rng.randint(0, 2), rng.randint(0, 2))
        out[m] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 7, 11, 720)))
    return {m: q for m, q in out.items() if q}


def test_ring_operations_match_the_fraction_reference():
    rng = random.Random(2024)
    for _ in range(400):
        a, b = rand_ref(rng), rand_ref(rng)
        x, y = from_ref(a, rng), from_ref(b, rng)
        assert as_ref(x + y) == ref_add(a, b)
        assert as_ref(x - y) == ref_add(a, {m: -q for m, q in b.items()})
        assert as_ref(-x) == {m: -q for m, q in a.items()}
        assert as_ref(x * y) == ref_mul(a, b)
        assert as_ref(x ** 3) == ref_pow(a, 3)
        assert as_ref(x + 3) == ref_add(a, {(0, 0, 0): Fraction(3)})
        assert as_ref(Fraction(1, 7) * x) == ref_mul(a, {(0, 0, 0):
                                                       Fraction(1, 7)})
        assert bool(x) == bool(a)
        assert (x == y) == (a == b)
        # the same value over another denominator
        again = from_ref(a, rng)
        assert again == x and hash(again) == hash(x)


def test_products_that_cancel_are_zero():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_ref(rng), rand_ref(rng)
        x, y = from_ref(a, rng), from_ref(b, rng)
        for z in ((x + y) * (x - y) - (x * x - y * y), x * y - y * x,
                  x * (y - y), x - from_ref(a, rng)):
            assert not z and z == ZERO and hash(z) == hash(ZERO)
            assert as_ref(z) == {} and z.denom_power == 0
            assert str(z) == "0" and parse_scalar(str(z)) == ZERO
    assert scalar(Fraction(1, 7)) * 7 == ONE
    assert scalar(Fraction(1, 11)) - Fraction(1, 11) == ZERO


def test_c_form_and_text_match_the_fraction_reference():
    rng = random.Random(99)
    for _ in range(300):
        a = ref_mul(rand_ref(rng), rand_ref(rng))
        x = from_ref(a, rng)
        terms, k = ref_c_form(a)
        assert x.terms == terms
        assert x.denom_power == k
        assert str(x) == str(ExactScalar(terms, k))
        back = parse_scalar(str(x))
        assert as_ref(back) == a
        assert back == x and hash(back) == hash(x)


def test_evaluate_matches_the_fraction_formula():
    """Sums over one common denominator agree with the sum of Fraction
    powers at random rational points, c = -22/5 included."""
    rng = random.Random(5)
    for trial in range(300):
        a = rand_ref(rng)
        x = from_ref(a, rng)
        c = (Fraction(-22, 5) if trial % 5 == 0
             else Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
        h = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if 22 + 5 * c == 0 and x.denom_power:
            with pytest.raises(PoleAtForbiddenCentralCharge):
                x.evaluate(c, h, w)
        else:
            assert x.evaluate(c, h, w) == ref_evaluate(a, c, h, w)
