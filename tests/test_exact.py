import random
from fractions import Fraction

import pytest

from w3lab.exact import (B_SQUARED, C, ExactScalar, H, ONE,
                         PoleAtForbiddenCentralCharge, W, ZERO, parse_scalar,
                         scalar)

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


def test_pow():
    assert (C + ONE) ** 3 == (C + ONE) * (C + ONE) * (C + ONE)
    assert (H ** 0) == ONE
    with pytest.raises(ValueError):
        H ** -1
