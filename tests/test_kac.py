import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kac_reference as ref
from w3lab import kac, verma
from w3lab.classify import f11
from w3lab.exact import (B_SQUARED, C, H, ONE, W,
                         PoleAtForbiddenCentralCharge, scalar)
from w3lab.kac import (ComparisonReport, DegenerateSample, compare_with_gram,
                       kac_closed_form_exact, kac_closed_form_symbolic,
                       kac_constant, kac_factors)
from w3lab.kac import _kac_factor


def _factor_at(m, n, h, c, w2=0):
    """The Kac factor of (m, n), m <= n, at a rational point, from
    _kac_factor: f_mm - w^2 on the diagonal, the pair factor otherwise."""
    h, c, w2 = Fraction(h), Fraction(c), Fraction(w2)
    num, den, k = _kac_factor(m, n, c.numerator, c.denominator, h.numerator,
                              h.denominator, w2.numerator, w2.denominator)
    return Fraction(num, den * (22 * c.denominator + 5 * c.numerator) ** k)


def test_p2_against_brute_force():
    # P2, the exponents' count, is the number of a level's keys
    for n in range(13):
        assert len(verma.level_keys(n)) == ref.brute_force_bicolored(n)


def test_p2_examples():
    for n, count in ((0, 1), (2, 5), (4, 20)):
        assert ref.brute_force_bicolored(n) == count
        assert len(verma.level_keys(n)) == count


def test_basis_dimension_matches_p2():
    for n in range(7):
        assert len(verma.enumerate_basis(n)) == ref.brute_force_bicolored(n)


def test_alpha_invariants():
    for c in (Fraction(3), Fraction(50), Fraction(97), Fraction(-1)):
        # (50-c)^2 - (2-c)(98-c) = 2304, the identity behind the product 1/16
        assert (50 - c) ** 2 - (2 - c) * (98 - c) == 2304
        ap, am = ref.alpha_pm_squared(float(c))
        assert abs(ap + am - float(Fraction(50 - c, 96))) < 1e-12
        assert abs(ap * am - 1 / 16) < 1e-12


def test_f_mm_display_equals_general_formula():
    rng = random.Random(3)
    for _ in range(50):
        c = Fraction(rng.randint(-40, 200), rng.randint(1, 5))
        if 22 + 5 * c == 0:
            continue
        h = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        for m in (1, 2, 3):
            x, y, _ = ref.f_mn_quadratic(m, m, h, c)
            assert y == 0
            assert x / (5 * c + 22) == ref.f_mm(m, h, c)
            assert _factor_at(m, m, h, c) == ref.f_mm(m, h, c)
        assert f11(h, c) == ref.f_mm(1, h, c)


def test_f_mm_at_c2_is_cubic_in_h():
    # the (c-2) pieces drop; f_11 at c = 2 is (2/9) h^3
    for h in (Fraction(1), Fraction(3, 2), Fraction(-2)):
        assert f11(h, 2) == Fraction(2, 9) * h ** 3


def test_f11_normalizations_differ_by_two():
    for (c, h) in [(Fraction(3), Fraction(1, 4)), (Fraction(50), Fraction(7))]:
        half = h * h * (96 * h - 3 * (c - 2)) / (27 * (5 * c + 22))
        assert f11(h, c) == 2 * half


def _pair_product(m, n, h, c):
    """Exact f_mn * f_nm, the pair factor at w = 0, by both exact routes:
    _kac_factor and the conjugate x - y sqrt(D) of the reference's f_mn."""
    x, y, D = ref.f_mn_quadratic(m, n, h, c)
    pair = _factor_at(m, n, h, c)
    assert pair == (x * x - y * y * D) / (5 * c + 22) ** 2
    return pair


def test_paired_product_matches_complex_arithmetic():
    rng = random.Random(14)
    for _ in range(100):
        c = Fraction(rng.randint(3, 97)) + Fraction(rng.randint(0, 9), 10)
        h = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        exact = _pair_product(1, 2, h, c)
        z = ref.f_mn(1, 2, float(h), float(c)) \
            * ref.f_mn(2, 1, float(h), float(c))
        assert abs(z.imag) <= 1e-10 * (1 + abs(z.real))
        assert abs(z.real - float(exact)) <= 1e-9 * (1 + abs(float(exact)))


def test_closed_form_reality_sweep():
    rng = random.Random(2024)
    for _ in range(500):
        c = rng.uniform(2.01, 97.99)
        h = rng.uniform(-5, 10)
        for (m, n) in [(1, 2), (1, 3), (2, 3)]:
            z = ref.f_mn(m, n, h, c) * ref.f_mn(n, m, h, c)
            assert abs(z.imag) < 1e-10 * (1 + abs(z.real))
            exact = _pair_product(m, n, Fraction(h), Fraction(c))
            assert abs(z.real - float(exact)) < 1e-8 * (1 + abs(float(exact)))


def test_f_mn_real_on_diagonal():
    h, c = Fraction(7, 10), Fraction(10)
    x, y, _ = ref.f_mn_quadratic(2, 2, h, c)
    assert y == 0
    assert abs(ref.f_mn(2, 2, 0.7, 10.0) - float(x / (5 * c + 22))) < 1e-12
    assert _factor_at(2, 2, h, c) == x / (5 * c + 22)


def test_f_mn_pole():
    with pytest.raises(PoleAtForbiddenCentralCharge):
        f11(1, Fraction(-22, 5))
    for level in (0, 1, 4):
        with pytest.raises(PoleAtForbiddenCentralCharge):
            kac_closed_form_exact(level, Fraction(-22, 5), 1, 1)


def test_kac_factors_cover_divisor_pairs():
    p2 = ref.brute_force_bicolored
    assert set(kac_factors(3)) == {(1, 1, p2(2)), (1, 2, p2(1)),
                                   (2, 1, p2(1)), (1, 3, p2(0)),
                                   (3, 1, p2(0))}


def test_closed_form_level0_and_1():
    assert kac_closed_form_exact(0, 10, 1, Fraction(1, 2)) == 1
    c, h, w = Fraction(10), Fraction(2), Fraction(1, 3)
    assert kac_closed_form_exact(1, c, h, w) == f11(h, c) - w * w


def test_closed_form_exact_vs_float():
    # c = 2 and c = 98 are the branch points, where f_mn and f_nm coincide
    pts = [(10, 2, Fraction(1, 7)), (50, 1, Fraction(-1, 3)),
           (Fraction(7, 2), Fraction(5, 4), Fraction(1, 9)),
           (2, Fraction(3, 2), Fraction(1, 4)),
           (98, Fraction(3, 2), Fraction(1, 4))]
    for lev in (1, 2, 3):
        for (c, h, w) in pts:
            ex = kac_closed_form_exact(lev, c, h, w)
            fl = complex(1)
            for m, n, e in kac_factors(lev):
                fl *= (ref.f_mn(m, n, float(h), float(c)) - float(w) ** 2) ** e
            assert abs(fl.imag) <= 1e-10 * (1 + abs(fl.real))
            assert abs(fl.real - float(ex)) <= 1e-9 * (1 + abs(float(ex)))


# the grid of special values: branch points c = 2, 98, c = 0, negative c,
# a zero and a negative h, w = 0
GRID = [(c, h, w)
        for c in (2, 98, -5, -2, 0, Fraction(4, 5), Fraction(353, 7), 150)
        for h in (0, Fraction(1, 3), Fraction(-7, 4), Fraction(23, 4))
        for w in (0, 1, Fraction(-2, 7))]


def _rational(rng):
    return Fraction(rng.randint(-10 ** 5, 10 ** 5),
                    rng.randint(1, 10 ** rng.randint(0, 4)))


@pytest.mark.parametrize("level", range(9))
def test_closed_form_matches_reference_on_grid(level):
    for pt in GRID:
        assert kac_closed_form_exact(level, *pt) == \
            ref.closed_form_exact(level, *pt), (level, pt)


def test_closed_form_matches_reference_at_seeded_points():
    """1,000 seeded rational points, each at one of the levels 0-8."""
    rng = random.Random(36)
    checked = 0
    while checked < 1000:
        pt = (_rational(rng), _rational(rng), _rational(rng))
        if 22 + 5 * pt[0] == 0:
            continue
        level = checked % 9
        assert kac_closed_form_exact(level, *pt) == \
            ref.closed_form_exact(level, *pt), (level, pt)
        checked += 1


_RATIONALS = st.fractions(max_denominator=10 ** 4).filter(
    lambda x: abs(x) < 10 ** 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), _RATIONALS.filter(lambda c: 22 + 5 * c != 0),
       _RATIONALS, _RATIONALS)
def test_closed_form_equals_reference_route(level, c, h, w):
    assert kac_closed_form_exact(level, c, h, w) == \
        ref.closed_form_exact(level, c, h, w)


def test_closed_form_vanishes_on_the_first_locus():
    # w^2 = f11 kills the (1, 1) factor at every level from 1 up
    c, t = Fraction(4), Fraction(1, 2)
    h = (c - 2 + 18 * (5 * c + 22) * t * t) / 32
    w = 2 * h * t
    assert f11(h, c) == w * w
    for level in range(1, 9):
        assert kac_closed_form_exact(level, c, h, w) == 0
    assert kac_closed_form_exact(0, c, h, w) == 1


def test_symbolic_closed_form_matches_reference_route():
    inv_den = B_SQUARED * Fraction(1, 16)
    for level in range(4):
        assert kac_closed_form_symbolic(level) == \
            ref.closed_form(level, ONE, C, H, W, inv_den), level


def test_closed_form_positive_at_region_point():
    for lev in range(5):
        assert kac_closed_form_exact(lev, 3, Fraction(1, 24), 0) > 0


def test_sign_agreement_with_gram(grams):
    pts = [(Fraction(3), Fraction(1, 24), Fraction(0)),
           (Fraction(10), Fraction(2), Fraction(1, 7)),
           (Fraction(50), Fraction(-1), Fraction(1, 3)),
           (Fraction(5), Fraction(1, 8), Fraction(1, 4)),
           (Fraction(150), Fraction(3), Fraction(1))]
    for lev in (1, 2, 3):
        for pt in pts:
            det = verma.determinant_at(grams[lev], *pt)
            cf = kac_closed_form_exact(lev, *pt)
            if cf == 0:
                assert det == 0
            else:
                assert (det > 0) == (cf > 0) or det == 0


def test_compare_with_gram_level0(grams):
    rep = compare_with_gram(0, [(3, Fraction(1, 24), 0), (10, 2, 1)],
                            gram=grams[0])
    assert rep.ratios == [Fraction(1), Fraction(1)]
    assert rep.verdict == "ok"


@pytest.mark.parametrize("level", [1, 2])
def test_compare_with_gram_constant_ratio(level, grams):
    rng = random.Random(level)
    pts = []
    while len(pts) < 5:
        c = Fraction(rng.randint(3, 97))
        h = Fraction(rng.randint(1, 40), rng.randint(1, 6))
        cap = f11(h, c)
        if cap <= 0:
            continue
        w = Fraction(rng.randint(-3, 3), 7)
        if cap - w * w > 0:
            pts.append((c, h, w))
    rep = compare_with_gram(level, pts, gram=grams[level])
    assert rep.verdict == "ok"
    assert rep.ratios == [kac_constant(level)] * len(pts)


# C_7 as the README writes it; C_8 as `kac-verify --level 8 --level-cap 8
# --random 2 --seed 1` printed it (verdict ok), factored
C_7 = 2 ** 280 * 3 ** 550 * 5 ** 20 * 7 ** 4
C_8 = 2 ** 564 * 3 ** 1024 * 5 ** 40 * 7 ** 8


def test_kac_constant_literals():
    assert [kac_constant(n) for n in range(4)] == [
        1, 9, 104976, 650717652052224]
    assert kac_constant(7) == C_7
    assert kac_constant(8) == C_8


def test_kac_constant_rejects_a_mutated_rule():
    """Each mutated product misses the computed ratio at some level <= 4."""
    pts = [(Fraction(10), Fraction(2), Fraction(1, 7)),
           (Fraction(50), Fraction(5), Fraction(1, 3))]
    ratios = [compare_with_gram(level, pts).ratios[0] for level in range(5)]
    assert ratios == [kac_constant(level) for level in range(5)]
    for mutant in (lambda m, n, e: (m * n) ** (2 * e),
                   lambda m, n, e: (3 * m * n) ** e,
                   lambda m, n, e: (9 * m * n) ** e):
        assert any(math.prod(mutant(*f) for f in kac_factors(level)) != r
                   for level, r in enumerate(ratios))


def test_compare_rejects_degenerate_sample(grams):
    # w^2 exactly on the first-level vanishing locus
    c, t = Fraction(4), Fraction(1, 2)
    h = (c - 2 + 18 * (5 * c + 22) * t * t) / 32
    w = 2 * h * t
    assert f11(h, c) == w * w
    with pytest.raises(DegenerateSample) as err:
        compare_with_gram(1, [(c, h, w), (10, 2, 0)], gram=grams[1])
    assert str(err.value) == f"closed form vanishes at c=4, h={h}, w={w}"
    assert "Fraction" not in str(err.value)


def test_compare_verdict_is_exact(grams, monkeypatch):
    """Ratios 1e-12 apart fail; ratios 10^400 apart, beyond any float,
    fail too; a negative ratio fails."""
    pts = [(Fraction(10), Fraction(2), Fraction(0)),
           (Fraction(3), Fraction(1, 24), Fraction(0))]
    real = kac.kac_closed_form_exact

    def nudged(level, c, h, w):
        cf = real(level, c, h, w)
        return cf * (1 + Fraction(1, 10 ** 12)) if c == 3 else cf

    def shrunk_at_3(level, c, h, w):
        cf = real(level, c, h, w)
        return cf / 10 ** 400 if c == 3 else cf

    monkeypatch.setattr(kac, "kac_closed_form_exact", nudged)
    rep = compare_with_gram(1, pts, gram=grams[1])
    assert rep.verdict == "fail"
    # the first ratio is still C_1 = 9, the second is not
    assert rep.ratios[0] == kac_constant(1)
    assert rep.ratios[1] != kac_constant(1)
    monkeypatch.setattr(kac, "kac_closed_form_exact", shrunk_at_3)
    rep = compare_with_gram(1, pts, gram=grams[1])
    assert rep.ratios == [9, 9 * 10 ** 400]
    assert rep.verdict == "fail"
    monkeypatch.setattr(kac, "kac_closed_form_exact",
                        lambda *args: -real(*args))
    rep = compare_with_gram(1, pts, gram=grams[1])
    assert rep.ratios == [-9, -9]
    assert rep.verdict == "fail"


@pytest.mark.parametrize("level", [1, 4])
def test_compare_fails_a_doubled_closed_form(level, monkeypatch):
    """Twice the closed form at every point gives one ratio everywhere,
    C_N / 2, which is not C_N."""
    real = kac.kac_closed_form_exact
    monkeypatch.setattr(kac, "kac_closed_form_exact",
                        lambda *args: 2 * real(*args))
    pts = [(Fraction(10), Fraction(2), Fraction(1, 7)),
           (Fraction(50), Fraction(5), Fraction(1, 3))]
    rep = compare_with_gram(level, pts)
    assert rep.ratios == [Fraction(kac_constant(level), 2)] * 2
    assert rep.verdict == "fail"


def test_compare_needs_a_point(grams):
    with pytest.raises(ValueError, match="need at least one sample point"):
        compare_with_gram(1, [], gram=grams[1])


def test_compare_takes_one_point(grams):
    """One point is a complete check, and a point written twice, in either
    spelling, gives two equal ratios."""
    for pts in ([(10, 2, 0)], [(50, 5, Fraction(1, 3))] * 2,
                [(50, 5, Fraction(1, 3)), ("100/2", "10/2", "2/6")]):
        rep = compare_with_gram(1, pts, gram=grams[1])
        assert rep.ratios == [9] * len(pts)
        assert rep.verdict == "ok"


def test_compare_with_gram_levels_4_and_5():
    """The factorization keeps holding exactly above the acceptance scale."""
    pts = [(Fraction(10), Fraction(2), Fraction(1, 7)),
           (Fraction(3), Fraction(1, 24), Fraction(0)),
           (Fraction(50), Fraction(5), Fraction(1, 3))]
    for level in (4, 5):
        rep = compare_with_gram(level, pts)
        assert rep.verdict == "ok"
        assert rep.ratios == [kac_constant(level)] * len(pts)


def test_compare_with_gram_levels_6_and_7():
    """The product form of the constant, kac_constant, at levels 6 and 7."""
    pts = [(Fraction(10), Fraction(2), Fraction(1, 7)),
           (Fraction(50), Fraction(5), Fraction(1, 3))]
    for level in (6, 7):
        rep = compare_with_gram(level, pts)
        assert rep.verdict == "ok"
        assert rep.ratios == [kac_constant(level)] * len(pts)


def test_symbolic_closed_form_identity(grams):
    assert verma.determinant(grams[1]) == scalar(9) * kac_closed_form_symbolic(1)
    assert verma.determinant(grams[2]) == scalar(104976) * kac_closed_form_symbolic(2)
    assert (verma.determinant(grams[3])
            == scalar(650717652052224) * kac_closed_form_symbolic(3))


def test_symbolic_closed_form_matches_exact_at_level_3():
    sym = kac_closed_form_symbolic(3)
    for pt in [(Fraction(10), Fraction(2), Fraction(1, 7)),
               (Fraction(50), Fraction(-1, 3), Fraction(5, 2)),
               (Fraction(7, 2), Fraction(5, 4), Fraction(1, 9))]:
        assert sym.evaluate(*pt) == kac_closed_form_exact(3, *pt)


def test_comparison_report_json(grams):
    rep = compare_with_gram(1, [(10, 2, 0), (3, Fraction(1, 24), 0)],
                            gram=grams[1])
    payload = json.loads(rep.to_json())
    assert list(payload) == ["level", "points", "ratios", "constant",
                             "verdict", "method"]
    assert payload["level"] == 1
    assert payload["verdict"] == "ok"
    assert payload["constant"] == "9"
    assert payload["ratios"] == ["9", "9"]
