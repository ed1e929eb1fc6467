"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Tolerances are pinned here and nowhere else.
"""

import random
from fractions import Fraction

import pytest

from conftest import canonical_pairs
from w3lab import fock, kac, verma
from w3lab.classify import Status, classify, f11


def report(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def region_points(count: int, seed: int):
    """Rational points with 2 < c < 98 and f11 - w^2 > 0."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        c = Fraction(rng.randint(3, 97)) + Fraction(rng.randint(0, 9), 10)
        h = Fraction(rng.randint(1, 60), rng.randint(1, 6))
        cap = f11(h, c)
        if cap <= 0:
            continue
        w = Fraction(int(rng.uniform(-0.9, 0.9) * float(cap) ** 0.5 * 997),
                     997)
        if cap - w * w > 0:
            pts.append((c, h, w))
    return pts


def test_criterion_1_kac_determinant_agreement(grams):
    """det(Gram_N) / closed form is a positive constant, N = 1, 2, 3."""
    pts = region_points(6, seed=20240601)
    constants = {}
    ok = True
    for level in (1, 2, 3):
        rep = kac.compare_with_gram(level, pts, gram=grams[level])
        constants[level] = rep.constant
        ok &= rep.verdict == "ok" and rep.constant > 0
        ok &= all(r == rep.constant for r in rep.ratios)
    report(1, ok, f"Kac agreement at 6 points, constants C_N = "
                  f"{ {k: str(v) for k, v in constants.items()} }")


def test_criterion_2_cross_oracle_equivalence():
    """Exact Verma Gram entries match the numeric Fock cyclic Gram, level
    block by level block."""
    rng = random.Random(777)
    words = [w for lev in range(4) for w in verma.enumerate_basis(lev)]
    worst = 0.0
    for _ in range(20):
        kap = rng.uniform(0.0, 2.0)
        q1 = rng.uniform(-1.5, 1.5)
        q2 = rng.uniform(-1.5, 1.5)
        p = fock.RealizationParams(kappa=kap, q1=q1, q2=q2, cutoff=7)
        cg = fock.cyclic_gram("unitaryFamily", p, 3)
        assert [w.label() for w in cg.words] == [w.label() for w in words]
        h, w = p.lowest_weights("unitaryFamily")
        c = p.central_charge
        for got, want in canonical_pairs(cg, c, h.real, w.real):
            err = abs(got - want) / max(1.0, abs(want), abs(got))
            worst = max(worst, err)
    report(2, worst < 1e-8,
           f"cross-oracle Gram agreement, 20 random triples, levels <= 3, "
           f"worst relative error {worst:.3e}")


def test_criterion_3_vacuum_unitarity_witness():
    """Vacuum representation PSD at levels <= 4 for kappa in {0,1/2,1,3}."""
    ok = True
    details = []
    for kap in (0.0, 0.5, 1.0, 3.0):
        p = fock.RealizationParams(kappa=kap, cutoff=7)
        cg = fock.cyclic_gram("vacuumModified", p, 4)
        min_eig = float(cg.eigenvalues.min())
        zv = fock.zero_vector_norms(p)
        null = max(zv[k] for k in ("L-1", "W-1", "W-2"))
        ok &= min_eig >= -1e-8 and null < 1e-12
        details.append(f"kappa={kap}: min eig {min_eig:.2e}, "
                       f"null norms {null:.2e}")
    report(3, ok, "; ".join(details))


def test_criterion_4_w3_relation_residuals():
    """Commutator residuals < 1e-9 and central charge 2+12k^2 within 1e-9."""
    ok = True
    details = []
    for variant in ("raw", "vacuumModified"):
        for kap in (0.0, 1.0):
            p = fock.RealizationParams(kappa=kap, q1=0.25, q2=-0.5, cutoff=9)
            rep = fock.check_w3_relations(variant, p, max_mode_index=3,
                                          max_level=3)
            ok &= rep["maxResidual"] < 1e-9
            ok &= rep["centralCharge"]["error"] < 1e-9
            details.append(f"{variant}@k={kap}: res "
                           f"{rep['maxResidual']:.2e}")
    report(4, ok, "; ".join(details))


def test_criterion_5_automorphism_and_rho_ode():
    """Twist identity residuals < 1e-10; rho ODE exactly zero through 20."""
    worst = 0.0
    for (kap, eta) in [(0.0, 0j), (0.5, 0j), (1.0, 0j), (0.5, 0.5j),
                       (1.0, 0.3 + 0.4j)]:
        rep = fock.check_automorphism_identity(kap, eta, max_mode_index=5,
                                               max_level=2, cutoff=9)
        worst = max(worst, rep["maxResidual"])
    ode = fock.verify_rho_ode(20)
    ode_ok = all(v == 0 for v in ode.values())
    report(5, worst < 1e-10 and ode_ok,
           f"automorphism residual {worst:.3e}; rho ODE exact through "
           f"order 20: {ode_ok}")


def test_criterion_6_weak_symmetry_defect_structure():
    """Constrained combinations adjoint within 1e-9; bare mode defect > 1e-3."""
    rep = fock.check_weak_symmetry(
        fock.RealizationParams(kappa=1.0, cutoff=8), max_mode_index=3,
        test_level=2)
    passed = (rep["maxPairDefect"] < 1e-9 and rep["maxTripleDefect"] < 1e-9
              and rep["unpairedControlDefect"] > 1e-3)
    report(6, passed,
           f"pair defect {rep['maxPairDefect']:.2e}, triple defect "
           f"{rep['maxTripleDefect']:.2e}, negative control "
           f"{rep['unpairedControlDefect']:.2e}")


def test_criterion_7_classifier_correctness():
    ok = True
    for c in (2, 10, 50, 98):
        ok &= classify(c, 0, 0).status == Status.UNITARY
        ok &= classify(c, 0, Fraction(1, 3)).status == Status.NOT_UNITARY
    # every constructive-family point classifies unitary
    rng = random.Random(4001)
    for _ in range(1000):
        kap = rng.uniform(0.0, 8.0 ** 0.5)
        q1 = rng.uniform(-3.0, 3.0)
        q2 = rng.uniform(-3.0, 3.0)
        p = fock.RealizationParams(kappa=kap, q1=q1, q2=q2)
        h, w = p.lowest_weights("unitaryFamily")
        ok &= classify(p.central_charge, h.real,
                           w.real).status == Status.UNITARY
    # 100 x 100 grid at c = 10: w-sign symmetry and h-monotonicity
    c = Fraction(10)
    hs = [Fraction(i, 25) for i in range(100)]
    ws = [Fraction(-2) + Fraction(4 * j, 99) for j in range(100)]
    grid = {(h, w): classify(c, h, w).status for h in hs for w in ws}
    for h in hs:
        for w in ws:
            ok &= grid[(h, w)] == grid.get((h, -w), grid[(h, w)])
    for w in ws:
        prev = False
        for h in hs[1:]:  # the vacuum is the isolated exception at h = 0
            s = grid[(h, w)] == Status.UNITARY
            if prev:
                ok &= s
            prev = s
    report(7, ok, "classifier: vacuum line, h=0 w!=0 exclusion, 1000 "
                  "constructive samples, 100x100 grid symmetry+monotonicity")


def test_criterion_8_combinatorics():
    def brute(n):
        def parts(k, s=1):
            if k == 0:
                return [()]
            return [(p,) + r for p in range(s, k + 1)
                    for r in parts(k - p, p)]
        return sum(len(parts(a)) * len(parts(n - a)) for a in range(n + 1))
    ok = all(len(verma.level_keys(n)) == brute(n) for n in range(13))
    ok &= all(len(verma.enumerate_basis(n)) == brute(n) for n in range(7))
    report(8, ok, "p2 (level_keys) matches brute-force enumeration "
                  "(n <= 12); basis dimensions match it (N <= 6)")


def test_criterion_9_first_level_normalization(grams):
    """det(Gram_1) vanishes exactly on the f11 locus, not the halved one.

    Boundary points are generated rationally: with 32h - (c-2) =
    18(5c+22) t^2 the f11 formula gives w = 2ht exactly on its locus, and
    with 32h - (c-2) = 9(5c+22) s^2 the half-size variant f11/2 gives w = hs.
    """
    rng = random.Random(31415)
    g1 = grams[1]
    on_locus_ok = True
    off_locus_nonzero = 0
    samples = 0
    while samples < 50:
        c = Fraction(rng.randint(3, 97)) + Fraction(rng.randint(0, 9), 10)
        t = Fraction(rng.randint(1, 9), rng.randint(2, 11))
        # point on the f11 boundary
        h = (c - 2 + 18 * (5 * c + 22) * t * t) / 32
        w = 2 * h * t
        assert f11(h, c) == w * w
        on_locus_ok &= verma.determinant_at(g1, c, h, w) == 0
        # point on the half-size variant's boundary
        h2 = (c - 2 + 9 * (5 * c + 22) * t * t) / 32
        w2 = h2 * t
        assert f11(h2, c) / 2 == w2 * w2
        if verma.determinant_at(g1, c, h2, w2) != 0:
            off_locus_nonzero += 1
        samples += 1
    # the classifier must use the locus that actually matches det(Gram_1)
    locus_is_f11 = on_locus_ok and off_locus_nonzero == 50
    classifier_uses_it = classify(2, 2, Fraction(4, 3)).detail[
        "f11_minus_w2"] == 0
    report(9, locus_is_f11 and classifier_uses_it,
           "det(Gram_1) locus = f11 (50/50 boundary samples); "
           "half-size variant ruled out (50/50); classifier pinned to the "
           "matching locus")
