import random
from fractions import Fraction

import pytest

from w3lab.classify import (Status, Witness, classify,
                            constructive_bound_sq,
                            discrete_series_index, region_scan,
                            f11, region_scan_csv)
from w3lab.exact import PoleAtForbiddenCentralCharge
from w3lab.fock import RealizationParams


@pytest.mark.parametrize("c", [2, 10, 50, 98, 99, 110, 150, 1000])
def test_vacuum_is_unitary(c):
    v = classify(c, 0, 0)
    assert v.status == Status.UNITARY
    assert v.witness == Witness.VACUUM_THEOREM


def test_h_zero_nonzero_w_is_not_unitary():
    v = classify(50, 0, 1)
    assert v.status == Status.NOT_UNITARY


def test_constructive_family_above_98():
    v = classify(200, Fraction(198, 24), 0)
    assert v.status == Status.UNITARY
    assert v.witness == Witness.CONSTRUCTIVE_FAMILY


def test_necessary_condition_failure_above_98():
    # f11(0.1, 200) - 25 is strongly negative, so the verdict is decisive
    v = classify(200, Fraction(1, 10), 5)
    assert v.status == Status.NOT_UNITARY
    assert v.witness == Witness.NECESSARY_CONDITION_FAILED


def test_gap_region_above_98_is_unknown():
    # large positive f11 but outside the constructive family bound
    c, h = Fraction(200), Fraction(100)
    w2cap = f11(h, c)
    w = Fraction(int(float(w2cap) ** 0.5 * 0.95 * 100), 100)
    assert w * w < w2cap
    assert w * w > constructive_bound_sq(c, h)
    v = classify(c, h, w)
    assert v.status == Status.UNKNOWN
    assert v.witness == Witness.OUT_OF_CLASSIFIED_REGION


def test_below_c2_unknown_with_discrete_series_metadata():
    for m in range(4, 9):
        c = 2 * (1 - Fraction(12, m * (m + 1)))
        v = classify(c, Fraction(1, 3), 0)
        assert v.status == Status.UNKNOWN
        assert v.detail.get("discrete_series_m") == m
    v = classify(Fraction(1, 2), 0, 0)
    assert v.status == Status.UNKNOWN
    assert "discrete_series_m" not in v.detail


def test_discrete_series_index():
    assert discrete_series_index(Fraction(4, 5)) == 4  # 2(1 - 12/20)
    m = 123456789012345678901  # far past exact float square roots
    assert discrete_series_index(2 * (1 - Fraction(12, m * (m + 1)))) == m
    assert discrete_series_index(Fraction(1, 2)) is None
    assert discrete_series_index(Fraction(7, 3)) is None


def test_pole_rejected():
    with pytest.raises(PoleAtForbiddenCentralCharge):
        classify(Fraction(-22, 5), 0, 0)


def test_exact_boundary_counts_as_unitary():
    # w^2 = f11 exactly: (c, h, w) = (2, 2, 4/3)
    assert f11(2, 2) == Fraction(16, 9)
    v = classify(2, 2, Fraction(4, 3))
    assert v.status == Status.UNITARY
    assert v.detail["f11_minus_w2"] == 0


def test_c98_boundary_is_in_the_classified_range():
    # f11(3, 98) = 0 exactly, and h = 3 is below the constructive family's
    # (c-2)/24 = 4, so only the 2 <= c <= 98 rule makes this point Unitary
    assert f11(3, 98) == 0
    assert constructive_bound_sq(Fraction(98), Fraction(3)) is None
    v = classify(98, 3, 0)
    assert (v.status, v.witness) == (Status.UNITARY,
                                     Witness.FIRST_KAC_DETERMINANT)
    assert v.detail["f11_minus_w2"] == 0


def test_normalization_is_load_bearing():
    # of the two circulating first-level normalizations only one is the
    # true vanishing locus; w^2 strictly between them must classify Unitary
    c, h = Fraction(2), Fraction(2)
    w2 = Fraction(3, 4) * f11(h, c)  # above f11/2, below f11
    assert w2 > f11(h, c) / 2
    w = Fraction(int(float(w2) ** 0.5 * 10 ** 6), 10 ** 6)
    assert w * w < f11(h, c)
    assert classify(c, h, w).status == Status.UNITARY


def test_w_sign_symmetry():
    rng = random.Random(100)
    for _ in range(200):
        c = Fraction(rng.randint(2, 98))
        h = Fraction(rng.randint(-4, 12), rng.randint(1, 5))
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        assert classify(c, h, w).status == classify(c, h, -w).status


def test_h_monotonicity_at_fixed_c_and_w():
    # monotone for h > 0; the vacuum itself is the single exception at w = 0
    c = Fraction(10)
    for w in (Fraction(0), Fraction(1, 3), Fraction(2)):
        prev_unitary = False
        for i in range(1, 40):
            h = Fraction(i, 8)
            status = classify(c, h, w).status
            if prev_unitary:
                assert status == Status.UNITARY
            prev_unitary = status == Status.UNITARY


@pytest.mark.parametrize("c", [Fraction(5), Fraction(110)])
def test_region_scan_decides_the_vacuum(c):
    rows = region_scan(c, (0, 1), (-1, 1), 3)
    vacuum = [r for r in rows if r["h"] == "0" and r["w"] == "0"]
    assert [(r["status"], r["witness"]) for r in vacuum] == [
        ("Unitary", "VacuumTheorem")]
    assert all(r["witness"] != "VacuumTheorem" for r in rows
               if r not in vacuum)


def test_vacuum_below_c2_stays_unknown():
    assert classify(1, 0, 0).status == Status.UNKNOWN
    assert {r["status"] for r in region_scan(1, (0, 1), (-1, 1), 3)} == {
        "Unknown"}


def test_vacuum_is_isolated_for_c_above_2():
    # unitary at (c, 0, 0) but not in a punctured neighbourhood along h
    assert classify(10, 0, 0).status == Status.UNITARY
    assert classify(10, Fraction(1, 100), 0).status == Status.NOT_UNITARY
    assert classify(10, 0, Fraction(1, 100)).status == Status.NOT_UNITARY


def test_constructive_family_soundness():
    rng = random.Random(55)
    for _ in range(500):
        kap = rng.uniform(0, 8 ** 0.5)
        q1 = rng.uniform(-3, 3)
        q2 = rng.uniform(-3, 3)
        p = RealizationParams(kappa=kap, q1=q1, q2=q2)
        h, w = p.lowest_weights("unitaryFamily")
        v = classify(p.central_charge, h.real, w.real)
        assert v.status == Status.UNITARY, (kap, q1, q2, v.detail)


# ---------------------------------------------------------------------------
# region scans
# ---------------------------------------------------------------------------

def test_region_scan_csv_schema():
    rows = region_scan(10, (0, 2), (-1, 1), 5)
    assert len(rows) == 25
    text = region_scan_csv(rows)
    header = text.splitlines()[0]
    assert header == "c,h,w,status,witness,f11_minus_w2,constructive_bound"


def test_region_scan_c2_boundary_is_cubic():
    # on the c=2 slice the status flips where w^2 crosses (2/9) h^3
    c = Fraction(2)
    for h in (Fraction(1), Fraction(2), Fraction(3)):
        cap = f11(h, c)
        assert cap == Fraction(2, 9) * h ** 3
        below = Fraction(int(float(cap) ** 0.5 * 0.99 * 10 ** 4), 10 ** 4)
        above = Fraction(int(float(cap) ** 0.5 * 1.01 * 10 ** 4) + 1, 10 ** 4)
        assert classify(c, h, below).status == Status.UNITARY
        assert classify(c, h, above).status == Status.NOT_UNITARY


def test_region_scan_large_h_unitary_at_w0():
    rows = region_scan(10, (50, 60), (0, 0), 3)
    assert all(r["status"] == "Unitary" for r in rows)


def _count_comparisons_with(value, monkeypatch) -> dict:
    """Count the order comparisons of Fractions in which one side equals
    ``value``; the count follows the value, not the object, because
    ``Fraction(x)`` builds a new Fraction equal to x."""
    count = {"n": 0}
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        def compare(self, other, op=getattr(Fraction, name)):
            count["n"] += self == value or other == value
            return op(self, other)
        monkeypatch.setattr(Fraction, name, compare)
    return count


@pytest.mark.parametrize("c", [50, 150])
def test_region_scan_takes_the_range_of_c_once(c, monkeypatch):
    """A scan compares c a bounded number of times per row, not per cell
    (841 times at res 20 when every cell compared it with 2 and 98)."""
    res = 20
    rows = region_scan(Fraction(c), (0, 5), (-1, 1), res)
    counted = _count_comparisons_with(Fraction(c), monkeypatch)
    assert rows == region_scan(c, (0, 5), (-1, 1), res)
    assert 0 < counted["n"] <= 3 * res


def test_region_scan_resolution_guard():
    with pytest.raises(ValueError):
        region_scan(10, (0, 1), (0, 1), 1)


def test_region_scan_pole():
    with pytest.raises(PoleAtForbiddenCentralCharge):
        region_scan(Fraction(-22, 5), (0, 1), (0, 1), 3)


@pytest.mark.parametrize("c", [Fraction(1, 7), Fraction(2), Fraction(353, 7),
                               Fraction(842, 7), Fraction(110)])
def test_region_scan_rows_match_classify(c):
    # h up to 10 at c = 110 reaches the constructive family (h >= 9/2), so
    # every witness above c = 98 shows up
    h_max = 10 if c == 110 else 2
    res = 7
    rows = region_scan(c, (0, h_max), (-1, 1), res)
    grid = [(Fraction(h_max * i, res - 1), Fraction(2 * j, res - 1) - 1)
            for i in range(res) for j in range(res)]
    assert len(rows) == len(grid)
    witnesses = set()
    for row, (h, w) in zip(rows, grid):
        v = classify(c, h, w)
        witnesses.add(v.witness)
        bound_sq = constructive_bound_sq(c, h)
        assert row == {
            "c": str(c), "h": str(h), "w": str(w),
            "status": v.status.value, "witness": v.witness.value,
            "f11_minus_w2": str(v.detail.get("f11_minus_w2", "")),
            "constructive_bound": ("" if bound_sq is None
                                   else repr(float(bound_sq) ** 0.5)),
        }
    if c == 110:
        assert witnesses == {Witness.VACUUM_THEOREM,
                             Witness.NECESSARY_CONDITION_FAILED,
                             Witness.CONSTRUCTIVE_FAMILY,
                             Witness.OUT_OF_CLASSIFIED_REGION}
