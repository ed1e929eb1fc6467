"""The benchmark's output checkers accept right outputs and reject wrong ones.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import passes  # noqa: E402
from checks import CheckFailed  # noqa: E402
from w3lab import verma  # noqa: E402
from w3lab.classify import region_scan, region_scan_csv  # noqa: E402
from w3lab.kac import kac_closed_form_exact  # noqa: E402
from workloads import REGION_H, REGION_W, Command  # noqa: E402

POINT = (Fraction(173, 7), Fraction(11, 8), Fraction(3, 16))


def kac_payload(level, constant):
    return {"verdict": "ok", "ratios": [str(constant)] * 2,
            "constant": str(constant)}


def test_kac_verify_accepts_pinned_constant():
    checks.check_kac_verify(kac_payload(3, checks.KAC_CONSTANTS[3]), 3,
                            [POINT, POINT])


def test_kac_verify_rejects_wrong_constant():
    with pytest.raises(CheckFailed):
        checks.check_kac_verify(kac_payload(3, checks.KAC_CONSTANTS[3] + 1),
                                3, [POINT, POINT])


def test_kac_verify_rejects_one_differing_ratio():
    payload = kac_payload(2, checks.KAC_CONSTANTS[2])
    payload["ratios"][1] = str(2 * checks.KAC_CONSTANTS[2])
    with pytest.raises(CheckFailed):
        checks.check_kac_verify(payload, 2, [POINT, POINT])


def gram_payload(level):
    g = verma.gram_matrix(level)
    m = g.evaluate(*POINT)
    return {"basis": [w.label() for w in g.basis],
            "entries": [[str(x) for x in row] for row in m],
            "determinant": str(verma.determinant_at(g, *POINT))}


def test_gram_point_accepts_program_output():
    checks.check_gram_point(gram_payload(3), 3, POINT, kac_closed_form_exact)


def test_gram_point_rejects_wrong_determinant():
    payload = gram_payload(3)
    payload["determinant"] = str(2 * Fraction(payload["determinant"]))
    with pytest.raises(CheckFailed):
        checks.check_gram_point(payload, 3, POINT, kac_closed_form_exact)


def test_gram_point_rejects_asymmetric_entries():
    payload = gram_payload(2)
    payload["entries"][0][1] = str(Fraction(payload["entries"][0][1]) + 1)
    with pytest.raises(CheckFailed):
        checks.check_gram_point(payload, 2, POINT, kac_closed_form_exact)


def region_csv(c, res):
    return region_scan_csv(region_scan(c, REGION_H, REGION_W, res))


@pytest.mark.parametrize("c", [Fraction(-13, 7), Fraction(50), Fraction(843, 7)])
def test_region_accepts_program_output(c):
    checks.check_region(region_csv(c, 12), c, 12)


@pytest.mark.parametrize("c", [Fraction(-13, 7), Fraction(50), Fraction(843, 7)])
def test_region_rejects_one_flipped_status(c):
    lines = region_csv(c, 12).split("\r\n")
    row = lines[40].split(",")
    row[3] = "NotUnitary" if row[3] != "NotUnitary" else "Unitary"
    lines[40] = ",".join(row)
    with pytest.raises(CheckFailed):
        checks.check_region("\r\n".join(lines), c, 12)


def test_region_rejects_missing_rows():
    text = region_csv(Fraction(50), 12)
    short = "\r\n".join(text.split("\r\n")[:-2]) + "\r\n"
    with pytest.raises(CheckFailed):
        checks.check_region(short, Fraction(50), 12)


def test_classify_rejects_flipped_status():
    checks.check_classify({"status": "Unitary"}, POINT)
    with pytest.raises(CheckFailed):
        checks.check_classify({"status": "NotUnitary"}, POINT)
    with pytest.raises(CheckFailed):
        checks.check_classify({"status": "Unitary"},
                              (Fraction(1), Fraction(1), Fraction(0)))


def fz_payload(failures):
    return {"relations": {"maxResidual": 1e-14}, "failures": failures}


def test_fz_check_accepts_no_failures_and_rejects_any():
    checks.check_fz(fz_payload([]))
    with pytest.raises(CheckFailed):
        checks.check_fz(fz_payload(["weakSymmetry"]))


def spectrum(level, low):
    dim = sum(checks.p2(n) for n in range(level + 1))
    return {"dimension": dim, "eigenvalues": [low] + [1.0] * (dim - 2) + [1e11]}


def test_vacuum_spectrum_tolerance_is_relative():
    assert spectrum(6, 0.0)["dimension"] == 139
    assert spectrum(8, 0.0)["dimension"] == 434
    # roundoff of the size the level-8 spectrum shows
    checks.check_vacuum_spectrum(spectrum(8, -2e-5), 8)


def test_vacuum_spectrum_rejects_negative_eigenvalue():
    with pytest.raises(CheckFailed):
        checks.check_vacuum_spectrum(spectrum(8, -1e11 * 1e-11), 8)


def test_vacuum_spectrum_rejects_wrong_dimension():
    payload = spectrum(6, 0.0)
    payload["dimension"] += 1
    with pytest.raises(CheckFailed):
        checks.check_vacuum_spectrum(payload, 6)


def test_check_output_rejects_unparsable_json():
    cmd = Command("fz-check", {})
    with pytest.raises(ValueError):
        checks.check_output(cmd, "Traceback (most recent call last):", None)
    checks.check_output(cmd, json.dumps(fz_payload([])), None)


def test_wrong_exit_code_and_wrong_output_are_told_apart(monkeypatch, tmp_path):
    cmd = Command("vacuum-spectrum", {"kappa": 1.0, "level": 6, "cutoff": 8})
    right = json.dumps(spectrum(6, 0.0))
    for code, stdout, fault in ((0, right, None), (5, right, "exit"),
                                (0, "Traceback", "output"),
                                (5, "Traceback", "output")):
        monkeypatch.setattr(passes, "run_cli",
                            lambda *args: (0.1, 1024, code, stdout))
        [op] = passes.run_pass(passes.Pass(tmp_path, tmp_path, [cmd]))
        assert op.fault == fault
