import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from w3lab import cli, exact, fock, kac, verma
from w3lab.cli import main


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("W3LAB_CACHE_DIR", str(tmp_path / "cache"))
    return CliRunner()


def test_gram_level0(runner):
    res = runner.invoke(main, ["gram", "--level", "0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["entries"] == [["1"]]


def test_gram_level1_symbolic_entry(runner):
    res = runner.invoke(main, ["gram", "--level", "1", "--symbolic"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["entries"][0][1] == "3*w"


def test_gram_level2_evaluated(runner):
    res = runner.invoke(main, ["gram", "--level", "2", "--c", "3",
                               "--h", "1/24", "--w", "0"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["entries"]) == 5
    from fractions import Fraction
    assert Fraction(payload["determinant"]) > 0


def test_gram_cache_determinism(runner):
    first = runner.invoke(main, ["gram", "--level", "2", "--symbolic"])
    second = runner.invoke(main, ["gram", "--level", "2", "--symbolic"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_gram_pretty_format(runner):
    res = runner.invoke(main, ["gram", "--level", "1", "--symbolic",
                               "--format", "pretty"])
    assert res.exit_code == 0
    assert "L-1" in res.output and "3*w" in res.output


def test_kac_verify_requires_point_source(runner):
    res = runner.invoke(main, ["kac-verify", "--level", "1"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_gram_level_too_large(runner):
    res = runner.invoke(main, ["gram", "--level", "7"])
    assert res.exit_code == 3
    err = json.loads(res.stderr)
    assert err["error"] == "LevelTooLarge"


def test_gram_pole_exit(runner):
    res = runner.invoke(main, ["gram", "--level", "1", "--c", "-22/5",
                               "--h", "0", "--w", "0"])
    assert res.exit_code == 2
    # the point engine needs b^2 = 16/(22+5c) at every level, even level 0
    res = runner.invoke(main, ["gram", "--level", "0", "--c", "-22/5",
                               "--h", "0", "--w", "0"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == "PoleAtForbiddenCentralCharge"


def test_gram_cache_truncated_file_is_rebuilt(runner, tmp_path):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner.invoke(main, args)
    assert first.exit_code == 0
    path = cli._cache_path(tmp_path / "cache", 2)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert second.output == first.output
    assert path.read_text() == text


def test_gram_cache_wrong_level_is_rebuilt(runner, tmp_path):
    first = runner.invoke(main, ["gram", "--level", "1", "--symbolic"])
    cache = tmp_path / "cache"
    cli._cache_path(cache, 2).write_text(
        cli._cache_path(cache, 1).read_text())
    res = runner.invoke(main, ["gram", "--level", "2", "--symbolic"])
    assert res.exit_code == 0
    assert json.loads(res.output)["level"] == 2
    assert res.output != first.output


def test_gram_cached_level_above_cap_is_refused(runner, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cli._cache_path(cache, 7).write_text(
        json.dumps({"level": 7, "basis": [], "entries": []}))
    res = runner.invoke(main, ["gram", "--level", "7"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "LevelTooLarge"


def test_gram_cache_file_stores_the_entries_sha256(runner, tmp_path):
    assert runner.invoke(main, ["gram", "--level", "1"]).exit_code == 0
    payload = json.loads(cli._cache_path(tmp_path / "cache", 1).read_text())
    assert payload["sha256"] == cli._entries_sha256(payload["entries"])


def test_gram_cache_edited_entries_are_rebuilt(runner, tmp_path):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner.invoke(main, args)
    path = cli._cache_path(tmp_path / "cache", 2)
    text = path.read_text()
    edited = json.loads(text)
    assert edited["entries"][0][1] != "0"
    edited["entries"][0][1] = edited["entries"][1][0] = "0"
    path.write_text(json.dumps(edited))
    # the edited file still parses as a level-2 Gram over the right basis
    assert cli.verma.GramMatrix.from_json(path.read_text()).level == 2
    second = runner.invoke(main, args)
    assert second.exit_code == 0
    assert second.output == first.output
    assert path.read_text() == text


def test_gram_unwritable_cache_still_answers(runner, tmp_path, monkeypatch):
    args = ["gram", "--level", "2", "--symbolic"]
    cached = runner.invoke(main, args)
    blocker = tmp_path / "file"
    blocker.write_text("")
    # no directory can be made under a regular file
    monkeypatch.setenv("W3LAB_CACHE_DIR", str(blocker / "cache"))
    res = runner.invoke(main, args)
    assert res.exit_code == cached.exit_code == 0
    assert res.stdout == cached.stdout
    assert blocker.read_text() == ""


def test_exit_codes_name_the_library_exceptions():
    # the table is keyed by class name; a renamed class would otherwise
    # turn its exit code into a traceback
    assert set(cli.EXIT_CODES) == {
        exact.PoleAtForbiddenCentralCharge.__name__,
        verma.LevelTooLarge.__name__, kac.DegenerateSample.__name__,
        fock.CutoffExceeded.__name__}


def test_point_commands_leave_the_cache_alone(runner, tmp_path):
    res = runner.invoke(main, ["gram", "--level", "2", "--c", "3",
                               "--h", "1/24", "--w", "0"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["kac-verify", "--level", "2", "--random", "2"])
    assert res.exit_code == 0
    cache = tmp_path / "cache"
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("args", [
    ["gram", "--level", "-1"],
    ["kac-verify", "--level", "-1", "--random", "3"],
    ["kac-verify", "--level", "1", "--random", "1"],
    ["classify", "--c", "nan", "--h", "0", "--w", "0"],
    ["classify", "--c", "inf", "--h", "0", "--w", "0"],
    ["classify", "--c", "1/0", "--h", "0", "--w", "0"],
    ["region", "--c", "nan", "--h-max", "1", "--w-max", "1", "--res", "3"],
    ["region", "--c", "inf", "--h-max", "1", "--w-max", "1", "--res", "3"],
    ["region", "--c", "1/0", "--h-max", "1", "--w-max", "1", "--res", "3"],
    ["region", "--c", "2", "--h-max", "1", "--w-max", "1", "--res", "1"],
    ["fz-check", "--max-mode", "-1"],
    ["fz-check", "--max-level", "-1"],
    ["vacuum-spectrum", "--kappa", "1", "--level", "-1"],
    ["gram", "--level", "1", "--h", "1", "--w", "0"],
    ["gram", "--level", "0", "--level-cap", "-1"],
    ["kac-verify", "--level", "1", "--random", "3", "--level-cap", "-1"],
])
def test_bad_arguments(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@settings(max_examples=40, deadline=None)
@given(level=st.integers(-3, 6), bound=st.integers(-3, 6))
def test_level_options_end_in_a_documented_exit(shared_cache, level, bound):
    """Any --level against any --cutoff or --level-cap exits 0, or with a
    JSON error on stderr and a documented code; never a traceback."""
    runner = CliRunner(env={"W3LAB_CACHE_DIR": shared_cache})
    for args in (["vacuum-spectrum", "--kappa", "1", "--level", str(level),
                  "--cutoff", str(bound)],
                 ["gram", "--level", str(level), "--level-cap", str(bound)]):
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 1, 3, 6), (args, res.exception)
        if res.exit_code:
            assert "error" in json.loads(res.stderr), args


def test_kac_verify_random(runner):
    res = runner.invoke(main, ["kac-verify", "--level", "1", "--random", "5",
                               "--seed", "3"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["verdict"] == "ok"
    assert payload["constant"] == "9"
    assert payload["maxRelDeviation"] == 0.0


def test_kac_verify_samples_file(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["3", "1/24", "0"],
                             ["50", "1", "1/3"]]))
    res = runner.invoke(main, ["kac-verify", "--level", "2",
                               "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["constant"] == "104976"


def test_kac_verify_degenerate_sample_exit(runner, tmp_path):
    # (2, 2, 4/3) sits exactly on the first-level vanishing locus
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["2", "2", "4/3"], ["10", "2", "0"]]))
    res = runner.invoke(main, ["kac-verify", "--level", "1",
                               "--samples", str(f)])
    assert res.exit_code == 4
    assert json.loads(res.stderr)["error"] == "DegenerateSample"


# det(Gram_N) / closed form at levels 4 and 5, as exact integers
KAC_CONSTANTS = {
    4: 1638617745884520252808573732018364350464,
    5: int("8918470532715275297701100762927283198006664855046553264116970666"
           "86631262519516200960000"),
}


@pytest.mark.parametrize("level", [4, 5])
def test_kac_verify_constants_levels_4_and_5(runner, tmp_path, level):
    constant = KAC_CONSTANTS[level]
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["150", "5", "-1/3"]]))
    res = runner.invoke(main, ["kac-verify", "--level", str(level),
                               "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["verdict"] == "ok"
    assert payload["ratios"] == [str(constant)] * 2
    assert payload["constant"] == str(constant)


def test_kac_verify_level_cap(runner):
    res = runner.invoke(main, ["kac-verify", "--level", "7", "--random", "2"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "LevelTooLarge"


def test_kac_verify_rejects_nonpositive_tolerance(runner):
    res = runner.invoke(main, ["kac-verify", "--level", "1", "--random", "3",
                               "--tol", "-1"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


USAGE_ERRORS = [
    ["gram"],
    ["gram", "--level", "x"],
    ["kac-verify", "--bogus", "1"],
    ["kac-verify", "--level", "1", "--random", "3", "--tol", "1e-8"],
    ["no-such-command"],
    [],
]


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_usage_errors_are_bad_arguments(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


def _child_env(cache) -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, W3LAB_CACHE_DIR=str(cache),
                PYTHONPATH=os.pathsep.join(path))


@pytest.mark.parametrize("args", USAGE_ERRORS[:3])
def test_usage_errors_are_bad_arguments_as_a_module(tmp_path, args):
    res = subprocess.run([sys.executable, "-m", "w3lab.cli", *args],
                         capture_output=True, text=True,
                         env=_child_env(tmp_path), timeout=60)
    assert res.returncode == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_kac_verify_deterministic(runner):
    a = runner.invoke(main, ["kac-verify", "--level", "1", "--random", "4",
                             "--seed", "9"])
    b = runner.invoke(main, ["kac-verify", "--level", "1", "--random", "4",
                             "--seed", "9"])
    assert a.output == b.output


def test_classify_command(runner):
    res = runner.invoke(main, ["classify", "--c", "50", "--h", "0",
                               "--w", "1"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "NotUnitary"


def test_classify_pole(runner):
    res = runner.invoke(main, ["classify", "--c", "-22/5", "--h", "0",
                               "--w", "0"])
    assert res.exit_code == 2


def test_classify_float_warns(runner):
    res = runner.invoke(main, ["classify", "--c", "10.5", "--h", "1.0",
                               "--w", "0.0"])
    assert res.exit_code == 0
    assert "warning" in res.stderr


def test_gram_decimal_point_warns(runner):
    exact_args = ["gram", "--level", "1", "--c", "1/2", "--h", "1", "--w", "0"]
    res = runner.invoke(main, ["gram", "--level", "1", "--c", "0.5",
                               "--h", "1", "--w", "0"])
    assert res.exit_code == 0
    assert res.stdout == runner.invoke(main, exact_args).stdout
    assert "warning" in res.stderr and "1/2" in res.stderr


def test_region_csv(runner):
    res = runner.invoke(main, ["region", "--c", "2", "--h-max", "1",
                               "--w-max", "1/2", "--res", "3"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "c,h,w,status,witness,f11_minus_w2,constructive_bound"
    assert len(lines) == 10


def test_fz_check_ok(runner):
    res = runner.invoke(main, ["fz-check", "--variant", "vacuumModified",
                               "--kappa", "1", "--cutoff", "8",
                               "--max-mode", "2", "--max-level", "2"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["failures"] == []
    assert payload["relations"]["maxResidual"] < 1e-9
    assert payload["weakSymmetry"]["unpairedControlDefect"] > 1e-3


def test_fz_check_cutoff_guard(runner):
    res = runner.invoke(main, ["fz-check", "--cutoff", "5", "--max-mode", "3",
                               "--max-level", "3"])
    assert res.exit_code == 6


def test_vacuum_spectrum(runner):
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "4", "--cutoff", "7"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["minEigenvalue"] >= -1e-8
    assert payload["centralCharge"] == 14.0


def test_vacuum_spectrum_kappa0(runner):
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "0",
                               "--level", "2", "--cutoff", "6"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["minEigenvalue"] >= -1e-10


def test_vacuum_spectrum_above_98(runner):
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "3",
                               "--level", "3", "--cutoff", "6"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["centralCharge"] == 110.0
    assert payload["minEigenvalue"] >= -1e-8


def test_vacuum_spectrum_margin_guard(runner):
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "6", "--cutoff", "7"])
    assert res.exit_code == 6


def test_vacuum_spectrum_psd_failure_exit(runner):
    # an absurdly tight tolerance turns float noise into a reported failure
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "4", "--cutoff", "7",
                               "--psd-tol", "1e-16"])
    assert res.exit_code == 5


def test_vacuum_spectrum_tolerance_scales_with_largest_eigenvalue(runner):
    # eigenvalues reach ~3e10 here; the smallest is -5e-6 from roundoff
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "8", "--cutoff", "10"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["minEigenvalue"] < -1e-8


def test_vacuum_spectrum_rejects_nonpositive_tolerance(runner):
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "2", "--cutoff", "6",
                               "--psd-tol", "-1"])
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ["fz-check", "--q1", "nan"],
    ["fz-check", "--q2", "inf"],
    ["fz-check", "--kappa", "nan"],
    ["fz-check", "--kappa", "-inf"],
    ["fz-check", "--eta-im", "nan"],
    ["vacuum-spectrum", "--kappa", "nan", "--level", "1", "--cutoff", "4"],
    ["vacuum-spectrum", "--kappa", "inf", "--level", "1", "--cutoff", "4"],
    ["vacuum-spectrum", "--kappa", "1", "--level", "1", "--cutoff", "4",
     "--psd-tol", "nan"],
    ["vacuum-spectrum", "--kappa", "1", "--level", "1", "--cutoff", "4",
     "--psd-tol", "inf"],
])
def test_non_finite_fock_inputs_rejected(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


NO_NUMPY_PROBE = """
import sys
from click.testing import CliRunner
from w3lab.cli import main
for args in (["--help"], ["classify", "--c", "50", "--h", "1", "--w", "0"],
             ["region", "--c", "50", "--h-max", "1", "--w-max", "1",
              "--res", "3"],
             ["gram", "--level", "2", "--symbolic"]):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, (args, res.output)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_exact_commands_start_without_numpy(tmp_path):
    res = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE],
                         capture_output=True, text=True,
                         env=_child_env(tmp_path), timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_variant_choices_are_fock_variants():
    option = next(p for p in main.commands["fz-check"].params
                  if p.name == "variant")
    assert tuple(option.type.choices) == fock.VARIANTS


def test_fz_check_nan_residual_fails(runner, monkeypatch):
    real_check = fock.check_w3_relations

    def nan_residual(*args):
        rep = real_check(*args)
        rep["maxResidual"] = float("nan")
        rep["centralCharge"]["error"] = float("nan")
        return rep

    monkeypatch.setattr(fock, "check_w3_relations", nan_residual)
    res = runner.invoke(main, ["fz-check", "--variant", "raw", "--cutoff",
                               "6", "--max-mode", "1", "--max-level", "1"])
    assert res.exit_code == 5
    assert {"relations", "centralCharge"} <= set(
        json.loads(res.output)["failures"])


def test_vacuum_spectrum_nan_eigenvalue_fails(runner, monkeypatch):
    real_gram = fock.cyclic_gram

    def nan_eigenvalue(*args):
        cg = real_gram(*args)
        cg.eigenvalues[-1] = float("nan")
        return cg

    monkeypatch.setattr(fock, "cyclic_gram", nan_eigenvalue)
    res = runner.invoke(main, ["vacuum-spectrum", "--kappa", "1",
                               "--level", "2", "--cutoff", "6"])
    assert res.exit_code == 5
