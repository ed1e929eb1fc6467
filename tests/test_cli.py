import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w3lab import cli, exact, fock, kac, verma


def test_gram_level0(runner):
    res = runner(["gram", "--level", "0"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["entries"] == [["1"]]


def test_gram_level1_symbolic_entry(runner):
    res = runner(["gram", "--level", "1", "--symbolic"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["entries"][0][1] == "3*w"


def test_gram_level2_evaluated(runner):
    res = runner(["gram", "--level", "2", "--c", "3",
                  "--h", "1/24", "--w", "0"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert len(payload["entries"]) == 5
    assert Fraction(payload["determinant"]) > 0


def test_gram_cache_determinism(runner):
    first = runner(["gram", "--level", "2", "--symbolic"])
    second = runner(["gram", "--level", "2", "--symbolic"])
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout


def test_gram_pretty_format(runner):
    res = runner(["gram", "--level", "1", "--symbolic",
                  "--format", "pretty"])
    assert res.exit_code == 0
    assert "L-1" in res.stdout and "3*w" in res.stdout


def test_kac_verify_requires_point_source(runner):
    res = runner(["kac-verify", "--level", "1"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_gram_level_too_large(runner):
    res = runner(["gram", "--level", "7"])
    assert res.exit_code == 3
    err = json.loads(res.stderr)
    assert err["error"] == "LevelTooLarge"


def test_gram_pole_exit(runner):
    res = runner(["gram", "--level", "1", "--c", "-22/5",
                  "--h", "0", "--w", "0"])
    assert res.exit_code == 2
    # the point engine needs b^2 = 16/(22+5c) at every level, even level 0
    res = runner(["gram", "--level", "0", "--c", "-22/5",
                  "--h", "0", "--w", "0"])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"] == "PoleAtForbiddenCentralCharge"


def test_gram_cache_truncated_file_is_rebuilt(runner, tmp_path):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    assert first.exit_code == 0
    path = cli._cache_path(tmp_path / "cache", 2)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    second = runner(args)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    assert path.read_text() == text


def test_gram_cache_wrong_level_is_rebuilt(runner, tmp_path):
    first = runner(["gram", "--level", "1", "--symbolic"])
    cache = tmp_path / "cache"
    cli._cache_path(cache, 2).write_text(
        cli._cache_path(cache, 1).read_text())
    res = runner(["gram", "--level", "2", "--symbolic"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["level"] == 2
    assert res.stdout != first.stdout


def test_gram_cached_level_above_cap_is_refused(runner, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cli._cache_path(cache, 7).write_text(
        json.dumps({"level": 7, "basis": [], "entries": []}))
    res = runner(["gram", "--level", "7"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "LevelTooLarge"


def test_gram_cache_file_stores_the_entries_sha256(runner, tmp_path):
    assert runner(["gram", "--level", "1"]).exit_code == 0
    payload = json.loads(cli._cache_path(tmp_path / "cache", 1).read_text())
    assert payload["sha256"] == cli._entries_sha256(payload["entries"])


def test_gram_cache_edited_entries_are_rebuilt(runner, tmp_path):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    path = cli._cache_path(tmp_path / "cache", 2)
    text = path.read_text()
    edited = json.loads(text)
    assert edited["entries"][0][1] != "0"
    edited["entries"][0][1] = edited["entries"][1][0] = "0"
    path.write_text(json.dumps(edited))
    # the edited file still parses as a level-2 Gram over the right basis
    assert verma.GramMatrix.from_json(path.read_text()).level == 2
    second = runner(args)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    assert path.read_text() == text


def test_gram_entries_stay_within_the_cache_degree_cap():
    for n in range(7):
        entries = verma.gram_matrix(n).payload()["entries"]
        assert cli._degrees_within(entries, 2 * n)
    assert not cli._degrees_within(entries, 2 * 6 - 1)


@pytest.mark.parametrize("entry", [
    "c^1000000000",
    "(h)/(22+5c)^1000000000",
    "c" * 40,  # c^40 without an exponent
    "c^2*h*c",
])
def test_gram_cache_degree_above_the_cap_is_rebuilt(runner, tmp_path, entry):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    path = cli._cache_path(tmp_path / "cache", 2)
    text = path.read_text()
    edited = json.loads(text)
    edited["entries"][0][1] = entry
    edited["sha256"] = cli._entries_sha256(edited["entries"])
    path.write_text(json.dumps(edited))
    second = runner(args)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    assert path.read_text() == text


def test_gram_unwritable_cache_still_answers(runner, tmp_path, monkeypatch):
    args = ["gram", "--level", "2", "--symbolic"]
    cached = runner(args)
    blocker = tmp_path / "file"
    blocker.write_text("")
    # no directory can be made under a regular file
    monkeypatch.setenv("W3LAB_CACHE_DIR", str(blocker / "cache"))
    res = runner(args)
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
    res = runner(["gram", "--level", "2", "--c", "3",
                  "--h", "1/24", "--w", "0"])
    assert res.exit_code == 0
    res = runner(["kac-verify", "--level", "2", "--random", "2"])
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
    # options are spelled out in full: each of these is a unique prefix
    ["vacuum-spectrum", "--kappa", "1", "--lev", "2"],
    ["kac-verify", "--level", "1", "--rand", "3"],
    ["region", "--c", "2", "--h-max", "1", "--w-max", "1", "--re", "3"],
    # a value that starts with '-' is still checked by the option's type
    ["classify", "--c", "-1/0", "--h", "0", "--w", "0"],
    ["region", "--c", "2", "--h-max", "1", "--w-max", "1", "--res", "-3"],
    ["fz-check", "--q1", "-nan"],
    # finite, but kappa^2 or eta^2 overflows
    ["fz-check", "--kappa", "1e160"],
    ["fz-check", "--kappa", "1e154"],
    ["fz-check", "--kappa", "-1e154"],
    ["vacuum-spectrum", "--kappa", "1e160", "--level", "1"],
    ["fz-check", "--eta-im", "1e200"],
])
def test_bad_arguments(runner, args):
    res = runner(args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


@settings(max_examples=40, deadline=None)
@given(level=st.integers(-3, 6), bound=st.integers(-3, 6))
def test_level_options_end_in_a_documented_exit(shared_runner, level, bound):
    """Any --level against any --cutoff or --level-cap exits 0, or with a
    JSON error on stderr and a documented code; never a traceback."""
    for args in (["vacuum-spectrum", "--kappa", "1", "--level", str(level),
                  "--cutoff", str(bound)],
                 ["gram", "--level", str(level), "--level-cap", str(bound)]):
        res = shared_runner(args)
        assert res.exit_code in (0, 1, 3, 6), (args, res.stderr)
        if res.exit_code:
            assert "error" in json.loads(res.stderr), args


def test_kac_verify_random(runner):
    res = runner(["kac-verify", "--level", "1", "--random", "5",
                  "--seed", "3"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "ok"
    assert payload["constant"] == "9"
    assert payload["maxRelDeviation"] == 0.0


def test_kac_verify_samples_file(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["3", "1/24", "0"],
                             ["50", "1", "1/3"]]))
    res = runner(["kac-verify", "--level", "2",
                  "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["constant"] == "104976"


def test_kac_verify_degenerate_sample_exit(runner, tmp_path):
    # (2, 2, 4/3) sits exactly on the first-level vanishing locus
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["2", "2", "4/3"], ["10", "2", "0"]]))
    res = runner(["kac-verify", "--level", "1",
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
    res = runner(["kac-verify", "--level", str(level),
                  "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "ok"
    assert payload["ratios"] == [str(constant)] * 2
    assert payload["constant"] == str(constant)


def test_kac_verify_level_cap(runner):
    res = runner(["kac-verify", "--level", "7", "--random", "2"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "LevelTooLarge"


def test_kac_verify_rejects_nonpositive_tolerance(runner):
    res = runner(["kac-verify", "--level", "1", "--random", "3",
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
    res = runner(args)
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
    a = runner(["kac-verify", "--level", "1", "--random", "4",
                "--seed", "9"])
    b = runner(["kac-verify", "--level", "1", "--random", "4",
                "--seed", "9"])
    assert a.stdout == b.stdout


def test_classify_command(runner):
    res = runner(["classify", "--c", "50", "--h", "0",
                  "--w", "1"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "NotUnitary"


def test_classify_pole(runner):
    res = runner(["classify", "--c", "-22/5", "--h", "0",
                  "--w", "0"])
    assert res.exit_code == 2


def test_classify_float_warns(runner):
    res = runner(["classify", "--c", "10.5", "--h", "1.0",
                  "--w", "0.0"])
    assert res.exit_code == 0
    assert "warning" in res.stderr


def test_gram_decimal_point_warns(runner):
    exact_args = ["gram", "--level", "1", "--c", "1/2", "--h", "1", "--w", "0"]
    res = runner(["gram", "--level", "1", "--c", "0.5",
                  "--h", "1", "--w", "0"])
    assert res.exit_code == 0
    assert res.stdout == runner(exact_args).stdout
    assert "warning" in res.stderr and "1/2" in res.stderr


def _load_workloads(monkeypatch):
    """benchmarks/workloads.py, loaded for this test alone, without putting
    benchmarks/ on sys.path."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argv_shapes_parse_to_their_values(tmp_path, monkeypatch):
    """Each subcommand as the benchmark renders it (Command.argv), with
    negative rationals and floats as separate tokens, parses to the values
    the benchmark meant."""
    wl = _load_workloads(monkeypatch)
    samples = wl.write_samples(tmp_path / "samples.json", [])
    point = (Fraction(-13, 7), Fraction(1, 8), Fraction(-5, 16))
    cases = [
        (wl.Command("kac-verify", {"level": 5, "samples": samples}),
         {"level": 5, "samples": str(samples)}),
        (wl.Command("gram", {"level": 5, "point": point}),
         {"level": 5, "c": point[0], "h": point[1], "w": point[2]}),
        (wl.Command("region", {"c": Fraction(-13, 7), "res": 100}),
         {"c": Fraction(-13, 7), "h_min": 0, "h_max": 2, "w_min": -1,
          "w_max": 1, "res": 100}),
        (wl.Command("classify", {"point": point}),
         {"c": point[0], "h": point[1], "w": point[2]}),
        (wl.Command("fz-check", {"variant": "unitaryFamily", "kappa": 1.25,
                                 "q1": -0.3, "q2": 0.417, "cutoff": 10,
                                 "max_mode": 3, "max_level": 4}),
         {"variant": "unitaryFamily", "kappa": 1.25, "q1": -0.3, "q2": 0.417,
          "cutoff": 10, "max_mode": 3, "max_level": 4}),
        (wl.Command("vacuum-spectrum", {"kappa": 2.5, "level": 8,
                                        "cutoff": 10}),
         {"kappa": 2.5, "level": 8, "cutoff": 10}),
    ]
    for cmd, want in cases:
        args = vars(cli.build_parser().parse_args(cmd.argv()))
        assert {k: args[k] for k in want} == want, cmd.argv()
        assert all(type(args[k]) is type(v) for k, v in want.items()
                   if isinstance(v, (Fraction, float))), cmd.argv()
    args = cli.build_parser().parse_args(
        ["classify", "--c=-13/7", "--h", "0", "--w=-5/16"])
    assert (args.c, args.w) == (Fraction(-13, 7), Fraction(-5, 16))


# sha256 of `region --res 100` over h in [0, 2], w in [-1, 1], one c per
# branch of the classifier: the CSV is pinned byte for byte
REGION_SHA256 = {
    "-13/7": "b0330bc5e8e1902c54c2a90098fa89b0b5260727a5fa6816c2069293d97363b5",
    "353/7": "d487aea3ec996c1f924dbe0eb42285a4984137666d6b18edc2e75aa90c3346a6",
    "842/7": "934f5299fb8add3384655f5dfab096cace38ce2ff79b50d02d9828a4af15de15",
}


# sha256 of `gram --level N --symbolic`: the printed symbolic form, on an
# empty cache and from the cache, is pinned byte for byte
SYMBOLIC_GRAM_SHA256 = {
    3: "469096f142cc5b0c07a67afc1053b3eedaa58492af65334ff16663232b9fff8d",
    4: "15abd341f2f13dd1dac65c03cbcbff44b3515f28367141f15ea4dfada339df81",
    5: "803da616ac918d100227b85fe923cd53f586c3b0bf8af668b6b8251ccdf84380",
}


@pytest.mark.parametrize("level", sorted(SYMBOLIC_GRAM_SHA256))
def test_symbolic_gram_is_pinned(runner, level):
    for _ in ("built", "cached"):
        res = runner(["gram", "--level", str(level), "--symbolic"])
        assert res.exit_code == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == SYMBOLIC_GRAM_SHA256[level]


@pytest.mark.parametrize("c", sorted(REGION_SHA256))
def test_region_csv_is_pinned(runner, c):
    res = runner(["region", "--c", c, "--h-min", "0", "--h-max", "2",
                  "--w-min", "-1", "--w-max", "1", "--res", "100"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == REGION_SHA256[c]


def test_region_csv(runner):
    res = runner(["region", "--c", "2", "--h-max", "1",
                  "--w-max", "1/2", "--res", "3"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "c,h,w,status,witness,f11_minus_w2,constructive_bound"
    assert len(lines) == 10


def test_fz_check_ok(runner):
    res = runner(["fz-check", "--variant", "vacuumModified",
                  "--kappa", "1", "--cutoff", "8",
                  "--max-mode", "2", "--max-level", "2"])
    assert res.exit_code == 0, res.stdout
    payload = json.loads(res.stdout)
    assert payload["failures"] == []
    assert payload["relations"]["maxResidual"] < 1e-9
    assert payload["weakSymmetry"]["unpairedControlDefect"] > 1e-3


def test_fz_check_cutoff_guard(runner):
    res = runner(["fz-check", "--cutoff", "5", "--max-mode", "3",
                  "--max-level", "3"])
    assert res.exit_code == 6


def test_vacuum_spectrum(runner):
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "4", "--cutoff", "7"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["minEigenvalue"] >= -1e-8
    assert payload["centralCharge"] == 14.0


def test_vacuum_spectrum_kappa0(runner):
    res = runner(["vacuum-spectrum", "--kappa", "0",
                  "--level", "2", "--cutoff", "6"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["minEigenvalue"] >= -1e-10


def test_vacuum_spectrum_above_98(runner):
    res = runner(["vacuum-spectrum", "--kappa", "3",
                  "--level", "3", "--cutoff", "6"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["centralCharge"] == 110.0
    assert payload["minEigenvalue"] >= -1e-8


def test_vacuum_spectrum_margin_guard(runner):
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "6", "--cutoff", "7"])
    assert res.exit_code == 6


def test_vacuum_spectrum_psd_failure_exit(runner):
    # an absurdly tight tolerance turns float noise into a reported failure
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "4", "--cutoff", "7",
                  "--psd-tol", "1e-16"])
    assert res.exit_code == 5


def test_vacuum_spectrum_tolerance_scales_with_largest_eigenvalue(runner):
    # eigenvalues reach ~3e10 here; the smallest is -5e-6 from roundoff
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "8", "--cutoff", "10"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["minEigenvalue"] < -1e-8


def test_vacuum_spectrum_rejects_nonpositive_tolerance(runner):
    res = runner(["vacuum-spectrum", "--kappa", "1",
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
    res = runner(args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


# Prints, after the command's own output, every module that importing the
# CLI and running one command loads in this fresh interpreter (what the
# interpreter's start-up loaded is left out).
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from w3lab.cli import main
try:
    main(sys.argv[1:])
except SystemExit as e:
    assert not e.code, e.code
print(" ".join(sorted(set(sys.modules) - before)))
"""

LIGHT_COMMANDS = [
    ["--help"],
    ["classify", "--c", "50", "--h", "1", "--w", "0"],
    ["region", "--c", "50", "--h-max", "1", "--w-max", "1", "--res", "3"],
]

# none of these may load for a light command: third-party packages,
# standard-library modules that are slow to import and that these commands
# do not need, and the Verma, Kac and Fock machinery
HEAVY = {"click", "numpy", "dataclasses", "hashlib", "w3lab.verma",
         "w3lab.kac", "w3lab.modular", "w3lab.fock"}


def _modules_loaded_by(args, tmp_path) -> set:
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args],
                         capture_output=True, text=True,
                         env=_child_env(tmp_path), timeout=120)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


def _numpy_modules(loaded: set) -> set:
    return {m for m in loaded if m.split(".")[0] == "numpy"}


def test_exact_commands_start_without_numpy(tmp_path):
    """Each command in its own fresh interpreter: the light ones load no
    heavy module, and the symbolic Gram loads the Verma engine but no
    numpy.  Exact determinants of at most modular.BAREISS_MAX_N rows (the
    Grams of levels 1-5) load neither numpy nor dataclasses; the level-6
    Gram (65 rows) takes the multi-modular path, which loads numpy."""
    for args in LIGHT_COMMANDS:
        loaded = _modules_loaded_by(args, tmp_path)
        assert "w3lab.cli" in loaded
        assert {m for m in loaded
                if m in HEAVY or m.split(".")[0] in HEAVY} == set(), args
    loaded = _modules_loaded_by(["gram", "--level", "2", "--symbolic"],
                                tmp_path)
    assert "w3lab.verma" in loaded
    assert _numpy_modules(loaded) == set()
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([["225/7", "21/8", "5/16"],
                                   ["155/7", "17/8", "-3/16"]]))
    kac_verify = ["kac-verify", "--samples", str(samples), "--level"]
    for args in (kac_verify + ["5"],
                 ["gram", "--level", "5", "--c", "225/7", "--h", "21/8",
                  "--w", "5/16"]):
        loaded = _modules_loaded_by(args, tmp_path)
        assert {"w3lab.verma", "w3lab.modular"} <= loaded, args
        assert _numpy_modules(loaded) | (loaded & {"dataclasses"}) == set()
    assert "numpy" in _modules_loaded_by(kac_verify + ["6"], tmp_path)


@pytest.mark.parametrize("args", LIGHT_COMMANDS[1:])
def test_light_commands_run_on_the_standard_library_alone(runner, tmp_path,
                                                          args):
    """``python -S`` has no site-packages on its path: the command runs on
    the standard library and this checkout, and prints what it prints
    in-process."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-S", "-m", "w3lab.cli", *args],
                         capture_output=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src,
                                  W3LAB_CACHE_DIR=str(tmp_path / "cache")))
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode() == runner(args).stdout


def test_variant_choices_are_fock_variants():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in commands.choices["fz-check"]._actions
                  if a.dest == "variant")
    assert tuple(option.choices) == fock.VARIANTS


def test_fz_check_nan_residual_fails(runner, monkeypatch):
    real_check = fock.check_w3_relations

    def nan_residual(*args):
        rep = real_check(*args)
        rep["maxResidual"] = float("nan")
        rep["centralCharge"]["error"] = float("nan")
        return rep

    monkeypatch.setattr(fock, "check_w3_relations", nan_residual)
    res = runner(["fz-check", "--variant", "raw", "--cutoff",
                  "6", "--max-mode", "1", "--max-level", "1"])
    assert res.exit_code == 5
    assert {"relations", "centralCharge"} <= set(
        json.loads(res.stdout)["failures"])


def test_vacuum_spectrum_nan_eigenvalue_fails(runner, monkeypatch):
    real_gram = fock.cyclic_gram

    def nan_eigenvalue(*args):
        cg = real_gram(*args)
        cg.eigenvalues[-1] = float("nan")
        return cg

    monkeypatch.setattr(fock, "cyclic_gram", nan_eigenvalue)
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "2", "--cutoff", "6"])
    assert res.exit_code == 5


OVERFLOWING_SPECTRUM = ["vacuum-spectrum", "--kappa", "1e150",
                        "--level", "2", "--cutoff", "4"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vacuum_spectrum_overflowed_gram_fails(runner):
    # kappa^2 is finite, so the option is taken; the Gram overflows
    res = runner(OVERFLOWING_SPECTRUM)
    assert res.exit_code == 5
    assert math.isnan(json.loads(res.stdout)["minEigenvalue"])


def test_vacuum_spectrum_overflow_writes_nothing_to_stderr(tmp_path):
    res = subprocess.run([sys.executable, "-m", "w3lab.cli",
                          *OVERFLOWING_SPECTRUM], capture_output=True,
                         text=True, env=_child_env(tmp_path), timeout=120)
    assert res.returncode == 5
    assert res.stderr == ""
    assert math.isnan(json.loads(res.stdout)["minEigenvalue"])
