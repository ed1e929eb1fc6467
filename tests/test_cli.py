import argparse
import ast
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_loads
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


@pytest.mark.parametrize("extra", [["--symbolic"], ["--format", "pretty"]])
def test_gram_point_takes_no_symbolic_or_pretty_output(runner, extra):
    res = runner(["gram", "--level", "2", "--c", "3", "--h", "1/24",
                  "--w", "0", *extra])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_kac_verify_requires_point_source(runner):
    res = runner(["kac-verify", "--level", "1"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


def _level_error(level, cap):
    """The one stderr line of a level above --level-cap."""
    return json.dumps({"error": "LevelTooLarge", "message":
                       f"level {level} exceeds cap {cap}; raise level_cap "
                       f"if the P2(level)^2 exact reductions are genuinely "
                       f"wanted"}) + "\n"


def test_gram_level_too_large(runner):
    res = runner(["gram", "--level", "7"])
    assert res.exit_code == 3
    err = json.loads(res.stderr)
    assert err["error"] == "LevelTooLarge"
    assert res.stderr == _level_error(7, 6)


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
    path = cli._cache_path(2)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    second = runner(args)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    assert path.read_text() == text


def test_gram_cache_wrong_level_is_rebuilt(runner):
    first = runner(["gram", "--level", "1", "--symbolic"])
    cli._cache_path(2).write_text(cli._cache_path(1).read_text())
    res = runner(["gram", "--level", "2", "--symbolic"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["level"] == 2
    assert res.stdout != first.stdout


def test_gram_cached_level_above_cap_is_refused(runner):
    path = cli._cache_path(7)
    path.parent.mkdir()
    path.write_text(
        json.dumps({"level": 7, "basis": [], "entries": []}))
    res = runner(["gram", "--level", "7"])
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "LevelTooLarge"
    assert res.stderr == _level_error(7, 6)


def test_gram_without_a_cache_dir_writes_no_file(runner, tmp_path,
                                                 monkeypatch):
    """With $W3LAB_CACHE_DIR unset the symbolic Gram prints the same text
    and writes no file: not under $HOME, not in the working directory."""
    cached = runner(["gram", "--level", "1", "--symbolic"])
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.delenv("W3LAB_CACHE_DIR")
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(home)
    assert cli._cache_path(1) is None
    res = runner(["gram", "--level", "1", "--symbolic"])
    assert (res.exit_code, res.stdout, res.stderr) == (0, cached.stdout, "")
    assert list(home.rglob("*")) == []


def test_gram_cache_file_holds_the_printed_json(runner):
    printed = runner(["gram", "--level", "1"]).stdout
    assert cli._cache_path(1).read_text() == printed
    # one text: GramMatrix.to_json, which from_json reads back
    assert printed == verma.gram_matrix(1).to_json() + "\n"
    assert verma.GramMatrix.from_json(printed).to_json() + "\n" == printed
    # there is no other format
    res = runner(["gram", "--level", "1", "--format", "pretty"])
    assert (res.exit_code, res.stdout) == (1, "")
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_gram_cache_rehashed_edited_entries_never_reach_the_output(runner):
    # an edit that keeps the file consistent with itself: the entries still
    # parse and form the level-2 Gram's shape
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    path = cli._cache_path(2)
    text = path.read_text()
    edited = json.loads(text)
    assert edited["entries"][1][1] != "0"
    edited["entries"][1][1] = "0"
    path.write_text(json.dumps(edited, indent=2))
    assert verma.GramMatrix.from_json(path.read_text()).level == 2
    second = runner(args)
    assert second.exit_code == 0
    assert second.stdout == first.stdout
    assert json.loads(second.stdout)["entries"][1][1] != "0"
    assert path.read_text() == text


def test_gram_cache_edited_entries_are_rebuilt(runner):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    path = cli._cache_path(2)
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


@pytest.mark.parametrize("entry", [
    "c^1000000000",
    "(h)/(22+5c)^1000000000",
    "c" * 40,  # c^40 without an exponent
    "c^2*h*c",
])
def test_gram_cache_degree_above_the_cap_is_rebuilt(runner, entry):
    args = ["gram", "--level", "2", "--symbolic"]
    first = runner(args)
    path = cli._cache_path(2)
    text = path.read_text()
    edited = json.loads(text)
    edited["entries"][0][1] = entry
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


def test_gram_cache_path_taken_by_a_directory(runner, tmp_path):
    """The cache file cannot replace a directory: the Gram is printed all
    the same, and the temporary file written beside it is removed."""
    args = ["gram", "--level", "2", "--symbolic"]
    expected = runner(args).stdout
    cli._cache_path(2).unlink()
    cli._cache_path(2).mkdir()
    res = runner(args)
    assert res.exit_code == 0
    assert res.stdout == expected
    assert cli._cache_path(2).is_dir()
    assert [p.name for p in cli._cache_path(2).parent.iterdir()] == \
        ["gram-2-symbolic.json"]


def test_exit_codes_name_the_library_exceptions():
    # the table is keyed by class name; a renamed class would otherwise
    # turn its exit code into a traceback
    assert set(cli.EXIT_CODES) == {
        exact.PoleAtForbiddenCentralCharge.__name__,
        kac.DegenerateSample.__name__, fock.CutoffExceeded.__name__}


def test_exceptions_outside_the_table_propagate(monkeypatch):
    """An exception that EXIT_CODES does not name is a fault, not a
    verdict: main re-raises it and writes no JSON error."""
    def broken(*args):
        raise RuntimeError("not a library error")
    monkeypatch.setattr(cli, "run_classify", broken)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(RuntimeError, match="not a library error"):
        cli.main(["classify", "--c", "50", "--h", "0", "--w", "1"])
    assert out.getvalue() == err.getvalue() == ""


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
    ["kac-verify", "--level", "1", "--random", "0"],
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
    # a negative cutoff is a bad value, not a budget that trips (exit 3)
    ["fz-check", "--cutoff", "-1"],
    ["vacuum-spectrum", "--kappa", "1", "--level", "0", "--cutoff", "-1"],
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
        assert res.exit_code in (0, 1, 3), (args, res.stderr)
        if res.exit_code:
            assert "error" in json.loads(res.stderr), args


def test_kac_verify_random(runner):
    res = runner(["kac-verify", "--level", "1", "--random", "5",
                  "--seed", "3"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "ok"
    assert payload["constant"] == "9"


def test_kac_verify_samples_file(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["3", "1/24", "0"],
                             ["50", "1", "1/3"]]))
    res = runner(["kac-verify", "--level", "2",
                  "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["constant"] == "104976"


def test_random_region_points_are_distinct(monkeypatch):
    """A point drawn a second time is skipped: the draws A, A, B give the
    points A and B."""
    class Draws:
        def __init__(self, seed):
            # randint for c, its hundredths, h's numerator and denominator,
            # then uniform for w
            self.values = iter([50, 0, 5, 1, 0.0] * 2 + [60, 0, 5, 1, 0.0])

        def randint(self, a, b):
            return next(self.values)

        uniform = randint

    monkeypatch.setattr(random, "Random", Draws)
    assert cli._random_region_points(2, 0) == [
        (Fraction(50), Fraction(5), Fraction(0)),
        (Fraction(60), Fraction(5), Fraction(0))]


@pytest.mark.parametrize("rows", [
    # each string would be iterated digit by digit into a point
    ["345", "678"],
    {"345": 1, "678": 2},
    [["10", "2", True], ["3", "1/24", "0"]],
    [["10", "2", "1/7"], "3,1/24,0"],
])
def test_kac_verify_rejects_a_malformed_samples_file(runner, tmp_path, rows):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(rows))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "BadArguments"


def test_kac_verify_refuses_an_empty_samples_file(runner, tmp_path):
    """No run passes vacuously."""
    f = tmp_path / "pts.json"
    f.write_text("[]")
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "BadArguments"


@pytest.mark.parametrize("level", range(1, 7))
def test_kac_verify_one_point_is_a_complete_check(shared_runner, tmp_path,
                                                  level):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"]]))
    res = shared_runner(["kac-verify", "--level", str(level),
                         "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "ok"
    assert payload["ratios"] == [str(kac.kac_constant(level))]


@pytest.mark.parametrize("rows", [
    [["50", "5", "1/3"], ["50", "5", "1/3"]],
    [["50", "5", "1/3"], ["100/2", "10/2", "2/6"]],
], ids=["same", "respelled"])
def test_kac_verify_takes_one_point_written_twice(runner, tmp_path, rows):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(rows))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["points"] == [["50", "5", "1/3"]] * 2
    assert payload["ratios"] == ["9", "9"]
    assert payload["verdict"] == "ok"


def test_kac_verify_fails_a_doubled_closed_form(runner, tmp_path,
                                                monkeypatch):
    """Twice the closed form at every point gives equal ratios C_N / 2:
    verdict fail and exit 4."""
    real = kac.kac_closed_form_exact
    monkeypatch.setattr(kac, "kac_closed_form_exact",
                        lambda *args: 2 * real(*args))
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["50", "5", "1/3"]]))
    res = runner(["kac-verify", "--level", "2", "--samples", str(f)])
    assert res.exit_code == 4
    payload = json.loads(res.stdout)
    assert payload["ratios"] == ["52488"] * 2
    assert payload["constant"] == "104976"
    assert payload["verdict"] == "fail"


@pytest.mark.parametrize("text, value", [
    ("30.000000000000000001", Fraction(30) + Fraction(1, 10 ** 18)),
    ("1e400", Fraction(10 ** 400)),
], ids=["long-decimal", "beyond-float"])
def test_a_samples_file_decimal_is_read_exactly(runner, tmp_path, text,
                                                value):
    """A JSON number is read from its text, not through a float, which
    would give c = 30 and 0.1 = 3602879701896397/2^55, or refuse 1e400
    as infinite."""
    f = tmp_path / "pts.json"
    f.write_text("[[%s, 5, 0.1]]" % text)
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["points"] == [[str(value), "5", "1/10"]]
    assert payload["verdict"] == "ok"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_a_samples_file_refuses_non_finite_numbers(runner, tmp_path, text):
    f = tmp_path / "pts.json"
    f.write_text("[[%s, 5, 0]]" % text)
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_kac_verify_rejects_a_samples_path_it_cannot_read(runner, tmp_path,
                                                          name):
    """A path that does not exist or is a directory fails when it is
    opened, with the one samples-file error."""
    res = runner(["kac-verify", "--level", "1",
                  "--samples", str(tmp_path / name)])
    assert res.exit_code == 1
    assert res.stdout == ""
    error = json.loads(res.stderr)
    assert error["error"] == "BadArguments"
    assert error["message"].startswith("unreadable samples file: ")


def test_kac_verify_fails_on_ratios_beyond_any_float(runner, tmp_path,
                                                     monkeypatch):
    """Ratios 10^400 apart end in verdict fail and exit 4, not an
    OverflowError."""
    real = kac.kac_closed_form_exact
    monkeypatch.setattr(kac, "kac_closed_form_exact", lambda level, c, h, w:
                        real(level, c, h, w) / (10 ** 400 if c == 3 else 1))
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "0"], ["3", "1/24", "0"]]))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 4
    assert res.stderr == ""
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "fail"
    assert payload["ratios"] == ["9", str(9 * 10 ** 400)]


def test_kac_verify_takes_samples_or_random_not_both(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["3", "1/24", "0"]]))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f),
                  "--random", "2"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "BadArguments",
        "message": "argument --random: not allowed with argument --samples"}


def test_kac_verify_seed_goes_with_random_only(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["10", "2", "1/7"], ["3", "1/24", "0"]]))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f),
                  "--seed", "5"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "BadArguments",
        "message": "argument --seed: not allowed with argument --samples"}


def test_kac_verify_random_defaults_to_seed_0(runner):
    unseeded = runner(["kac-verify", "--level", "1", "--random", "3"])
    seeded = runner(["kac-verify", "--level", "1", "--random", "3",
                     "--seed", "0"])
    assert unseeded.exit_code == seeded.exit_code == 0
    assert unseeded.stdout == seeded.stdout
    assert unseeded.stdout != runner(["kac-verify", "--level", "1",
                                      "--random", "3", "--seed", "1"]).stdout


def test_kac_verify_degenerate_sample_exit(runner, tmp_path):
    # (2, 2, 4/3) sits exactly on the first-level vanishing locus
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([["2", "2", "4/3"], ["10", "2", "0"]]))
    res = runner(["kac-verify", "--level", "1",
                  "--samples", str(f)])
    assert res.exit_code == 4
    err = json.loads(res.stderr)
    assert err["error"] == "DegenerateSample"
    assert err["message"] == "closed form vanishes at c=2, h=2, w=4/3"


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
    assert res.stderr == _level_error(7, 6)


@pytest.mark.parametrize("args, level, cap", [
    (["gram", "--level", "9", "--level-cap", "8"], 9, 8),
    (["gram", "--level", "9", "--level-cap", "8", "--c", "10", "--h", "2",
      "--w", "0"], 9, 8),
    (["kac-verify", "--level", "9", "--level-cap", "8", "--random", "2"],
     9, 8),
    (["gram", "--level", "7", "--c", "3", "--h", "1", "--w", "0"], 7, 6),
], ids=["gram-symbolic", "gram-point", "kac-verify", "gram-point-default"])
def test_level_guard(runner, args, level, cap):
    """The CLI's level cap: exit 3, nothing on stdout, and the one JSON
    error line on stderr."""
    res = runner(args)
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == _level_error(level, cap)


def test_level_guard_comes_before_a_pole_or_a_degenerate_sample(
        runner, tmp_path):
    res = runner(["gram", "--level", "7", "--c", "-22/5", "--h", "0",
                  "--w", "0"])
    assert (res.exit_code, res.stderr) == (3, _level_error(7, 6))
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(DEGENERATE_SAMPLES))
    res = runner(["kac-verify", "--level", "7", "--samples", str(samples)])
    assert (res.exit_code, res.stderr) == (3, _level_error(7, 6))
    # under the cap the same inputs reach the pole and the degenerate sample
    res = runner(["gram", "--level", "1", "--c", "-22/5", "--h", "0",
                  "--w", "0"])
    assert res.exit_code == 2
    res = runner(["kac-verify", "--level", "1", "--samples", str(samples)])
    assert res.exit_code == 4


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


def test_region_survives_a_bound_beyond_float_range(runner):
    """The constructive bound's square overflows a float at h = 10^200, its
    root does not; at h = 10^400 the root overflows too and prints inf."""
    for c in ("50", "150"):
        res = runner(["region", "--c", c, "--h-max", "1e200",
                      "--w-max", "1", "--res", "2"])
        assert res.exit_code == 0
        bounds = [line.split(",")[-1] for line in res.stdout.splitlines()]
        assert bounds[1:3] == ["", ""]
        root = float(bounds[3])
        assert bounds[3] == bounds[4] and 1e298 < root < 1e300
    res = runner(["region", "--c", "150", "--h-max", "1e400",
                  "--w-max", "1", "--res", "2"])
    assert res.exit_code == 0
    assert [line.split(",")[-1] for line in res.stdout.splitlines()[3:]] == [
        "inf", "inf"]


@pytest.mark.parametrize("args, key", [
    (["gram", "--level", "6", "--c", "50", "--h", "100000000000000000000",
      "--w", "0"], "determinant"),
    (["classify", "--c", "50", "--h", "1e2000", "--w", "0"],
     "f11_minus_w2"),
])
def test_exact_answers_beyond_the_int_digit_limit_print_in_full(
        runner, args, key):
    """Answers longer than CPython's 4300-digit int-to-str limit print in
    full, and main restores the limit afterwards."""
    limit = sys.get_int_max_str_digits()
    res = runner(args)
    assert res.exit_code == 0
    value = json.loads(res.stdout)[key]
    assert re.fullmatch(r"-?\d{4301,}(/\d+)?", value)
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("text", [
    "1e99999", "1e4300", "1E+0004300", "7" * 4301, "1/" + "3" * 4300,
    "0." + "0" * 4299 + "1", "1e1_0000"], ids=lambda text: text[:12])
def test_rational_inputs_beyond_4300_digits_are_bad_arguments(
        runner, tmp_path, text):
    """The text is measured before any integer is formed, on the options
    and in a samples file alike, so the refusal is quick."""
    res = runner(["classify", "--c", text, "--h", "1", "--w", "0"])
    assert res.exit_code == 1
    error = json.loads(res.stderr)
    assert error["error"] == "BadArguments"
    assert error["message"].endswith("has more than 4300 digits")
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([[text, "2", "0"], ["3", "1/24", "0"]]))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 1
    error = json.loads(res.stderr)
    assert error["error"] == "BadArguments"
    assert error["message"].startswith("unreadable samples file: ")
    assert error["message"].endswith("has more than 4300 digits")


def test_a_huge_exponent_is_refused_at_once(tmp_path):
    """Fraction("1e999999999") alone would run for many minutes; in a
    child process, so that a regression ends at the timeout."""
    res = subprocess.run([sys.executable, "-m", "w3lab.cli", "classify",
                          "--c", "1e999999999", "--h", "1", "--w", "0"],
                         capture_output=True, text=True,
                         env=_child_env(tmp_path), timeout=20)
    assert res.returncode == 1
    assert json.loads(res.stderr) == {
        "error": "BadArguments",
        "message": "argument --c: '1e999999999' has more than 4300 digits"}


def test_a_samples_file_integer_is_measured_as_text(runner, tmp_path):
    f = tmp_path / "pts.json"
    f.write_text('[[%s, 2, 0], [3, "1/24", 0]]' % ("9" * 5000))
    res = runner(["kac-verify", "--level", "1", "--samples", str(f)])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["message"].endswith(
        "has more than 4300 digits")


@pytest.mark.parametrize("text", ["1e4299", "1e-4299", "9" * 4300],
                         ids=lambda text: text[:12])
def test_rational_inputs_of_4300_digits_are_taken(runner, text):
    res = runner(["classify", "--c", "50", "--h", text, "--w", "0"])
    assert res.exit_code == 0
    assert Fraction(json.loads(res.stdout)["h"]) == Fraction(text)


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
# empty cache and again over the file the first run wrote, is pinned byte
# for byte, and so is that file
SYMBOLIC_GRAM_SHA256 = {
    3: "469096f142cc5b0c07a67afc1053b3eedaa58492af65334ff16663232b9fff8d",
    4: "15abd341f2f13dd1dac65c03cbcbff44b3515f28367141f15ea4dfada339df81",
    5: "803da616ac918d100227b85fe923cd53f586c3b0bf8af668b6b8251ccdf84380",
    6: "760e162ec6627f25389dd54f99c3b4e8a1a95c37a6469927be21baf7e1af7e6c",
}


@pytest.mark.parametrize("level", sorted(SYMBOLIC_GRAM_SHA256))
def test_symbolic_gram_is_pinned(runner, level):
    for _ in ("built", "cached"):
        res = runner(["gram", "--level", str(level), "--symbolic"])
        assert res.exit_code == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == SYMBOLIC_GRAM_SHA256[level]
        stored = cli._cache_path(level).read_bytes()
        assert hashlib.sha256(stored).hexdigest() == SYMBOLIC_GRAM_SHA256[level]


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


def test_fz_check_weak_symmetry_control_must_show_a_defect(runner):
    # at --max-level 0 every defect is 0.0, the bare L_n's too, so the pair
    # and triple checks tell nothing apart
    res = runner(["fz-check", "--kappa", "1", "--max-level", "0"])
    assert res.exit_code == 5
    payload = json.loads(res.stdout)
    assert payload["weakSymmetry"]["unpairedControlDefect"] == 0.0
    assert payload["failures"] == ["weakSymmetryControl"]
    # at kappa = 0 a bare L_n is weakly adjointable: there is no control
    res = runner(["fz-check", "--kappa", "0", "--max-level", "0"])
    assert res.exit_code == 0, res.stdout


FZ_SWEEP = ["fz-check", "--max-mode", "3", "--max-level", "3"]


def test_fz_check_relations_bound_scales_with_the_blocks(runner):
    """At kappa = 1000 the largest residual is roundoff of about 6e-8, far
    above an absolute 1e-9 but some 1e-16 of the blocks compared."""
    res = runner(FZ_SWEEP + ["--kappa", "1000"])
    assert res.exit_code == 0, res.stdout
    relations = json.loads(res.stdout)["relations"]
    assert relations["maxResidual"] > 1e-9
    assert relations["maxResidual"] < 1e-15 * relations["scale"]


@pytest.mark.parametrize("kappa", ["1", "1000"])
def test_fz_check_fails_a_wrong_structure_constant(runner, monkeypatch,
                                                   kappa):
    """The L-coefficient of [W_m, W_n] set to 1/31 in place of 1/30."""
    real_bracket = fock.bracket

    def mutated(g1, m, g2, n, ring):
        return [(coef * 30 / 31 if g1 == g2 == "W" and kind == "L" else coef,
                 kind, idx)
                for coef, kind, idx in real_bracket(g1, m, g2, n, ring)]

    monkeypatch.setattr(fock, "bracket", mutated)
    res = runner(FZ_SWEEP + ["--kappa", kappa])
    assert res.exit_code == 5
    assert json.loads(res.stdout)["failures"] == ["relations"]


def test_fz_check_zero_vector_bound_scales_with_the_terms(runner):
    """At kappa = 10^4 the W_-2 O norm is roundoff of terms about 10^4 in
    size that cancel; each norm is bounded relative to its own terms."""
    res = runner(FZ_SWEEP + ["--kappa", "10000"])
    assert res.exit_code == 0, res.stdout
    zv = json.loads(res.stdout)["zeroVectors"]
    assert zv["scale"]["W-1"] == pytest.approx(5477.2256, rel=1e-6)
    assert zv["scale"]["W-2"] == pytest.approx(10954.451, rel=1e-6)
    for key in ("L-1", "W-1", "W-2"):
        assert zv[key] <= cli.RESIDUAL_TOL * max(1.0, zv["scale"][key])
    # the library reports the scales the command prints
    norms = fock.zero_vector_norms(fock.RealizationParams(kappa=10000.0,
                                                          cutoff=8))
    assert norms["scale"] == zv["scale"]
    # at kappa = 1 every scale is below 1, so the bound stays absolute
    res = runner(FZ_SWEEP + ["--kappa", "1"])
    assert res.exit_code == 0, res.stdout
    assert max(json.loads(res.stdout)["zeroVectors"]["scale"].values()) < 1


@pytest.mark.parametrize("kappa", ["1", "10000"])
def test_fz_check_zero_vectors_fail_with_rho_sign_flipped(runner, kappa):
    real_rho = fock.rho_coefficient
    fock._realization.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock, "rho_coefficient", lambda n: -real_rho(n))
            res = runner(FZ_SWEEP + ["--kappa", kappa])
    finally:
        # the realization cache holds blocks built with the flipped sign
        fock._realization.cache_clear()
    assert res.exit_code == 5
    payload = json.loads(res.stdout)
    assert "zeroVectors" in payload["failures"]
    zv = payload["zeroVectors"]
    assert max(zv["W-1"], zv["W-2"]) > 1e6 * cli.RESIDUAL_TOL * max(
        1.0, *zv["scale"].values())


@pytest.mark.parametrize("extra", [
    ["--kappa", "700.3", "--eta-im", "300.7"],
    ["--kappa", "100000.3", "--eta-im", "100000.7"],
    ["--kappa", "1e6"],
    ["--kappa", "1e7"]], ids=["k700-eta300", "k1e5-eta1e5", "k1e6", "k1e7"])
def test_fz_check_passes_roundoff_of_large_terms(runner, extra):
    """Each residual is judged against the terms it sums.  An absolute
    1e-10 failed the automorphism identity at the first two inputs (5.8e-10
    against terms of 2e5; at kappa = |eta| the constant (kappa^2+eta^2)/2
    cancels kappa^2 of 1e10), an absolute 1e-9 the weak symmetry at the
    last two (a triple defect of 3.7e-9 against hats of 1.7e7)."""
    res = runner(FZ_SWEEP + extra)
    assert res.exit_code == 0, res.stdout
    payload = json.loads(res.stdout)
    assert "rhoOde" not in payload
    for check in ("relations", "automorphismIdentity", "weakSymmetry"):
        assert payload[check]["scale"] > 1e4
    auto, weak = payload["automorphismIdentity"], payload["weakSymmetry"]
    assert auto["maxResidual"] <= 1e-14 * auto["scale"]
    assert max(weak["maxPairDefect"], weak["maxTripleDefect"]) <= (
        1e-14 * weak["scale"])


@pytest.mark.parametrize("kappa", ["1", "1e6"])
def test_fz_check_weak_symmetry_fails_a_wrong_triple(runner, monkeypatch,
                                                     kappa):
    """The u of each W-triple off by a relative 1e-6."""
    real_solve = fock.solve_w_triple

    def mutated(*ns):
        u, d = real_solve(*ns)
        return u * (1 + 1e-6), d

    monkeypatch.setattr(fock, "solve_w_triple", mutated)
    res = runner(FZ_SWEEP + ["--kappa", kappa])
    assert res.exit_code == 5
    assert json.loads(res.stdout)["failures"] == ["weakSymmetry"]


@pytest.mark.parametrize("kappa", ["1", "700.3"])
def test_fz_check_automorphism_fails_a_doubled_zero_mode_shift(
        runner, monkeypatch, kappa):
    """The twisted current adds its zero-mode shift twice."""
    class Doubled(fock._Current):
        def __init__(self, q, kappa=0.0, shift=None):
            super().__init__(q, kappa, shift and (
                lambda n: shift(n) * (2 if n == 0 else 1)))

    monkeypatch.setattr(fock, "_Current", Doubled)
    res = runner(FZ_SWEEP + ["--kappa", kappa, "--eta-im", "0.5"])
    assert res.exit_code == 5
    assert json.loads(res.stdout)["failures"] == ["automorphismIdentity"]


def test_fz_check_central_charge_fails_a_wrong_c(runner):
    """The expected c = 2 + 12 kappa^2 off by a relative 1e-6."""
    real_c = fock.RealizationParams.central_charge
    fock._realization.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fock.RealizationParams, "central_charge", property(
                lambda p: real_c.fget(p) * (1 + 1e-6)))
            res = runner(FZ_SWEEP + ["--kappa", "1"])
    finally:
        # the realization cache holds blocks built with the wrong b
        fock._realization.cache_clear()
    assert res.exit_code == 5
    assert "centralCharge" in json.loads(res.stdout)["failures"]


def test_fz_check_cutoff_guard(runner):
    res = runner(["fz-check", "--cutoff", "5", "--max-mode", "3",
                  "--max-level", "3"])
    assert res.exit_code == 3


def test_vacuum_spectrum(runner):
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "4", "--cutoff", "7"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["minEigenvalue"] >= -1e-8
    assert payload["centralCharge"] == 14.0
    # the union of the level blocks' spectra, in ascending order
    eigs = payload["eigenvalues"]
    assert len(eigs) == payload["dimension"] == 1 + 2 + 5 + 10 + 20
    assert eigs == sorted(eigs) and payload["minEigenvalue"] == eigs[0]


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


def test_vacuum_spectrum_cutoff_guard(runner):
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "6", "--cutoff", "5"])
    assert res.exit_code == 3


def test_vacuum_spectrum_cutoff_at_the_level_suffices(runner):
    """The cyclic Gram reaches no level above its own, so a cutoff equal
    to the level gives the spectrum a larger one gives."""
    args = ["vacuum-spectrum", "--kappa", "1", "--level", "6", "--cutoff"]
    res = runner(args + ["6"])
    assert res.exit_code == 0, res.stderr
    assert res.stdout == runner(args + ["8"]).stdout


def test_vacuum_spectrum_has_no_psd_tol(runner):
    # the spectrum is PSD by construction, so there is no tolerance to set
    res = runner(["vacuum-spectrum", "--kappa", "1",
                  "--level", "2", "--cutoff", "6",
                  "--psd-tol", "1e-8"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"
    res = runner(["vacuum-spectrum", "--help"])
    assert res.exit_code == 0
    assert "--cutoff" in res.stdout and "--psd-tol" not in res.stdout


@pytest.mark.parametrize("args", [
    ["fz-check", "--q1", "nan"],
    ["fz-check", "--q2", "inf"],
    ["fz-check", "--kappa", "nan"],
    ["fz-check", "--kappa", "-inf"],
    ["fz-check", "--eta-im", "nan"],
    ["vacuum-spectrum", "--kappa", "nan", "--level", "1", "--cutoff", "4"],
    ["vacuum-spectrum", "--kappa", "inf", "--level", "1", "--cutoff", "4"],
])
def test_non_finite_fock_inputs_rejected(runner, args):
    res = runner(args)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"] == "BadArguments"


@pytest.mark.parametrize("option", ["--kappa", "--q1", "--eta-im"])
def test_non_numeric_fock_inputs_rejected(runner, option):
    res = runner(["fz-check", option, "abc"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "BadArguments",
        "message": f"argument {option}: 'abc' is not a number"}


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
    numpy.  Exact determinants of symmetric matrices of at most
    modular.SYMMETRIC_MAX_N rows (the Grams of levels 1-6) load neither
    numpy nor dataclasses; the level-7 Gram (110 rows) takes the
    multi-modular path, which loads numpy."""
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
    for level in ("5", "6"):
        for args in (kac_verify + [level],
                     ["gram", "--level", level, "--c", "225/7", "--h", "21/8",
                      "--w", "5/16"]):
            loaded = _modules_loaded_by(args, tmp_path)
            assert {"w3lab.verma", "w3lab.modular"} <= loaded, args
            assert _numpy_modules(loaded) | (loaded & {"dataclasses"}) \
                == set(), args
    assert "numpy" in _modules_loaded_by(
        kac_verify + ["7", "--level-cap", "7"], tmp_path)


def test_vacuum_line_commands_start_without_numpy(runner, tmp_path):
    """On the vacuum line h = 0 the level-1 Gram's last pivot is 0; it
    divides nothing, so the symmetric kernel keeps it and these commands
    load no numpy."""
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps([["50", "0", "1"], ["30", "0", "2"]]))
    gram = ["gram", "--level", "1", "--c", "50", "--h", "0", "--w", "1"]
    kac_verify = ["kac-verify", "--level", "1", "--samples", str(samples)]
    assert json.loads(runner(gram).stdout)["determinant"] == "-9"
    assert json.loads(runner(kac_verify).stdout)["constant"] == "9"
    for args in (gram, kac_verify):
        loaded = _modules_loaded_by(args, tmp_path)
        assert "w3lab.modular" in loaded, args
        assert _numpy_modules(loaded) == set(), args


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


def test_every_option_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = {name for sub in commands.choices.values()
               for a in sub._actions for name in a.option_strings
               if name.startswith("--")}
    assert {"--cutoff", "--h-min", "--w-min"} <= options
    # "--c" must not be found inside "--cutoff"
    assert sorted(name for name in options if not re.search(
        re.escape(name) + r"(?![\w-])", readme)) == []


def _readme_examples():
    """The w3lab command lines of README's "CLI examples" block, with
    continuations joined and a trailing ``> file`` redirect dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.split(">", 1)[0])[1:]
            for line in text.splitlines() if line.startswith("w3lab ")]


def test_readme_cli_examples_run(runner):
    examples = _readme_examples()
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in examples} == set(commands.choices)
    for argv in examples:
        res = runner(argv)
        assert res.exit_code == 0, (argv, res.stderr)


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
    assert json.loads(res.stdout)["minEigenvalue"] is None


def test_vacuum_spectrum_overflow_writes_nothing_to_stderr(tmp_path):
    res = subprocess.run([sys.executable, "-m", "w3lab.cli",
                          *OVERFLOWING_SPECTRUM], capture_output=True,
                         text=True, env=_child_env(tmp_path), timeout=120)
    assert res.returncode == 5
    assert res.stderr == ""
    assert strict_loads(res.stdout)["minEigenvalue"] is None


@pytest.mark.parametrize("args, failures", [
    (["--q1", "1e200", "--max-mode", "1", "--max-level", "1"],
     ["relations", "centralCharge", "weakSymmetry"]),
    (["--variant", "unitaryFamily", "--q2", "1e120"],
     ["relations", "centralCharge"])])
def test_fz_check_overflow_writes_nothing_to_stderr(tmp_path, args,
                                                    failures):
    # the failures come in the order of the verdict table
    res = subprocess.run([sys.executable, "-m", "w3lab.cli", "fz-check",
                          "--kappa", "1", *args], capture_output=True,
                         text=True, env=_child_env(tmp_path), timeout=120)
    assert res.returncode == 5
    assert res.stderr == ""
    assert strict_loads(res.stdout)["failures"] == failures


def test_default_cutoff_is_the_level_budget(runner):
    """Without --cutoff the Fock commands run up to the default budget,
    whatever the request: fz-check prints it, and a vacuum spectrum at a
    level below it is the one an explicit cutoff gives.  An explicit
    --cutoff above the default raises the budget."""
    res = runner(["fz-check", "--max-mode", "4"])
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)["params"]["cutoff"] == cli.FOCK_CUTOFF
    args = ["vacuum-spectrum", "--kappa", "1", "--level", "7"]
    res = runner(args)
    assert res.exit_code == 0, res.stderr
    assert res.stdout == runner(args + ["--cutoff", "7"]).stdout
    res = runner(["fz-check", "--max-mode", "1", "--max-level", "1",
                  "--cutoff", "13"])
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)["params"]["cutoff"] == 13


@pytest.mark.parametrize("args", [
    ["vacuum-spectrum", "--kappa", "1", "--level", "13"],
    ["fz-check", "--max-mode", "5", "--max-level", "3"]])
def test_default_budget_refuses_before_any_block(runner, monkeypatch, args):
    """A request that reaches above the default budget exits 3 before a
    realization, and so any block, is made."""
    def refuse(*_):
        raise AssertionError("a realization was made")
    monkeypatch.setattr(fock, "Realization", refuse)
    monkeypatch.setattr(fock, "_realization", refuse)
    res = runner(args)
    assert res.exit_code == 3
    assert json.loads(res.stderr)["error"] == "CutoffExceeded"


def test_fock_cutoff_is_the_library_default():
    assert cli.FOCK_CUTOFF == fock.RealizationParams.cutoff
    for argv in (["fz-check"], ["vacuum-spectrum", "--kappa", "1",
                                "--level", "0"]):
        assert cli.build_parser().parse_args(argv).cutoff == cli.FOCK_CUTOFF


def test_documented_exit_codes_are_the_ones_in_use():
    """The exit codes listed in the module docstring are exactly those the
    CLI uses, so a retired code cannot linger there."""
    listing = cli.__doc__.split("Exit codes:\n")[1].split("\n\n")[0]
    documented = {int(code) for code in re.findall(r"^  (\d) ", listing,
                                                   re.MULTILINE)}
    assert documented == {0, 1, 2, 3, 4, 5}
    assert {*cli.EXIT_CODES.values(), cli.EXIT_DEVIATION, cli.EXIT_RESIDUAL,
            cli.EXIT_BUDGET} <= documented


def _run_module(args, cache, **kwargs):
    return subprocess.run([sys.executable, "-m", "w3lab.cli", *args],
                          env=_child_env(cache), timeout=120, **kwargs)


DEGENERATE_SAMPLES = [["2", "2", "4/3"], ["10", "2", "0"]]


@pytest.mark.parametrize("args, code, error", [
    (["classify", "--c", "50", "--h", "1", "--w", "0"], 0, None),
    (["classify", "--c", "x", "--h", "1", "--w", "0"], 1, "BadArguments"),
    (["classify", "--c", "-22/5", "--h", "0", "--w", "0"], 2,
     "PoleAtForbiddenCentralCharge"),
    (["gram", "--level", "7", "--c", "3", "--h", "1", "--w", "0"], 3,
     "LevelTooLarge"),
    (["kac-verify", "--level", "1", "--samples", "SAMPLES"], 4,
     "DegenerateSample"),
    (["fz-check", "--kappa", "1", "--max-level", "0"], 5, None),
    (["vacuum-spectrum", "--kappa", "1", "--level", "6", "--cutoff", "5"], 3,
     "CutoffExceeded"),
])
def test_process_exit_codes_match_main(runner, tmp_path, args, code, error):
    """Each documented exit code as a process (``entry``: no cyclic GC, a
    hard exit after flushing) gives the code, stdout and stderr that
    ``main`` gives in-process."""
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(DEGENERATE_SAMPLES))
    args = [str(samples) if a == "SAMPLES" else a for a in args]
    res = _run_module(args, tmp_path / "cache", capture_output=True,
                      text=True)
    assert res.returncode == code, res.stderr
    want = runner(args)
    assert (res.returncode, res.stdout, res.stderr) == tuple(want)
    if error is None:
        assert res.stderr == ""
    else:
        assert json.loads(res.stderr)["error"] == error


@pytest.mark.parametrize("args", [
    ["classify", "--c", "50", "--h", "1", "--w", "0"],
    ["gram", "--level", "5", "--symbolic"],
])
def test_closed_stdout_ends_quietly(tmp_path, args):
    """A reader that closed stdout (``| head -c 50``) ends the command with
    exit 1 and an empty stderr, not a BrokenPipeError traceback.  The
    pipe's read end is closed before the command starts, so every write to
    it fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _run_module(args, tmp_path, stdout=write_end,
                          stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (1, b"")


def test_symbolic_gram_written_to_a_file_is_pinned(tmp_path):
    """The process ends with os._exit, so everything it printed must have
    been flushed first: the whole level-5 Gram reaches the file."""
    out = tmp_path / "gram.json"
    with open(out, "wb") as fh:
        res = _run_module(["gram", "--level", "5", "--symbolic"],
                          tmp_path / "cache", stdout=fh)
    assert res.returncode == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SYMBOLIC_GRAM_SHA256[5]


def test_benchmark_explore_warm_setup_finds_the_cached_gram(tmp_path,
                                                           monkeypatch):
    """The benchmark's own explore_warm set-up primes the cache through the
    CLI and looks for gram-5-*.json there, so a change to the cache file's
    name or place fails here before it fails a benchmark run."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import passes
    p = passes.setup("explore_warm", 1, tmp_path)
    try:
        [path] = p.cache.glob("gram-5-*.json")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SYMBOLIC_GRAM_SHA256[5]
    finally:
        passes.teardown(p)


def test_main_in_process_keeps_the_collector_on(runner):
    import gc
    assert gc.isenabled()
    assert runner(["classify", "--c", "50", "--h", "1", "--w", "0"]
                  ).exit_code == 0
    assert runner(["classify", "--c", "x", "--h", "1", "--w", "0"]
                  ).exit_code == 1
    assert gc.isenabled()


def test_console_script_is_the_module_entry():
    """``[project.scripts] w3lab`` names the function that ``python -m
    w3lab.cli`` calls, so both run a command the same way."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["w3lab"]
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    [call] = [node.value for node in guard.body]
    assert isinstance(call, ast.Call) and call.args == []
    assert target == f"w3lab.cli:{call.func.id}"
