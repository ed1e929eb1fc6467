"""Command-line surface: gram, kac-verify, classify, region, fz-check,
vacuum-spectrum.

All payloads are JSON or RFC-4180 CSV on stdout; structured errors go to
stderr as JSON.  Exit codes: 0 ok (verdict in payload), 2 pole at c = -22/5,
3 level too large, 4 Kac-comparison deviation, 5 residual/positivity failure,
6 cutoff exceeded; bad arguments, click's usage errors among them, exit 1
with error "BadArguments".

Options are checked by their click types (nonnegative levels, finite
floats, exact rationals), and one table, ``EXIT_CODES``, maps library errors
to exit codes; the JSON error kind is the exception's class name.

Only the symbolic output of ``gram`` (``--symbolic``, or no point given)
reads and writes the Gram cache under $W3LAB_CACHE_DIR, one file per level,
which stores the sha256 of its entries.  A cache file that does not parse,
fails that hash or does not hold that level's Gram is rebuilt and
overwritten.  ``kac-verify`` and ``gram --c/--h/--w`` build the
Gram matrix directly over Q at each point and never touch the cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click

from . import kac, verma
from .classify import classify as run_classify
from .classify import region_scan, region_scan_csv
from .exact import parse_rational

EXIT_DEVIATION = 4
EXIT_RESIDUAL = 5

# library exceptions by class name, so that the table needs no import of
# fock (and numpy); the class name is also the JSON error kind
EXIT_CODES = {"PoleAtForbiddenCentralCharge": 2, "LevelTooLarge": 3,
              "DegenerateSample": EXIT_DEVIATION, "CutoffExceeded": 6}

# bump when the serialized Gram layout changes; part of the cache key
FORMAT_VERSION = "gram-json-2"

# fz-check pass bounds and the vacuum-spectrum default
RELATION_TOL = 1e-9
AUTOMORPHISM_TOL = 1e-10
WEAK_SYMMETRY_TOL = 1e-9
ZERO_VECTOR_TOL = 1e-12
PSD_TOL = 1e-8


def _fail(code: int, kind: str, message: str):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _within(tol: float, *values: float) -> bool:
    """Every value is <= tol; a NaN never is."""
    return all(v <= tol for v in values)


def _cache_dir() -> Path:
    default = os.path.join(os.path.expanduser("~"), ".cache", "w3lab")
    return Path(os.environ.get("W3LAB_CACHE_DIR", default))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_path(cache: Path, level: int) -> Path:
    key = hashlib.sha256(f"{FORMAT_VERSION}:{level}".encode()).hexdigest()[:16]
    return cache / f"gram-{level}-{key}.json"


def _entries_sha256(entries: list) -> str:
    """sha256 of a Gram's entry strings, written as compact JSON."""
    text = json.dumps(entries, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _read_cached(path: Path, level: int) -> verma.GramMatrix | None:
    """The Gram stored at ``path``, or None when the file is missing, does
    not parse, fails its entries' sha256, or does not hold the
    level-``level`` Gram over its basis."""
    try:
        text = path.read_text()
        payload = json.loads(text)
        if payload["sha256"] != _entries_sha256(payload["entries"]):
            return None
        g = verma.GramMatrix.from_json(text)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            IndexError):
        return None
    d = len(g.basis)
    if (g.level != level or g.basis != verma.enumerate_basis(level)
            or len(g.entries) != d or any(len(row) != d for row in g.entries)):
        return None
    return g


def _gram_cached(level: int, level_cap: int) -> verma.GramMatrix:
    """The symbolic Gram at ``level``, from the cache when a valid file is
    there; otherwise built under ``level_cap`` and written atomically.  A
    cache directory that cannot be made or written disables caching."""
    verma.check_level(level, level_cap)
    path = _cache_path(_cache_dir(), level)
    g = _read_cached(path, level)
    if g is None:
        g = verma.gram_matrix(level, level_cap)
        payload = json.loads(g.to_json())
        payload["sha256"] = _entries_sha256(payload["entries"])
        try:
            _atomic_write(path, json.dumps(payload, indent=2))
        except OSError:
            pass  # caching disabled
    return g


class RationalParam(click.ParamType):
    """An exact rational 'p/q'; a decimal is taken at its exact value,
    with a warning on stderr."""

    name = "rational"

    def convert(self, value, param, ctx):
        text = str(value)
        try:
            val = parse_rational(text)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational (use p/q)", param, ctx)
        if "." in text or "e" in text.lower():
            click.echo("warning: decimal input converted to the exact "
                       f"rational {val}; boundary verdicts reflect that value",
                       err=True)
        return val


class FiniteFloat(click.FloatRange):
    """A finite float, above ``min`` when one is given; click's own float
    types let nan and inf through."""

    name = "float"

    def convert(self, value, param, ctx):
        val = super().convert(value, param, ctx)
        if not math.isfinite(val):
            self.fail(f"{val} is not finite", param, ctx)
        return val

    def _describe_range(self) -> str:  # the range --help shows, if any
        return "" if self.min is None else super()._describe_range()


RATIONAL = RationalParam()
FINITE = FiniteFloat()
NONNEGATIVE = click.IntRange(min=0)


@contextmanager
def _usage_as_bad_arguments():
    """Turn click's usage errors (missing, unknown or malformed options and
    commands) into the JSON BadArguments error with exit 1; click's own
    exit code for them, 2, is the pole's."""
    try:
        yield
    except click.UsageError as e:
        _fail(1, "BadArguments", e.format_message())


class _Group(click.Group):
    """The command group; parsing, at its level and at a subcommand's,
    runs under ``_usage_as_bad_arguments``, and a library exception named in
    ``EXIT_CODES`` ends the command with that code and a JSON error."""

    def make_context(self, *args, **kwargs):
        with _usage_as_bad_arguments():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        try:
            with _usage_as_bad_arguments():
                return super().invoke(ctx)
        except Exception as e:
            if type(e).__name__ not in EXIT_CODES:
                raise
            _fail(EXIT_CODES[type(e).__name__], type(e).__name__, str(e))


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Exact W3-algebra computations and unitarity checks."""


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

@main.command("gram")
@click.option("--level", type=NONNEGATIVE, required=True)
@click.option("--c", "c_val", type=RATIONAL, default=None)
@click.option("--h", "h_val", type=RATIONAL, default=None)
@click.option("--w", "w_val", type=RATIONAL, default=None)
@click.option("--symbolic", is_flag=True, help="print symbolic entries")
@click.option("--level-cap", type=NONNEGATIVE,
              default=verma.DEFAULT_LEVEL_CAP)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="json")
def cmd_gram(level, c_val, h_val, w_val, symbolic, level_cap, fmt):
    """Level-N Gram matrix of the canonical invariant form.

    With --c/--h/--w the matrix and its determinant are computed exactly
    over Q at that point; with none of them the symbolic matrix is printed.
    Some but not all of the three is BadArguments.
    """
    point = (c_val, h_val, w_val)
    given = sum(v is not None for v in point)
    if given not in (0, 3):
        _fail(1, "BadArguments", "--c/--h/--w must be given together")
    if symbolic or not given:
        g = _gram_cached(level, level_cap)
        if fmt == "json":
            click.echo(g.to_json())
        else:
            for word, row in zip(g.basis, g.entries):
                click.echo(f"{word.label():16s} "
                           + "  ".join(str(e) for e in row))
        return
    # the level cap is reported before a pole, as on the symbolic path
    verma.check_level(level, level_cap)
    g = verma.gram_matrix(level, level_cap, verma.point_ring(*point))
    payload = {
        "level": level,
        "point": {"c": str(c_val), "h": str(h_val), "w": str(w_val)},
        "basis": [wd.label() for wd in g.basis],
        "entries": [[str(x) for x in row] for row in g.entries],
        "determinant": str(verma.rational_determinant(g.entries)),
        "determinantMethod": "evaluated",
    }
    click.echo(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# kac-verify
# ---------------------------------------------------------------------------

def _random_region_points(k: int, seed: int):
    """Deterministic rational sample points with 2 < c < 98, f11 - w^2 > 0."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < k:
        c = Fraction(rng.randint(3, 97)) + Fraction(rng.randint(0, 99), 100)
        h = Fraction(rng.randint(1, 80), rng.randint(1, 8))
        cap = kac.f11(h, c)
        if cap <= 0:
            continue
        wmax = float(cap) ** 0.5
        w = Fraction(int(rng.uniform(-0.9, 0.9) * wmax * 1000), 1000)
        if cap - w * w > 0:
            pts.append((c, h, w))
    return pts


def _read_samples(path: Path) -> list:
    """[c, h, w] rows of rationals from a JSON file."""
    try:
        rows = json.loads(path.read_text())
        pts = [tuple(parse_rational(str(x)) for x in row) for row in rows]
    except (ValueError, TypeError, ZeroDivisionError) as e:
        _fail(1, "BadArguments", f"unreadable samples file: {e}")
    if any(len(p) != 3 for p in pts):
        _fail(1, "BadArguments", "each sample must be [c, h, w]")
    return pts


@main.command("kac-verify")
@click.option("--level", type=NONNEGATIVE, required=True)
@click.option("--samples", type=click.Path(exists=True), default=None,
              help="JSON file: list of [c, h, w] rationals as strings")
@click.option("--random", "n_random", type=int, default=0)
@click.option("--seed", type=int, default=0)
@click.option("--level-cap", type=NONNEGATIVE,
              default=verma.DEFAULT_LEVEL_CAP)
def cmd_kac_verify(level, samples, n_random, seed, level_cap):
    """Compare det(Gram_N) with the closed-form product at sample points.

    At each point the Gram matrix is built over Q from the lower-level
    Grams, and its determinant is taken exactly: modulo primes below 2^24,
    rebuilt by the Chinese remainder theorem past Hadamard's bound.  The
    verdict is ok iff the ratio det / product is the same positive rational
    at every point.
    """
    if samples:
        pts = _read_samples(Path(samples))
    elif n_random:
        pts = _random_region_points(n_random, seed)
    else:
        _fail(1, "BadArguments", "give --samples FILE or --random K")
    if len(pts) < 2:
        _fail(1, "BadArguments", "need at least 2 sample points")
    rep = kac.compare_with_gram(level, pts, level_cap=level_cap)
    click.echo(rep.to_json())
    if rep.verdict != "ok":
        sys.exit(EXIT_DEVIATION)


# ---------------------------------------------------------------------------
# classify / region
# ---------------------------------------------------------------------------

@main.command("classify")
@click.option("--c", "c_val", type=RATIONAL, required=True)
@click.option("--h", "h_val", type=RATIONAL, required=True)
@click.option("--w", "w_val", type=RATIONAL, required=True)
def cmd_classify(c_val, h_val, w_val):
    """Unitarity verdict for one (c, h, w)."""
    v = run_classify(c_val, h_val, w_val)
    click.echo(json.dumps(v.to_dict(), indent=2))


@main.command("region")
@click.option("--c", "c_val", type=RATIONAL, required=True)
@click.option("--h-min", type=RATIONAL, default="0")
@click.option("--h-max", type=RATIONAL, required=True)
@click.option("--w-min", type=RATIONAL, default=None)
@click.option("--w-max", type=RATIONAL, required=True)
@click.option("--res", type=click.IntRange(min=2), required=True)
def cmd_region(c_val, h_min, h_max, w_min, w_max, res):
    """CSV grid of verdicts over [h_min,h_max] x [w_min,w_max]."""
    w_min = -w_max if w_min is None else w_min
    rows = region_scan(c_val, (h_min, h_max), (w_min, w_max), res)
    click.echo(region_scan_csv(rows), nl=False)


# ---------------------------------------------------------------------------
# fz-check
# ---------------------------------------------------------------------------

# the choices are fock.VARIANTS, written out so that building the command
# group does not import fock and numpy; a test keeps the two equal
@main.command("fz-check")
@click.option("--variant", default="vacuumModified", type=click.Choice(
    ("raw", "vacuumModified", "unitaryFamily")))
@click.option("--kappa", type=FINITE, default=1.0)
@click.option("--q1", type=FINITE, default=0.0)
@click.option("--q2", type=FINITE, default=0.0)
@click.option("--cutoff", type=int, default=9)
@click.option("--max-mode", type=NONNEGATIVE, default=3)
@click.option("--max-level", type=NONNEGATIVE, default=2)
@click.option("--eta-im", type=FINITE, default=0.0,
              help="imaginary part of eta for the automorphism check")
def cmd_fz_check(variant, kappa, q1, q2, cutoff, max_mode, max_level, eta_im):
    """Aggregate residual report for the chosen realization."""
    from . import fock
    params = fock.RealizationParams(kappa=kappa, q1=q1, q2=q2, cutoff=cutoff)
    relations = fock.check_w3_relations(variant, params, max_mode, max_level)
    auto = fock.check_automorphism_identity(kappa, complex(0, eta_im),
                                            max_mode, max_level, cutoff)
    ode = fock.verify_rho_ode(20)
    report = {
        "variant": variant,
        "params": {"kappa": kappa, "q1": q1, "q2": q2, "cutoff": cutoff},
        "relations": {k: relations[k] for k in
                      ("maxResidual", "worstCase", "centralCharge")},
        "automorphismIdentity": {"maxResidual": auto["maxResidual"]},
        "rhoOde": {"maxResidual": max(abs(float(v)) for v in ode.values())},
    }
    failures = []
    if not _within(RELATION_TOL, relations["maxResidual"]):
        failures.append("relations")
    if not _within(RELATION_TOL, relations["centralCharge"]["error"]):
        failures.append("centralCharge")
    if not _within(AUTOMORPHISM_TOL, auto["maxResidual"]):
        failures.append("automorphismIdentity")
    if any(v != 0 for v in ode.values()):
        failures.append("rhoOde")
    if variant == "vacuumModified":
        weak = fock.check_weak_symmetry(params, max_mode, max_level)
        report["weakSymmetry"] = {k: weak[k] for k in (
            "maxPairDefect", "maxTripleDefect", "unpairedControlDefect")}
        if not _within(WEAK_SYMMETRY_TOL, weak["maxPairDefect"],
                       weak["maxTripleDefect"]):
            failures.append("weakSymmetry")
        if q1 == 0 and q2 == 0:
            zv = fock.zero_vector_norms(params)
            report["zeroVectors"] = zv
            if not _within(ZERO_VECTOR_TOL, *zv.values()):
                failures.append("zeroVectors")
    report["failures"] = failures
    click.echo(json.dumps(report, indent=2))
    if failures:
        sys.exit(EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# vacuum-spectrum
# ---------------------------------------------------------------------------

@main.command("vacuum-spectrum")
@click.option("--kappa", type=FINITE, required=True)
@click.option("--level", type=NONNEGATIVE, required=True)
@click.option("--cutoff", type=int, default=8)
@click.option("--psd-tol", type=FiniteFloat(min=0, min_open=True),
              default=PSD_TOL,
              help="exit 5 when the smallest eigenvalue is below "
                   "-PSD_TOL * max(1, largest eigenvalue); default 1e-8")
def cmd_vacuum_spectrum(kappa, level, cutoff, psd_tol):
    """Eigenvalues of the vacuum cyclic-subspace Gram (vacuumModified).

    The spectrum counts as positive semidefinite down to a tolerance
    relative to its largest eigenvalue, because float roundoff in the
    eigensolver scales with it.
    """
    from . import fock
    params = fock.RealizationParams(kappa=kappa, cutoff=cutoff)
    cg = fock.cyclic_gram("vacuumModified", params, level)
    eigs = sorted(float(x) for x in cg.eigenvalues)
    payload = {
        "kappa": kappa,
        "centralCharge": params.central_charge,
        "level": level,
        "dimension": len(cg.words),
        "eigenvalues": eigs,
        "minEigenvalue": eigs[0],
    }
    click.echo(json.dumps(payload, indent=2))
    # numpy's min/max propagate a NaN eigenvalue, which then fails
    lo, hi = float(cg.eigenvalues.min()), float(cg.eigenvalues.max())
    if not _within(psd_tol * max(1.0, hi), -lo):
        sys.exit(EXIT_RESIDUAL)


if __name__ == "__main__":
    main()
