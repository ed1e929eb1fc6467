"""Command-line surface: gram, kac-verify, classify, region, fz-check,
vacuum-spectrum.

All payloads are JSON or RFC-4180 CSV on stdout; structured errors go to
stderr as JSON.  Exit codes: 0 ok (verdict in payload), 2 pole at c = -22/5,
3 level too large, 4 Kac-comparison deviation, 5 residual/positivity failure,
6 cutoff exceeded; bad arguments, click's usage errors among them, exit 1
with error "BadArguments".

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

from . import fock, kac, verma
from .classify import classify as run_classify
from .classify import region_scan, region_scan_csv
from .exact import PoleAtForbiddenCentralCharge, parse_rational

EXIT_POLE = 2
EXIT_LEVEL = 3
EXIT_DEVIATION = 4
EXIT_RESIDUAL = 5
EXIT_CUTOFF = 6

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


def _require_finite(**values: float) -> None:
    """BadArguments unless every named float option is finite."""
    for name, v in values.items():
        if not math.isfinite(v):
            _fail(1, "BadArguments",
                  f"--{name.replace('_', '-')} must be finite, got {v}")


def _within(tol: float, *values: float) -> bool:
    """Every value is <= tol; a NaN never is."""
    return all(v <= tol for v in values)


def _cache_dir() -> Path | None:
    root = os.environ.get("W3LAB_CACHE_DIR")
    if root is None:
        root = os.path.join(os.path.expanduser("~"), ".cache", "w3lab")
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".probe"
        probe.write_text("")
        probe.unlink()
    except OSError:
        return None  # caching disabled
    return path


def _atomic_write(path: Path, text: str) -> None:
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
    there; otherwise built under ``level_cap`` and written atomically."""
    verma.check_level(level, level_cap)
    cache = _cache_dir()
    if cache is None:
        return verma.gram_matrix(level, level_cap)
    path = _cache_path(cache, level)
    g = _read_cached(path, level)
    if g is None:
        g = verma.gram_matrix(level, level_cap)
        payload = json.loads(g.to_json())
        payload["sha256"] = _entries_sha256(payload["entries"])
        _atomic_write(path, json.dumps(payload, indent=2))
    return g


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return parse_rational(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational (use p/q)", param, ctx)


RATIONAL = RationalParam()


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
    runs under ``_usage_as_bad_arguments``."""

    def make_context(self, *args, **kwargs):
        with _usage_as_bad_arguments():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_as_bad_arguments():
            return super().invoke(ctx)


@click.group(cls=_Group, no_args_is_help=False)
def main():
    """Exact W3-algebra computations and unitarity checks."""


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

@main.command("gram")
@click.option("--level", type=int, required=True)
@click.option("--c", "c_val", type=RATIONAL, default=None)
@click.option("--h", "h_val", type=RATIONAL, default=None)
@click.option("--w", "w_val", type=RATIONAL, default=None)
@click.option("--symbolic", is_flag=True, help="print symbolic entries")
@click.option("--level-cap", type=int, default=verma.DEFAULT_LEVEL_CAP)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="json")
def cmd_gram(level, c_val, h_val, w_val, symbolic, level_cap, fmt):
    """Level-N Gram matrix of the canonical invariant form.

    With --c/--h/--w the matrix and its determinant are computed exactly
    over Q at that point; otherwise the symbolic matrix is printed.
    """
    if level < 0:
        _fail(1, "BadArguments", "--level must be nonnegative")
    point = (c_val, h_val, w_val)
    if symbolic or c_val is None:
        try:
            g = _gram_cached(level, level_cap)
        except verma.LevelTooLarge as e:
            _fail(EXIT_LEVEL, "LevelTooLarge", str(e))
        if fmt == "json":
            click.echo(g.to_json())
        else:
            for word, row in zip(g.basis, g.entries):
                click.echo(f"{word.label():16s} "
                           + "  ".join(str(e) for e in row))
        return
    if any(v is None for v in point):
        _fail(1, "BadArguments", "--c/--h/--w must be given together")
    try:
        # the level cap is reported before a pole, as on the symbolic path
        verma.check_level(level, level_cap)
        g = verma.gram_matrix(level, level_cap, verma.point_ring(*point))
    except verma.LevelTooLarge as e:
        _fail(EXIT_LEVEL, "LevelTooLarge", str(e))
    except PoleAtForbiddenCentralCharge as e:
        _fail(EXIT_POLE, "PoleAtForbiddenCentralCharge", str(e))
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
        if kac.f11(h, c) - w * w > 0:
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
@click.option("--level", type=int, required=True)
@click.option("--samples", type=click.Path(exists=True), default=None,
              help="JSON file: list of [c, h, w] rationals as strings")
@click.option("--random", "n_random", type=int, default=0)
@click.option("--seed", type=int, default=0)
@click.option("--level-cap", type=int, default=verma.DEFAULT_LEVEL_CAP)
def cmd_kac_verify(level, samples, n_random, seed, level_cap):
    """Compare det(Gram_N) with the closed-form product at sample points.

    At each point the Gram matrix is built over Q from the lower-level
    Grams, and its determinant is taken exactly: modulo primes below 2^24,
    rebuilt by the Chinese remainder theorem past Hadamard's bound.  The
    verdict is ok iff the ratio det / product is the same positive rational
    at every point.
    """
    if level < 0:
        _fail(1, "BadArguments", "--level must be nonnegative")
    if samples:
        pts = _read_samples(Path(samples))
    elif n_random:
        pts = _random_region_points(n_random, seed)
    else:
        _fail(1, "BadArguments", "give --samples FILE or --random K")
    if len(pts) < 2:
        _fail(1, "BadArguments", "need at least 2 sample points")
    try:
        rep = kac.compare_with_gram(level, pts, level_cap=level_cap)
    except verma.LevelTooLarge as e:
        _fail(EXIT_LEVEL, "LevelTooLarge", str(e))
    except kac.DegenerateSample as e:
        _fail(EXIT_DEVIATION, "DegenerateSample", str(e))
    except PoleAtForbiddenCentralCharge as e:
        _fail(EXIT_POLE, "PoleAtForbiddenCentralCharge", str(e))
    click.echo(rep.to_json())
    if rep.verdict != "ok":
        sys.exit(EXIT_DEVIATION)


# ---------------------------------------------------------------------------
# classify / region
# ---------------------------------------------------------------------------

def _parse_real(text: str) -> Fraction:
    """Rational 'p/q' preferred; decimal/float inputs accepted with a warning."""
    floaty = "." in text or "e" in text.lower()
    try:
        val = parse_rational(text)
    except ValueError:
        floaty = True
        try:
            val = Fraction(float(text))
        except (ValueError, OverflowError):
            _fail(1, "BadArguments", f"{text!r} is not a finite real number")
    except ZeroDivisionError:
        _fail(1, "BadArguments", f"{text!r} divides by zero")
    if floaty:
        click.echo("warning: decimal input converted to the exact rational "
                   f"{val}; boundary verdicts reflect that value", err=True)
    return val


@main.command("classify")
@click.option("--c", "c_val", required=True)
@click.option("--h", "h_val", required=True)
@click.option("--w", "w_val", required=True)
def cmd_classify(c_val, h_val, w_val):
    """Unitarity verdict for one (c, h, w)."""
    try:
        v = run_classify(_parse_real(c_val), _parse_real(h_val),
                         _parse_real(w_val))
    except PoleAtForbiddenCentralCharge as e:
        _fail(EXIT_POLE, "PoleAtForbiddenCentralCharge", str(e))
    click.echo(json.dumps(v.to_dict(), indent=2))


@main.command("region")
@click.option("--c", "c_val", required=True)
@click.option("--h-min", default="0")
@click.option("--h-max", required=True)
@click.option("--w-min", default=None)
@click.option("--w-max", required=True)
@click.option("--res", type=int, required=True)
def cmd_region(c_val, h_min, h_max, w_min, w_max, res):
    """CSV grid of verdicts over [h_min,h_max] x [w_min,w_max]."""
    wmax = _parse_real(w_max)
    wmin = _parse_real(w_min) if w_min is not None else -wmax
    try:
        rows = region_scan(
            _parse_real(c_val), (_parse_real(h_min), _parse_real(h_max)),
            (wmin, wmax), res)
    except PoleAtForbiddenCentralCharge as e:
        _fail(EXIT_POLE, "PoleAtForbiddenCentralCharge", str(e))
    except ValueError as e:
        _fail(1, "BadArguments", str(e))
    click.echo(region_scan_csv(rows), nl=False)


# ---------------------------------------------------------------------------
# fz-check
# ---------------------------------------------------------------------------

@main.command("fz-check")
@click.option("--variant", type=click.Choice(list(fock.VARIANTS)),
              default="vacuumModified")
@click.option("--kappa", type=float, default=1.0)
@click.option("--q1", type=float, default=0.0)
@click.option("--q2", type=float, default=0.0)
@click.option("--cutoff", type=int, default=9)
@click.option("--max-mode", type=int, default=3)
@click.option("--max-level", type=int, default=2)
@click.option("--eta-im", type=float, default=0.0,
              help="imaginary part of eta for the automorphism check")
def cmd_fz_check(variant, kappa, q1, q2, cutoff, max_mode, max_level, eta_im):
    """Aggregate residual report for the chosen realization."""
    _require_finite(kappa=kappa, q1=q1, q2=q2, eta_im=eta_im)
    if max_mode < 0 or max_level < 0:
        _fail(1, "BadArguments",
              "--max-mode and --max-level must be nonnegative")
    if max_level + 2 * max_mode > cutoff:
        _fail(EXIT_CUTOFF, "CutoffExceeded",
              "need max_level + 2*max_mode <= cutoff")
    params = fock.RealizationParams(kappa=kappa, q1=q1, q2=q2, cutoff=cutoff)
    try:
        relations = fock.check_w3_relations(variant, params, max_mode,
                                            max_level)
        auto = fock.check_automorphism_identity(kappa, complex(0, eta_im),
                                                max_mode, max_level, cutoff)
        ode = fock.verify_rho_ode(20)
        report = {
            "variant": variant,
            "params": {"kappa": kappa, "q1": q1, "q2": q2, "cutoff": cutoff},
            "relations": {
                "maxResidual": relations["maxResidual"],
                "worstCase": relations["worstCase"],
                "centralCharge": relations["centralCharge"],
            },
            "automorphismIdentity": {"maxResidual": auto["maxResidual"]},
            "rhoOde": {"maxResidual": max(abs(float(v))
                                          for v in ode.values())},
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
            report["weakSymmetry"] = {
                "maxPairDefect": weak["maxPairDefect"],
                "maxTripleDefect": weak["maxTripleDefect"],
                "unpairedControlDefect": weak["unpairedControlDefect"],
            }
            if not _within(WEAK_SYMMETRY_TOL, weak["maxPairDefect"],
                           weak["maxTripleDefect"]):
                failures.append("weakSymmetry")
            if q1 == 0 and q2 == 0:
                zv = fock.zero_vector_norms(params)
                report["zeroVectors"] = zv
                if not _within(ZERO_VECTOR_TOL, *zv.values()):
                    failures.append("zeroVectors")
        report["failures"] = failures
    except fock.CutoffExceeded as e:
        _fail(EXIT_CUTOFF, "CutoffExceeded", str(e))
    click.echo(json.dumps(report, indent=2))
    if failures:
        sys.exit(EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# vacuum-spectrum
# ---------------------------------------------------------------------------

@main.command("vacuum-spectrum")
@click.option("--kappa", type=float, required=True)
@click.option("--level", type=int, required=True)
@click.option("--cutoff", type=int, default=8)
@click.option("--psd-tol", type=float, default=PSD_TOL,
              help="exit 5 when the smallest eigenvalue is below "
                   "-PSD_TOL * max(1, largest eigenvalue); default 1e-8")
def cmd_vacuum_spectrum(kappa, level, cutoff, psd_tol):
    """Eigenvalues of the vacuum cyclic-subspace Gram (vacuumModified).

    The spectrum counts as positive semidefinite down to a tolerance
    relative to its largest eigenvalue, because float roundoff in the
    eigensolver scales with it.
    """
    _require_finite(kappa=kappa)
    if not 0 < psd_tol < math.inf:
        _fail(1, "BadArguments",
              f"--psd-tol must be positive and finite, got {psd_tol}")
    if level > cutoff - 2:
        _fail(EXIT_CUTOFF, "CutoffExceeded", "need level <= cutoff - 2")
    params = fock.RealizationParams(kappa=kappa, cutoff=cutoff)
    try:
        cg = fock.cyclic_gram("vacuumModified", params, level)
    except fock.CutoffExceeded as e:
        _fail(EXIT_CUTOFF, "CutoffExceeded", str(e))
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
