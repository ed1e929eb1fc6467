"""Command-line surface: gram, kac-verify, classify, region, fz-check,
vacuum-spectrum.

All payloads are JSON or RFC-4180 CSV on stdout; structured errors go to
stderr as JSON.  Exit codes: 0 ok (verdict in payload), 2 pole at c = -22/5,
3 level too large, 4 Kac-comparison deviation, 5 residual/positivity failure,
6 cutoff exceeded; bad arguments, argparse's usage errors among them, exit 1
with error "BadArguments".

Options are parsed by argparse with the standard library alone.  Type
callables check every value (exact rationals, finite floats, a kappa and an
eta whose squares are finite, nonnegative levels, a resolution of at least
2, an existing samples file), option names must be spelled out in full,
and a value that starts with '-' (-5/16, -1e-3) is a value.  One table,
``EXIT_CODES``, maps library errors to exit codes; the JSON error kind is
the exception's class name.  Each command imports what it uses, so
``classify`` and ``region`` load none of the Verma, Kac or Fock machinery
and no third-party package.

Only the symbolic output of ``gram`` (``--symbolic``, or no point given)
reads and writes the Gram cache under $W3LAB_CACHE_DIR, one file per level,
which stores the sha256 of its entries.  A cache file that does not parse,
fails that hash, holds an exponent above twice its level or does not hold
that level's Gram is rebuilt and overwritten.  ``kac-verify`` and
``gram --c/--h/--w`` build the Gram matrix directly over Q at each point
and never touch the cache.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .classify import classify as run_classify
from .classify import f11, region_scan, region_scan_csv

EXIT_DEVIATION = 4
EXIT_RESIDUAL = 5

# library exceptions by class name, so that the table needs no import of
# the modules that raise them; the class name is also the JSON error kind
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


def _cache_dir():
    from pathlib import Path
    default = os.path.join(os.path.expanduser("~"), ".cache", "w3lab")
    return Path(os.environ.get("W3LAB_CACHE_DIR", default))


def _atomic_write(path, text: str) -> None:
    import tempfile
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


def _cache_path(cache, level: int):
    import hashlib
    key = hashlib.sha256(f"{FORMAT_VERSION}:{level}".encode()).hexdigest()[:16]
    return cache / f"gram-{level}-{key}.json"


def _entries_sha256(entries: list) -> str:
    """sha256 of a Gram's entry strings, written as compact JSON."""
    import hashlib
    text = json.dumps(entries, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# a term that names a variable twice: str(ExactScalar) never writes one,
# and parse_scalar adds up the exponents; ';' joins the entries.  A string,
# so that only a cache read compiles it
_REPEATED_VARIABLE = r"c[^-+;c]*c|h[^-+;h]*h|w[^-+;w]*w"


def _degrees_within(entries: list, cap: int) -> bool:
    """Whether no exponent in the entry strings is above ``cap`` and no
    term names a variable twice.  Parsing a scalar takes time quadratic in
    its degree in c; the level-N Gram stays within c^N, h^2N, w^N and
    (22+5c)^N."""
    text = ";".join(s for row in entries for s in row)
    return (not re.search(_REPEATED_VARIABLE, text)
            and max(map(int, re.findall(r"\^(\d+)", text)), default=0) <= cap)


def _read_cached(path, level: int):
    """The Gram stored at ``path``, or None when the file is missing, does
    not parse, fails its entries' sha256, has a degree above 2 * ``level``
    (checked before its entries are parsed), or does not hold the
    level-``level`` Gram over its basis."""
    from . import verma
    try:
        text = path.read_text()
        payload = json.loads(text)
        if (payload["sha256"] != _entries_sha256(payload["entries"])
                or not _degrees_within(payload["entries"], 2 * level)):
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


def _gram_cached(level: int, level_cap: int) -> dict:
    """The ``GramMatrix.payload`` of the symbolic Gram at ``level``, from
    the cache when a valid file is there; otherwise built under
    ``level_cap`` and written atomically, as that payload plus the sha256 of
    its entries.  A cache directory that cannot be made or written disables
    caching."""
    from . import verma
    verma.check_level(level, level_cap)
    path = _cache_path(_cache_dir(), level)
    g = _read_cached(path, level)
    if g is not None:
        return g.payload()
    payload = verma.gram_matrix(level, level_cap).payload()
    stored = dict(payload, sha256=_entries_sha256(payload["entries"]))
    try:
        _atomic_write(path, json.dumps(stored, indent=2))
    except OSError:
        pass  # caching disabled
    return payload


# ---------------------------------------------------------------------------
# option types: each turns one command-line string into a checked value
# ---------------------------------------------------------------------------

def _rational(text: str) -> Fraction:
    """An exact rational 'p/q'; a decimal is taken at its exact value,
    with a warning on stderr."""
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational (use p/q)") from None
    if "." in text or "e" in text.lower():
        print("warning: decimal input converted to the exact rational "
              f"{val}; boundary verdicts reflect that value", file=sys.stderr)
    return val


def _finite(text: str) -> float:
    """A finite float; float() alone lets nan and inf through."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{val} is not finite")
    return val


def _finite_square(scale: float):
    """The type of a finite float x with scale * x^2 finite too: the Fock
    side squares kappa (c = 2 + 12 kappa^2) and eta."""
    def parse(text: str) -> float:
        val = _finite(text)
        if not math.isfinite(scale * val * val):
            raise argparse.ArgumentTypeError(f"{val} is too large to square")
        return val
    return parse


KAPPA = _finite_square(12.0)


def _positive(text: str) -> float:
    """A finite float above 0."""
    val = _finite(text)
    if val <= 0:
        raise argparse.ArgumentTypeError(f"{val} is not above 0")
    return val


def _at_least(low: int):
    """The type of an integer option that must be at least ``low``."""
    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if val < low:
            raise argparse.ArgumentTypeError(f"{val} is below {low}")
        return val
    return parse


NONNEGATIVE = _at_least(0)


def _existing_file(text: str) -> str:
    """The path of a file that exists."""
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a file")
    return text


# Every token that starts with '-', is no option of the parser and
# looks like the start of a number (-5/16, -.5, -1e-3, -inf, -nan) is a
# value; argparse's own pattern admits only -1 and -0.5, so that
# ``--w -5/16`` would fail with "expected one argument".
_NEGATIVE_VALUE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's error contract: a usage error is the JSON
    BadArguments error with exit 1 (argparse's own code for it, 2, is the
    pole's), and options are never abbreviated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        _fail(1, "BadArguments", message)


def _level_cap(args) -> int:
    """--level-cap, or verma's default; the parser leaves it None so that
    building the parser does not import verma."""
    from . import verma
    cap = args.level_cap
    return verma.DEFAULT_LEVEL_CAP if cap is None else cap


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

def cmd_gram(args):
    """Level-N Gram matrix of the canonical invariant form.

    With --c/--h/--w the matrix is built exactly at that point, over
    Z[1/D] with D the lcm of the point's denominators, those of
    16/(22+5c) and 720, and printed as reduced rationals; its determinant
    is taken exactly, by fraction-free Bareiss elimination up to 40 rows
    (levels 1-5) and multi-modularly above, the only path that loads
    numpy.  With none of them the symbolic matrix is printed.  Some but not
    all of the three is BadArguments.
    """
    from . import verma
    level, level_cap = args.level, _level_cap(args)
    point = (args.c, args.h, args.w)
    given = sum(v is not None for v in point)
    if given not in (0, 3):
        _fail(1, "BadArguments", "--c/--h/--w must be given together")
    if args.symbolic or not given:
        payload = _gram_cached(level, level_cap)
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for label, row in zip(payload["basis"], payload["entries"]):
                print(f"{label:16s} " + "  ".join(row))
        return
    # the level cap is reported before a pole, as on the symbolic path
    verma.check_level(level, level_cap)
    g = verma.gram_matrix(level, level_cap, verma.point_ring(*point))
    payload = {
        "level": level,
        "point": {"c": str(args.c), "h": str(args.h), "w": str(args.w)},
        "basis": [wd.label() for wd in g.basis],
        "entries": [[str(x) for x in row] for row in g.entries],
        "determinant": str(verma.rational_determinant(g.entries)),
        "determinantMethod": "evaluated",
    }
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# kac-verify
# ---------------------------------------------------------------------------

def _random_region_points(k: int, seed: int):
    """Deterministic rational sample points with 2 < c < 98, f11 - w^2 > 0."""
    import random
    rng = random.Random(seed)
    pts = []
    while len(pts) < k:
        c = Fraction(rng.randint(3, 97)) + Fraction(rng.randint(0, 99), 100)
        h = Fraction(rng.randint(1, 80), rng.randint(1, 8))
        cap = f11(h, c)
        if cap <= 0:
            continue
        wmax = float(cap) ** 0.5
        w = Fraction(int(rng.uniform(-0.9, 0.9) * wmax * 1000), 1000)
        if cap - w * w > 0:
            pts.append((c, h, w))
    return pts


def _read_samples(path: str) -> list:
    """[c, h, w] rows of rationals from a JSON file."""
    try:
        with open(path) as fh:
            rows = json.load(fh)
        pts = [tuple(Fraction(str(x)) for x in row) for row in rows]
    except (OSError, ValueError, TypeError, ZeroDivisionError) as e:
        _fail(1, "BadArguments", f"unreadable samples file: {e}")
    if any(len(p) != 3 for p in pts):
        _fail(1, "BadArguments", "each sample must be [c, h, w]")
    return pts


def cmd_kac_verify(args):
    """Compare det(Gram_N) with the closed-form product at sample points.

    At each point the Gram matrix is built from the lower-level Grams over
    Z[1/D], D the lcm of the point's denominators, those of 16/(22+5c) and
    720, and its determinant is taken exactly: by fraction-free Bareiss
    elimination up to 40 rows (levels 1-5, no numpy), above that modulo
    primes below 2^24, rebuilt by the Chinese remainder theorem past
    Hadamard's bound.  The verdict is ok iff the ratio det / product is the
    same positive rational at every point.
    """
    from . import kac
    if args.samples:
        pts = _read_samples(args.samples)
    elif args.random:
        pts = _random_region_points(args.random, args.seed)
    else:
        _fail(1, "BadArguments", "give --samples FILE or --random K")
    if len(pts) < 2:
        _fail(1, "BadArguments", "need at least 2 sample points")
    rep = kac.compare_with_gram(args.level, pts, level_cap=_level_cap(args))
    print(rep.to_json())
    if rep.verdict != "ok":
        sys.exit(EXIT_DEVIATION)


# ---------------------------------------------------------------------------
# classify / region
# ---------------------------------------------------------------------------

def cmd_classify(args):
    """Unitarity verdict for one (c, h, w)."""
    v = run_classify(args.c, args.h, args.w)
    print(json.dumps(v.to_dict(), indent=2))


def cmd_region(args):
    """CSV grid of verdicts over [h_min,h_max] x [w_min,w_max]."""
    w_min = -args.w_max if args.w_min is None else args.w_min
    rows = region_scan(args.c, (args.h_min, args.h_max),
                       (w_min, args.w_max), args.res)
    sys.stdout.write(region_scan_csv(rows))


# ---------------------------------------------------------------------------
# fz-check
# ---------------------------------------------------------------------------

# fock.VARIANTS, written out so that building the parser does not import
# fock and numpy; a test keeps the two equal
VARIANTS = ("raw", "vacuumModified", "unitaryFamily")


def cmd_fz_check(args):
    """Aggregate residual report for the chosen realization."""
    from . import fock
    variant, kappa, q1, q2 = args.variant, args.kappa, args.q1, args.q2
    cutoff, max_mode, max_level = args.cutoff, args.max_mode, args.max_level
    params = fock.RealizationParams(kappa=kappa, q1=q1, q2=q2, cutoff=cutoff)
    relations = fock.check_w3_relations(variant, params, max_mode, max_level)
    auto = fock.check_automorphism_identity(kappa, complex(0, args.eta_im),
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
    print(json.dumps(report, indent=2))
    if failures:
        sys.exit(EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# vacuum-spectrum
# ---------------------------------------------------------------------------

def cmd_vacuum_spectrum(args):
    """Eigenvalues of the vacuum cyclic-subspace Gram (vacuumModified).

    The spectrum counts as positive semidefinite down to a tolerance
    relative to its largest eigenvalue, because float roundoff in the
    eigensolver scales with it.
    """
    from . import fock
    params = fock.RealizationParams(kappa=args.kappa, cutoff=args.cutoff)
    cg = fock.cyclic_gram("vacuumModified", params, args.level)
    eigs = sorted(float(x) for x in cg.eigenvalues)
    payload = {
        "kappa": args.kappa,
        "centralCharge": params.central_charge,
        "level": args.level,
        "dimension": len(cg.words),
        "eigenvalues": eigs,
        "minEigenvalue": eigs[0],
    }
    print(json.dumps(payload, indent=2))
    # numpy's min/max propagate a NaN eigenvalue, which then fails
    lo, hi = float(cg.eigenvalues.min()), float(cg.eigenvalues.max())
    if not _within(args.psd_tol * max(1.0, hi), -lo):
        sys.exit(EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# the parser and the entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    """The w3lab argument parser: one subcommand per ``cmd_*`` function,
    which it stores as ``run``."""
    parser = _Parser(prog="w3lab", description="Exact W3-algebra "
                     "computations and unitarity checks.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__.split("\n")[0],
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    p = command("gram", cmd_gram)
    p.add_argument("--level", type=NONNEGATIVE, required=True)
    for name in ("--c", "--h", "--w"):
        p.add_argument(name, type=_rational)
    p.add_argument("--symbolic", action="store_true",
                   help="print symbolic entries")
    p.add_argument("--level-cap", type=NONNEGATIVE)
    p.add_argument("--format", choices=("json", "pretty"), default="json")

    p = command("kac-verify", cmd_kac_verify)
    p.add_argument("--level", type=NONNEGATIVE, required=True)
    p.add_argument("--samples", type=_existing_file,
                   help="JSON file: list of [c, h, w] rationals as strings")
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level-cap", type=NONNEGATIVE)

    p = command("classify", cmd_classify)
    for name in ("--c", "--h", "--w"):
        p.add_argument(name, type=_rational, required=True)

    p = command("region", cmd_region)
    p.add_argument("--c", type=_rational, required=True)
    p.add_argument("--h-min", type=_rational, default=Fraction(0))
    p.add_argument("--h-max", type=_rational, required=True)
    p.add_argument("--w-min", type=_rational)
    p.add_argument("--w-max", type=_rational, required=True)
    p.add_argument("--res", type=_at_least(2), required=True)

    p = command("fz-check", cmd_fz_check)
    p.add_argument("--variant", choices=VARIANTS, default="vacuumModified")
    p.add_argument("--kappa", type=KAPPA, default=1.0)
    p.add_argument("--q1", type=_finite, default=0.0)
    p.add_argument("--q2", type=_finite, default=0.0)
    p.add_argument("--cutoff", type=int, default=9)
    p.add_argument("--max-mode", type=NONNEGATIVE, default=3)
    p.add_argument("--max-level", type=NONNEGATIVE, default=2)
    p.add_argument("--eta-im", type=_finite_square(1.0), default=0.0,
                   help="imaginary part of eta for the automorphism check")

    p = command("vacuum-spectrum", cmd_vacuum_spectrum)
    p.add_argument("--kappa", type=KAPPA, required=True)
    p.add_argument("--level", type=NONNEGATIVE, required=True)
    p.add_argument("--cutoff", type=int, default=8)
    p.add_argument("--psd-tol", type=_positive, default=PSD_TOL,
                   help="exit 5 when the smallest eigenvalue is below "
                        "-PSD_TOL * max(1, largest eigenvalue); default 1e-8")
    return parser


def main(argv=None) -> None:
    """Run one command; ``argv`` defaults to the process arguments.  A
    library exception named in ``EXIT_CODES`` ends the command with that
    code and a JSON error."""
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except Exception as e:
        if type(e).__name__ not in EXIT_CODES:
            raise
        _fail(EXIT_CODES[type(e).__name__], type(e).__name__, str(e))


if __name__ == "__main__":
    main()
