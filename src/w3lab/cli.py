"""Command-line surface: gram, kac-verify, classify, region, fz-check,
vacuum-spectrum.

All payloads are RFC 8259 JSON, where a non-finite float prints as null, or
RFC-4180 CSV on stdout; structured errors go to stderr as JSON.

Exit codes:
  0 ok, the verdict in the payload
  1 bad arguments (error "BadArguments"), argparse's usage errors included
  2 pole at c = -22/5
  3 a level above its budget: --level-cap, or the Fock --cutoff
  4 Kac-comparison deviation
  5 a residual above its bound or a non-finite spectrum

Options are parsed by argparse with the standard library alone.  Type
callables check every value (exact rationals, finite floats, a kappa and an
eta whose squares are finite, nonnegative levels, a resolution of at least
2); kac-verify checks its samples file by reading it.  Option names must be
spelled out in full, and a value that starts with '-' (-5/16, -1e-3) is a
value.  One table, ``EXIT_CODES``, maps library errors to exit codes; the
JSON error kind is the exception's class name.  The level cap is the
CLI's own budget on its input; the Fock cutoff is fock's CutoffExceeded,
raised before any block is built.  Each command imports what it uses, so
``classify`` and ``region`` load none of the Verma, Kac or Fock machinery
and no third-party package.  As a process (``entry``) a command runs
without cyclic garbage collection and skips interpreter teardown.  The
symbolic ``gram`` prints ``GramMatrix.to_json()`` and writes the same text
to a cache file, described at ``cmd_gram``; no command reads it.  A
rational input may have at most MAX_DIGITS digits, checked by ``_fraction``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import reprlib
import sys
from fractions import Fraction

from .classify import classify as run_classify
from .classify import f11, region_scan, region_scan_csv

EXIT_BUDGET = 3
EXIT_DEVIATION = 4
EXIT_RESIDUAL = 5

# library exceptions by class name, so that the table needs no import of
# the modules that raise them; the class name is also the JSON error kind
EXIT_CODES = {"PoleAtForbiddenCentralCharge": 2,
              "DegenerateSample": EXIT_DEVIATION,
              "CutoffExceeded": EXIT_BUDGET}

# --level-cap's default: P2(level)^2 exact reductions stay desk-sized
LEVEL_CAP = 6

# the Fock --cutoff's default, fock.RealizationParams.cutoff, written out
# so that the parser imports no numpy; a test keeps the two equal
FOCK_CUTOFF = 12

# CPython's default sys.get_int_max_str_digits(): no rational input may
# form an integer longer than this, while the outputs print in full
MAX_DIGITS = 4300

# fz-check's one tolerance, relative to each residual's scale (``_bound``)
RESIDUAL_TOL = 1e-12


def _fail(code: int, kind: str, message: str):
    json.dump({"error": kind, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(code)


def _print_json(payload) -> None:
    """Print a Fock payload as RFC 8259 JSON: each non-finite float, a
    NaN or an infinity that its checks have already failed, prints as null,
    as JSON.stringify writes it; finite floats keep their repr."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    print(json.dumps(strict, indent=2, allow_nan=False))


def _bound(scale: float) -> float:
    """fz-check's pass bound on a float residual whose roundoff grows with
    ``scale``; a NaN residual fails, as no comparison with a NaN holds."""
    return RESIDUAL_TOL * max(1.0, scale)


def _cache_path(level: int):
    """Where the symbolic ``gram`` writes its JSON: gram-{level}-symbolic.json
    in $W3LAB_CACHE_DIR, by default ~/.cache/w3lab."""
    from pathlib import Path
    default = os.path.join(os.path.expanduser("~"), ".cache", "w3lab")
    return Path(os.environ.get("W3LAB_CACHE_DIR", default),
                f"gram-{level}-symbolic.json")


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


# ---------------------------------------------------------------------------
# option types: each turns one command-line string into a checked value
# ---------------------------------------------------------------------------

def _fraction(text: str) -> Fraction:
    """Fraction(text), refused with an ArgumentTypeError before any integer
    is formed when the digits of the text plus its decimal exponent number
    more than MAX_DIGITS.  That bounds the text of an input, not the work
    it causes: the entries of a point Gram grow like h^N."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(map(str.isdecimal, mantissa))
    if exponent.isdecimal():  # without leading zeros, 5 digits are >= 10^4
        digits += int(exponent) if len(exponent) < 5 else MAX_DIGITS + 1
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{reprlib.repr(text)} has more than {MAX_DIGITS} digits")
    return Fraction(text)


def _rational(text: str) -> Fraction:
    """An exact rational 'p/q'; a decimal is taken at its exact value,
    with a warning on stderr."""
    try:
        val = _fraction(text)
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


def _check_level(args) -> None:
    """End the command with exit 3 when --level is above --level-cap; it
    runs after the usage checks, before a pole or a degenerate sample."""
    if args.level > args.level_cap:
        _fail(EXIT_BUDGET, "LevelTooLarge", f"level {args.level} exceeds cap "
              f"{args.level_cap}; raise level_cap if the P2(level)^2 exact "
              "reductions are genuinely wanted")


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

def cmd_gram(args):
    """Level-N Gram matrix of the canonical invariant form.

    With --c/--h/--w the matrix is built exactly at that point, over
    Z[1/D] with D the lcm of the point's denominators, those of
    16/(22+5c) and 720, and printed as reduced rationals with its exact
    determinant (modular.rational_determinant).  With none of them the
    symbolic matrix is built, and its one text, ``GramMatrix.to_json()``
    and a newline, is printed and written to gram-N-symbolic.json in
    $W3LAB_CACHE_DIR (skipped when that fails): the text
    ``GramMatrix.from_json`` reads.  No command reads the file.
    Some but not all of the three, and a point with --symbolic, are
    BadArguments.
    """
    from . import modular, verma
    level, point = args.level, (args.c, args.h, args.w)
    given = sum(v is not None for v in point)
    if given not in (0, 3):
        _fail(1, "BadArguments", "--c/--h/--w must be given together")
    if given and args.symbolic:
        _fail(1, "BadArguments", "--symbolic takes no --c/--h/--w")
    _check_level(args)
    if not given:
        text = verma.gram_matrix(level).to_json() + "\n"
        try:
            _atomic_write(_cache_path(level), text)
        except OSError:
            pass  # the answer does not depend on the file
        sys.stdout.write(text)
        return
    g = verma.gram_matrix(level, verma.point_ring(*point))
    payload = {
        "level": level,
        "point": {"c": str(args.c), "h": str(args.h), "w": str(args.w)},
        **g.payload(),
        "determinant": str(modular.rational_determinant(g.entries)),
        "determinantMethod": "evaluated",
    }
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# kac-verify
# ---------------------------------------------------------------------------

def _random_region_points(k: int, seed: int):
    """k distinct rational sample points, 2 < c < 98 and f11 - w^2 > 0."""
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
        if cap - w * w > 0 and (c, h, w) not in pts:
            pts.append((c, h, w))
    return pts


def _read_samples(path: str) -> list:
    """[c, h, w] rows of rationals from a JSON file: a nonempty array of
    arrays of three numbers or strings each."""
    try:
        with open(path) as fh:
            # a number stays its text, for _fraction to measure and read
            # exactly; NaN and Infinity still parse as floats
            rows = json.load(fh, parse_int=str, parse_float=str)
        if not (isinstance(rows, list) and rows and all(
                isinstance(row, list) and len(row) == 3
                and all(type(x) is str for x in row) for row in rows)):
            _fail(1, "BadArguments", "samples must be a nonempty JSON array "
                  "of [c, h, w] arrays of numbers or strings")
        return [tuple(map(_fraction, row)) for row in rows]
    except (OSError, ValueError, ZeroDivisionError,
            argparse.ArgumentTypeError) as e:
        _fail(1, "BadArguments", f"unreadable samples file: {e}")


def cmd_kac_verify(args):
    """Compare det(Gram_N) with the closed-form product at sample points.

    At each point the Gram matrix is built from the lower-level Grams over
    Z[1/D], D the lcm of the point's denominators, those of 16/(22+5c) and
    720, and its exact determinant taken (modular.rational_determinant).
    The verdict is ok iff every ratio det / product equals the Kac
    constant kac.kac_constant(N), so one point is a complete check.  --seed
    (default 0) goes with --random only.
    """
    from . import kac
    if args.samples:
        if args.seed is not None:
            _fail(1, "BadArguments",
                  "argument --seed: not allowed with argument --samples")
        pts = _read_samples(args.samples)
    else:
        pts = _random_region_points(args.random, args.seed or 0)
    _check_level(args)
    rep = kac.compare_with_gram(args.level, pts)
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


def _quiet_overflow(run):
    """A Fock command under one numpy errstate: an overflow shows as the
    NaN or inf its checks fail, not as warning text on stderr.  numpy comes
    by way of fock, in the command's import order, which keeps peak RSS."""
    @functools.wraps(run)
    def quiet(args):
        from .fock import np
        with np.errstate(over="ignore", invalid="ignore"):
            run(args)
    return quiet


@_quiet_overflow
def cmd_fz_check(args):
    """Residual report for the chosen realization: each float residual
    passes iff it is at most ``_bound`` of the scale its check reports.

    --cutoff is the level budget of the relation sweep, which reaches
    max-level + 2 * max-mode: above it the command exits 3 before any
    block is built.  The central-charge extraction (L_2 and L_-2 on the
    vacuum) and the zero vectors (up to W_-2 on the vacuum) reach level 2
    at any cutoff.
    """
    from . import fock
    variant, kappa, q1, q2 = args.variant, args.kappa, args.q1, args.q2
    max_mode, max_level, cutoff = args.max_mode, args.max_level, args.cutoff
    params = fock.RealizationParams(kappa=kappa, q1=q1, q2=q2, cutoff=cutoff)
    relations = fock.check_w3_relations(variant, params, max_mode, max_level)
    auto = fock.check_automorphism_identity(kappa, complex(0, args.eta_im),
                                            max_mode, max_level, cutoff)
    report = {
        "variant": variant,
        "params": {"kappa": kappa, "q1": q1, "q2": q2, "cutoff": cutoff},
        "relations": relations,
        "automorphismIdentity": auto,
    }
    cc = relations["centralCharge"]
    passed = {  # check name -> passed, in report order
        "relations": relations["maxResidual"] <= _bound(relations["scale"]),
        "centralCharge": cc["error"] <= _bound(abs(cc["expected"])),
        "automorphismIdentity": auto["maxResidual"] <= _bound(auto["scale"])}
    if variant == "vacuumModified":
        weak = report["weakSymmetry"] = fock.check_weak_symmetry(
            params, max_mode, max_level)
        bound = _bound(weak["scale"])
        passed["weakSymmetry"] = (weak["maxPairDefect"] <= bound
                                  and weak["maxTripleDefect"] <= bound)
        # the negative control: at kappa != 0 a bare L_n must show a defect,
        # else (no mode reached, or a NaN) the checks above proved nothing
        passed["weakSymmetryControl"] = (
            kappa == 0 or weak["unpairedControlDefect"] > bound)
        if q1 == 0 and q2 == 0:
            # each norm sums terms of size kappa that cancel
            zv = report["zeroVectors"] = fock.zero_vector_norms(params)
            passed["zeroVectors"] = all(zv[k] <= _bound(s)
                                        for k, s in zv["scale"].items())
    failures = report["failures"] = [k for k, ok in passed.items() if not ok]
    _print_json(report)
    if failures:
        sys.exit(EXIT_RESIDUAL)


# ---------------------------------------------------------------------------
# vacuum-spectrum
# ---------------------------------------------------------------------------

@_quiet_overflow
def cmd_vacuum_spectrum(args):
    """Eigenvalues of the vacuum cyclic-subspace Gram (vacuumModified).

    The Gram is 0 between levels at the vacuum, so these are the spectra
    of ``fock.cyclic_gram``'s level blocks: positive semidefinite by
    construction, so a negative eigenvalue is roundoff and gets no
    tolerance.  Exit 5 only on a non-finite spectrum, as when a block
    overflows.  The paper's identity of this Gram with the canonical form
    at (2 + 12 kappa^2, 0, 0) is not checked here (ROADMAP item 3).
    --cutoff is the level budget: a --level above it exits 3 before any
    block is built.  The digits are fixed per BLAS thread count only; the
    benchmark pins one.
    """
    from . import fock
    params = fock.RealizationParams(kappa=args.kappa, cutoff=args.cutoff)
    cg = fock.cyclic_gram("vacuumModified", params, args.level)
    eigs = [float(x) for x in cg.eigenvalues]  # ascending
    payload = {
        "kappa": args.kappa,
        "centralCharge": params.central_charge,
        "level": args.level,
        "dimension": len(cg.words),
        "eigenvalues": eigs,
        "minEigenvalue": eigs[0],
    }
    _print_json(payload)
    if not all(map(math.isfinite, eigs)):
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
                   help="the symbolic Gram, the default without --c/--h/--w")
    p.add_argument("--level-cap", type=NONNEGATIVE, default=LEVEL_CAP)

    p = command("kac-verify", cmd_kac_verify)
    p.add_argument("--level", type=NONNEGATIVE, required=True)
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--samples",
                        help="JSON file: list of [c, h, w] rationals as "
                        "strings")
    points.add_argument("--random", type=_at_least(1))
    p.add_argument("--seed", type=int)
    p.add_argument("--level-cap", type=NONNEGATIVE, default=LEVEL_CAP)

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
    p.add_argument("--cutoff", type=NONNEGATIVE, default=FOCK_CUTOFF,
                   help="level budget of the relation sweep, max-level + 2 "
                   "* max-mode; above it exits 3 (default: %(default)s)")
    p.add_argument("--max-mode", type=NONNEGATIVE, default=3)
    p.add_argument("--max-level", type=NONNEGATIVE, default=2)
    p.add_argument("--eta-im", type=_finite_square(1.0), default=0.0,
                   help="imaginary part of eta for the automorphism check")

    p = command("vacuum-spectrum", cmd_vacuum_spectrum)
    p.add_argument("--kappa", type=KAPPA, required=True)
    p.add_argument("--level", type=NONNEGATIVE, required=True)
    p.add_argument("--cutoff", type=NONNEGATIVE, default=FOCK_CUTOFF,
                   help="level budget: a --level above it exits 3 "
                   "(default: %(default)s)")
    return parser


def main(argv=None) -> None:
    """Run one command; ``argv`` defaults to the process arguments.  A
    library exception named in ``EXIT_CODES`` ends the command with that
    code and a JSON error.  Exact answers print in full: the limit on
    int-to-str digits is lifted while the command runs and restored after.
    ``main`` leaves the garbage collector alone and ends no process, so it
    can run in-process; ``entry`` wraps it for the command line."""
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args.run(args)
    except Exception as e:
        if type(e).__name__ not in EXIT_CODES:
            raise
        _fail(EXIT_CODES[type(e).__name__], type(e).__name__, str(e))
    finally:
        sys.set_int_max_str_digits(limit)


def _stdout_closed() -> int:
    """Exit code 1 for a reader that closed stdout (``| head``): stdout is
    pointed at devnull, so nothing more is written to the closed pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def entry(argv=None):
    """The ``w3lab`` console script and ``python -m w3lab.cli``: run one
    command as the whole life of this process.

    Cyclic garbage collection is off (the commands make almost no cycles,
    so its passes only cost time), and after flushing stdout and stderr the
    process ends with ``os._exit``, skipping interpreter teardown.  A
    closed stdout ends the command with exit 1 and an empty stderr, not a
    BrokenPipeError traceback; any other uncaught exception propagates.
    """
    gc.disable()
    try:
        main(argv)
        code = 0
    except SystemExit as e:
        code = 0 if e.code is None else e.code
    except BrokenPipeError:
        code = _stdout_closed()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
