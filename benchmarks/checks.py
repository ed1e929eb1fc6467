"""Independent checks of the CLI's outputs.

Each checker raises ``CheckFailed`` when a payload is wrong.  The facts they
check against are pinned here or recomputed from first principles (the f11
sign, the constructive-family bound, the bicolored partition counts), so a
defect in the program cannot make its own output look right.  The one
exception is the Gram point check, which divides by the program's exact
closed-form Kac product: that is a second, independent route to the same
determinant.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from workloads import REGION_H, REGION_W, Command, f11

# det(Gram_N) / closed form, pinned from the seed program's exact output.
# C_1..C_3 are also stated in the README.
KAC_CONSTANTS = {
    1: 9,
    2: 104976,
    3: 650717652052224,
    4: 1638617745884520252808573732018364350464,
    5: int("8918470532715275297701100762927283198006664855046553264116970666"
           "86631262519516200960000"),
    6: int("3989130488739800102737862126784737740785626699597189120439828081"
           "3962109535812674502002389049870420994628992605540208878465062520"
           "50755880515266509899635561302102604613691879351910400000000"),
}

# eigenvalues count as nonnegative down to this share of the largest one
PSD_REL_TOL = 1e-12


class CheckFailed(Exception):
    """The output of a command is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def p2(n: int) -> int:
    """Bicolored partitions of n: coefficients of prod (1 - q^k)^-2."""
    dp = [1] + [0] * n
    for _ in range(2):
        for part in range(1, n + 1):
            for s in range(part, n + 1):
                dp[s] += dp[s - part]
    return dp[n]


def expected_status(c: Fraction, h: Fraction, w: Fraction) -> str:
    """The classifier's verdict, recomputed from its stated criterion."""
    if c < 2:
        return "Unknown"
    quantity = f11(h, c) - w * w
    if c <= 98:
        return "Unitary" if quantity >= 0 else "NotUnitary"
    if quantity < 0:
        return "NotUnitary"
    margin = 2 * h - Fraction(c - 2, 12)
    if h >= Fraction(c - 2, 24) and w * w * (198 + 45 * c) <= 8 * margin ** 3:
        return "Unitary"
    return "Unknown"


def check_kac_verify(payload: dict, level: int, points) -> None:
    _require(payload.get("verdict") == "ok",
             f"verdict {payload.get('verdict')!r}")
    want = str(KAC_CONSTANTS[level])
    ratios = payload.get("ratios", [])
    _require(len(ratios) == len(points),
             f"{len(ratios)} ratios for {len(points)} points")
    _require(all(r == want for r in ratios), f"ratio differs from C_{level}")
    _require(payload.get("constant") == want, f"constant is not C_{level}")


def check_gram_point(payload: dict, level: int, point, closed_form) -> None:
    c, h, w = point
    entries = [[Fraction(x) for x in row] for row in payload["entries"]]
    d = len(entries)
    _require(d == len(payload["basis"]) and all(len(r) == d for r in entries),
             "Gram matrix is not square over its basis")
    _require(all(entries[i][j] == entries[j][i]
                 for i in range(d) for j in range(i)),
             "Gram matrix is not symmetric")
    ratio = Fraction(payload["determinant"]) / closed_form(level, c, h, w)
    _require(ratio == KAC_CONSTANTS[level],
             f"determinant / closed form is not C_{level}")


def region_grid(res: int) -> list:
    """The (h, w) grid points of a region scan, in the CLI's row order."""
    (h0, h1), (w0, w1) = REGION_H, REGION_W
    return [(h0 + (h1 - h0) * Fraction(i, res - 1),
             w0 + (w1 - w0) * Fraction(j, res - 1))
            for i in range(res) for j in range(res)]


def check_region(text: str, c: Fraction, res: int) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == res * res, f"{len(rows)} rows, want {res * res}")
    for row, (h, w) in zip(rows, region_grid(res)):
        _require(Fraction(row["c"]) == c and Fraction(row["h"]) == h
                 and Fraction(row["w"]) == w,
                 f"grid point {row['c']}, {row['h']}, {row['w']} out of place")
        want = expected_status(c, h, w)
        _require(row["status"] == want,
                 f"status {row['status']} at h={h}, w={w}; want {want}")


def check_classify(payload: dict, point) -> None:
    want = expected_status(*point)
    _require(payload.get("status") == want,
             f"status {payload.get('status')!r}; want {want}")


def check_fz(payload: dict) -> None:
    _require(payload.get("failures") == [],
             f"failures {payload.get('failures')!r}")
    _require(payload["relations"]["maxResidual"] >= 0, "negative residual")


def check_vacuum_spectrum(payload: dict, level: int) -> None:
    dim = sum(p2(n) for n in range(level + 1))
    eigs = payload["eigenvalues"]
    _require(payload.get("dimension") == dim == len(eigs),
             f"dimension {payload.get('dimension')}, want {dim}")
    top = max(eigs)
    _require(top > 0, "no positive eigenvalue")
    _require(min(eigs) >= -PSD_REL_TOL * top,
             f"eigenvalue {min(eigs)!r} below -{PSD_REL_TOL} x {top!r}")


def check_output(cmd: Command, stdout: str, closed_form) -> None:
    """Check one command's stdout; raises CheckFailed or ValueError."""
    p = cmd.params
    if cmd.sub == "region":
        check_region(stdout, p["c"], p["res"])
        return
    payload = json.loads(stdout)
    if cmd.sub == "kac-verify":
        check_kac_verify(payload, p["level"], p["points"])
    elif cmd.sub == "gram":
        check_gram_point(payload, p["level"], p["point"], closed_form)
    elif cmd.sub == "classify":
        check_classify(payload, p["point"])
    elif cmd.sub == "fz-check":
        check_fz(payload)
    elif cmd.sub == "vacuum-spectrum":
        check_vacuum_spectrum(payload, p["level"])
    else:
        raise ValueError(f"no checker for {cmd.sub!r}")
