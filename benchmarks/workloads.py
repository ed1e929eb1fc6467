"""Seeded inputs and command lists for the benchmark workloads.

A workload is the list of `w3lab` CLI commands one pass runs.  Every input
is drawn from ``random.Random`` seeded by the workload name and the run seed,
so the same seed always gives the same commands.  The program sees only the
generated arguments and sample files, never the seed.

Sample points use fixed denominators (c in 1/7, h in 1/8, w in 1/16) so the
exact-arithmetic cost of a point varies little from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from w3lab.kac import kac_closed_form_exact

WORKLOADS = ("verify_cold", "explore_warm", "fock_sweep")

# region scans: h in [0, 2], w in [-1, 1]
REGION_H = (Fraction(0), Fraction(2))
REGION_W = (Fraction(-1), Fraction(1))


@dataclass
class Command:
    """One CLI call: the subcommand and its typed parameters.

    ``params`` holds exact values (Fractions, ints, floats) that the checker
    and the in-process replay read; ``argv`` renders them for the CLI.
    """

    sub: str
    params: dict = field(default_factory=dict)

    def argv(self) -> list:
        p = self.params
        if self.sub == "kac-verify":
            return ["kac-verify", "--level", str(p["level"]),
                    "--samples", str(p["samples"])]
        if self.sub == "gram":
            c, h, w = p["point"]
            return ["gram", "--level", str(p["level"]),
                    "--c", str(c), "--h", str(h), "--w", str(w)]
        if self.sub == "region":
            return ["region", "--c", str(p["c"]),
                    "--h-min", str(REGION_H[0]), "--h-max", str(REGION_H[1]),
                    "--w-min", str(REGION_W[0]), "--w-max", str(REGION_W[1]),
                    "--res", str(p["res"])]
        if self.sub == "classify":
            c, h, w = p["point"]
            return ["classify", "--c", str(c), "--h", str(h), "--w", str(w)]
        if self.sub == "fz-check":
            return ["fz-check", "--variant", p["variant"],
                    "--kappa", repr(p["kappa"]), "--q1", repr(p["q1"]),
                    "--q2", repr(p["q2"]), "--cutoff", str(p["cutoff"]),
                    "--max-mode", str(p["max_mode"]),
                    "--max-level", str(p["max_level"])]
        if self.sub == "vacuum-spectrum":
            return ["vacuum-spectrum", "--kappa", repr(p["kappa"]),
                    "--level", str(p["level"]), "--cutoff", str(p["cutoff"])]
        raise ValueError(f"unknown subcommand {self.sub!r}")


def f11(h: Fraction, c: Fraction) -> Fraction:
    """First Kac factor, 2 h^2 (96h - 3c + 6) / (27 (5c + 22)).

    Written out here rather than imported so that the checker and the input
    generator do not lean on the code they check.
    """
    return 2 * h * h * (96 * h - 3 * c + 6) / (27 * (5 * c + 22))


def region_point(rng: random.Random) -> tuple:
    """A rational (c, h, w) with 20 <= c < 40 and f11 - w^2 > 0.

    The range sits inside 2 < c < 98, where the classifier is complete, and
    far from the pole c = -22/5.  Points where the level-6 closed form
    vanishes are redrawn, because kac-verify rejects them as degenerate.
    """
    while True:
        c = rng.randrange(20, 40) + Fraction(rng.randrange(1, 7), 7)
        lo = math.ceil(8 * ((c - 2) / 32 + Fraction(1, 2)))
        h = Fraction(rng.randrange(lo, lo + 12) | 1, 8)
        cap = f11(h, c)
        jmax = int(16 * math.sqrt(cap) * 0.9)
        if jmax < 1:
            continue
        w = Fraction(rng.randrange(1, jmax + 1) | 1, 16) * rng.choice((1, -1))
        if cap - w * w > 0 and kac_closed_form_exact(6, c, h, w) != 0:
            return c, h, w


def branch_c(rng: random.Random, branch: str) -> Fraction:
    """A central charge in one classifier branch: c < 2, 2..98 or > 98."""
    lo, hi = {"below2": (-3, 2), "classified": (3, 97),
              "above98": (99, 150)}[branch]
    return rng.randrange(lo, hi) + Fraction(rng.randrange(1, 7), 7)


def any_point(rng: random.Random) -> tuple:
    """A classify input in any branch, h in [0, 4], w in [-2, 2]."""
    c = branch_c(rng, rng.choice(("below2", "classified", "above98")))
    return c, Fraction(rng.randrange(0, 33), 8), Fraction(rng.randrange(-32, 33), 16)


def kappa(rng: random.Random) -> float:
    return round(rng.uniform(0.5, 3.0), 3)


def write_samples(path: Path, points) -> Path:
    path.write_text(json.dumps([[str(x) for x in p] for p in points]))
    return path


def build_pass(workload: str, seed: int, workdir: Path) -> list:
    """The command list of one pass; sample files are written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_cold":
        pts = [region_point(rng) for _ in range(2)]
        samples = write_samples(workdir / "samples.json", pts)
        cmds = [Command("kac-verify", {"level": n, "samples": samples,
                                       "points": pts})
                for n in range(1, 7)]
    elif workload == "explore_warm":
        pts = [region_point(rng) for _ in range(8)]
        samples = write_samples(workdir / "samples.json", pts)
        cmds = [Command("kac-verify", {"level": 5, "samples": samples,
                                       "points": pts})]
        cmds += [Command("gram", {"level": 5, "point": region_point(rng)})
                 for _ in range(3)]
        cmds += [Command("region", {"c": branch_c(rng, b), "res": 100,
                                    "branch": b})
                 for b in ("below2", "classified", "above98")]
        cmds += [Command("classify", {"point": any_point(rng)})
                 for _ in range(20)]
    elif workload == "fock_sweep":
        cmds = []
        for variant in ("raw", "vacuumModified", "unitaryFamily"):
            q1 = q2 = 0.0
            if variant == "unitaryFamily":
                q1 = round(rng.uniform(0.1, 0.5), 3) * rng.choice((1, -1))
                q2 = round(rng.uniform(0.1, 0.5), 3) * rng.choice((1, -1))
            cmds.append(Command("fz-check", {
                "variant": variant, "kappa": kappa(rng), "q1": q1, "q2": q2,
                "cutoff": 10, "max_mode": 3, "max_level": 4}))
        # Level 8 keeps the known wrong verdict visible: the CLI compares an
        # absolute 1e-8 tolerance with eigenvalues up to ~1e11 and exits 5.
        cmds += [Command("vacuum-spectrum", {"kappa": kappa(rng), "level": lv,
                                             "cutoff": co})
                 for lv, co in ((6, 8), (8, 10))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds
