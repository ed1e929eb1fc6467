"""Traced run: spans around each layer's public calls, and per-layer metrics.

The program has no spans of its own, so they are recorded here, around the
calls into its modules (the layers ``exact``, ``verma``, ``kac``, ``fock``,
``classify`` and ``cli``).  A traced run does three things:

1. One untraced pass of the workload as CLI subprocesses, for the overhead
   comparison and the output checks.
2. A replay of the same pass in-process.  Each CLI command gets a parent
   span ``cli.<subcommand>``; the layer calls that command makes get child
   spans; all spans of one command share its index as identifier.  The
   ``verma`` memo is module-global and a CLI command always starts with it
   empty, so it is cleared before every command.
3. Layer probes: direct, timed calls on fixed-size operands that give the
   per-layer metrics.  ``exact`` calls made inside ``verma`` are invisible
   from outside, so the ring is timed on the level-5 Gram entries.

Spans are kept in memory and written to ``.bench_run/trace-<workload>-
seed<seed>.json`` at the end.  A span's self time is its duration minus
that of its children.  ``trace.overhead_s`` is the traced replay minus the
untraced pass; the replay skips one interpreter start per command, so it is
usually negative.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import passes
import workloads
from w3lab import fock, kac, verma
# ``w3lab.classify`` is the function re-exported by the package, which
# shadows the submodule, so the submodule's names are imported directly.
from w3lab.classify import classify, region_scan, region_scan_csv
from w3lab.exact import parse_rational, parse_scalar


class Tracer:
    """Spans in memory: name, command id, parent, start and end."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, cmd):
        rec = {"id": len(self.spans), "cmd": cmd, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, cmd, fn, *args):
        """Call fn(*args) inside a span; return (result, seconds)."""
        with self.span(name, cmd) as rec:
            out = fn(*args)
        return out, rec["end"] - rec["start"]

    def self_seconds(self) -> dict:
        """Self time summed per span name, without the probe spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            if s["cmd"] != "probe":
                out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                 for s in self.spans]
        path.write_text(json.dumps(dict(
            extra, spans=spans,
            replay_self_seconds=self.self_seconds()),
            indent=1))


# ---------------------------------------------------------------------------
# in-process replay of one pass, mirroring what each CLI command calls
# ---------------------------------------------------------------------------

def _gram(tr: Tracer, i: int, level: int, cache: Path,
          built: dict) -> verma.GramMatrix:
    """The CLI's Gram lookup: a cached file if present, else build and store.

    Builds are recorded in ``built`` as level -> (Gram, seconds); they start
    from an empty memo, so the probes can reuse them.
    """
    hit = next(cache.glob(f"gram-{level}-*.json"), None)
    if hit is not None:
        return tr.timed("verma.from_json", i, lambda: verma.GramMatrix.from_json(
            hit.read_text()))[0]
    g, seconds = tr.timed("verma.gram_matrix", i, verma.gram_matrix, level)
    built[level] = (g, seconds)
    text = tr.timed("verma.to_json", i, g.to_json)[0]
    (cache / f"gram-{level}-replay.json").write_text(text)
    return g


def _replay_command(tr: Tracer, i: int, cmd, cache: Path,
                    built: dict) -> None:
    p = cmd.params
    if cmd.sub == "kac-verify":
        rows = json.loads(Path(p["samples"]).read_text())
        pts = [tuple(parse_rational(x) for x in row) for row in rows]
        g = _gram(tr, i, p["level"], cache, built)
        tr.timed("kac.compare_with_gram", i, kac.compare_with_gram,
                 p["level"], pts, 1e-8, g)
    elif cmd.sub == "gram":
        g = _gram(tr, i, p["level"], cache, built)
        tr.timed("verma.evaluate", i, g.evaluate, *p["point"])
        tr.timed("verma.determinant_at", i, verma.determinant_at, g,
                 *p["point"])
    elif cmd.sub == "region":
        rows = tr.timed("classify.region_scan", i, region_scan, p["c"],
                        workloads.REGION_H, workloads.REGION_W, p["res"])[0]
        tr.timed("classify.region_scan_csv", i, region_scan_csv, rows)
    elif cmd.sub == "classify":
        tr.timed("classify.classify", i,
                 lambda: classify(*p["point"]).to_dict())
    elif cmd.sub == "fz-check":
        params = fock.RealizationParams(kappa=p["kappa"], q1=p["q1"],
                                        q2=p["q2"], cutoff=p["cutoff"])
        tr.timed("fock.check_w3_relations", i, fock.check_w3_relations,
                 p["variant"], params, p["max_mode"], p["max_level"])
        tr.timed("fock.check_automorphism_identity", i,
                 fock.check_automorphism_identity, p["kappa"], 0j,
                 p["max_mode"], p["max_level"], p["cutoff"])
        tr.timed("fock.verify_rho_ode", i, fock.verify_rho_ode, 20)
        if p["variant"] == "vacuumModified":
            tr.timed("fock.check_weak_symmetry", i, fock.check_weak_symmetry,
                     params, p["max_mode"], p["max_level"])
            if p["q1"] == 0 and p["q2"] == 0:
                tr.timed("fock.zero_vector_norms", i, fock.zero_vector_norms,
                         params)
    elif cmd.sub == "vacuum-spectrum":
        params = fock.RealizationParams(kappa=p["kappa"], cutoff=p["cutoff"])
        tr.timed("fock.cyclic_gram", i, fock.cyclic_gram, "vacuumModified",
                 params, p["level"])
    else:
        raise ValueError(f"no replay for {cmd.sub!r}")


def replay(tr: Tracer, p: passes.Pass, built: dict) -> float:
    """Replay a pass in-process; return the summed command span time."""
    total = 0.0
    for i, cmd in enumerate(p.commands):
        verma.clear_cache()
        with tr.span(f"cli.{cmd.sub}", i) as rec:
            _replay_command(tr, i, cmd, p.cache, built)
        total += rec["end"] - rec["start"]
    return total


# ---------------------------------------------------------------------------
# layer probes
# ---------------------------------------------------------------------------

def _median_us(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def _swell(g: verma.GramMatrix) -> dict:
    """Size counts of the symbolic entries of a Gram matrix."""
    entries = [e for row in g.entries for e in row]
    return {
        "terms_total": sum(len(e.terms) for e in entries),
        "terms_max": max(len(e.terms) for e in entries),
        "denom_power_max": max(e.denom_power for e in entries),
        "coef_bits_max": max(max(q.numerator.bit_length(),
                                 q.denominator.bit_length())
                             for e in entries for q in e.terms.values()),
    }


def probe_exact_verma_kac(tr: Tracer, rng: random.Random, built: dict) -> dict:
    """exact, verma and kac metrics; cold builds the replay made are reused."""
    m = {}
    pts = [workloads.region_point(rng) for _ in range(8)]
    pt = pts[0]
    grams = {}
    for level in (4, 5, 6):
        if level not in built:
            verma.clear_cache()
            built[level] = tr.timed("verma.gram_matrix", "probe",
                                    verma.gram_matrix, level)
        g, m[f"verma.gram_build_s.L{level}"] = built[level]
        grams[level] = g
        m[f"verma.gram_dim.L{level}"] = g.dimension
        for name, val in _swell(g).items():
            m[f"exact.{name}.L{level}"] = val
    for level in (5, 6):
        g = grams[level]
        _, m[f"verma.evaluate_s.L{level}"] = tr.timed(
            "verma.evaluate", "probe", g.evaluate, *pt)
        _, m[f"verma.determinant_at_s.L{level}"] = tr.timed(
            "verma.determinant_at", "probe", verma.determinant_at, g, *pt)
        text, m[f"verma.to_json_s.L{level}"] = tr.timed(
            "verma.to_json", "probe", g.to_json)
        m[f"verma.json_bytes.L{level}"] = len(text.encode())
        _, m[f"verma.from_json_s.L{level}"] = tr.timed(
            "verma.from_json", "probe", verma.GramMatrix.from_json, text)
        m[f"kac.closed_form_exact_ms.L{level}"] = 1e-3 * _median_us(
            lambda q: kac.kac_closed_form_exact(level, *q), pts)

    g5 = grams[5]
    entries = [g5.entries[i][j] for i in range(g5.dimension) for j in range(i + 1)]
    pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(200)]
    with tr.span("exact.ops", "probe"):
        m["exact.mul_us"] = _median_us(lambda ab: ab[0] * ab[1], pairs)
        m["exact.add_us"] = _median_us(lambda ab: ab[0] + ab[1], pairs)
        m["exact.evaluate_us"] = _median_us(lambda e: e.evaluate(*pt), entries)
        texts = [str(e) for e in entries]
        m["exact.parse_us"] = _median_us(parse_scalar, texts)

    _, m["kac.compare_s.L5"] = tr.timed(
        "kac.compare_with_gram", "probe", kac.compare_with_gram, 5, pts,
        1e-8, g5)
    _, m["kac.closed_form_symbolic_s.L3"] = tr.timed(
        "kac.kac_closed_form_symbolic", "probe",
        kac.kac_closed_form_symbolic, 3)
    verma.clear_cache()
    g2 = verma.gram_matrix(2)
    _, m["verma.determinant_symbolic_s.L2"] = tr.timed(
        "verma.determinant", "probe", verma.determinant, g2)
    return m


def probe_fock(tr: Tracer, rng: random.Random) -> dict:
    m = {}
    kappa = workloads.kappa(rng)
    q = (0.25, -0.3)
    for variant in fock.VARIANTS:
        q1, q2 = q if variant == "unitaryFamily" else (0.0, 0.0)
        params = fock.RealizationParams(kappa=kappa, q1=q1, q2=q2, cutoff=10)
        _, m[f"fock.w3_relations_s.{variant}"] = tr.timed(
            "fock.check_w3_relations", "probe", fock.check_w3_relations,
            variant, params, 3, 4)
    params = fock.RealizationParams(kappa=kappa, cutoff=10)
    _, m["fock.weak_symmetry_s"] = tr.timed(
        "fock.check_weak_symmetry", "probe", fock.check_weak_symmetry,
        params, 3, 4)
    _, m["fock.automorphism_s"] = tr.timed(
        "fock.check_automorphism_identity", "probe",
        fock.check_automorphism_identity, kappa, 0j, 3, 4, 10)
    for level, cutoff in ((6, 8), (8, 10)):
        params = fock.RealizationParams(kappa=kappa, cutoff=cutoff)
        cg, m[f"fock.cyclic_gram_s.L{level}"] = tr.timed(
            "fock.cyclic_gram", "probe", fock.cyclic_gram, "vacuumModified",
            params, level)
        m[f"fock.cyclic_dim.L{level}"] = len(cg.words)
    m["fock.basis_keys"] = len(fock.basis_keys(10))
    return m


def probe_classify(tr: Tracer, rng: random.Random) -> dict:
    m = {}
    scan_s = csv_s = 0.0
    verdicts = 0
    for branch in ("below2", "classified", "above98"):
        c = workloads.branch_c(rng, branch)
        rows, dt = tr.timed("classify.region_scan", "probe", region_scan, c,
                            workloads.REGION_H, workloads.REGION_W, 100)
        m[f"classify.region_scan_s.{branch}"] = dt
        scan_s += dt
        verdicts += len(rows)
        csv_s += tr.timed("classify.region_scan_csv", "probe",
                          region_scan_csv, rows)[1]
    m["classify.verdicts_per_s"] = verdicts / scan_s
    m["classify.csv_s"] = csv_s
    pts = [workloads.any_point(rng) for _ in range(200)]
    with tr.span("classify.classify", "probe"):
        m["classify.classify_us"] = _median_us(lambda q: classify(*q), pts)
    return m


IMPORT_PROBE = ("import time; t = time.perf_counter(); import w3lab.cli; "
                "print(time.perf_counter() - t)")


def probe_cli(tr: Tracer, tmp: Path) -> dict:
    cache = tmp / "probe-cache"
    cache.mkdir(exist_ok=True)
    startup, imports = [], []
    with tr.span("cli.startup", "probe"):
        for _ in range(3):
            startup.append(passes.run_cli(["--help"], cache, tmp)[0])
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                 capture_output=True, text=True, check=True,
                                 env=passes.child_env(cache), cwd=tmp)
            imports.append(float(out.stdout))
    return {"cli.startup_ms": 1000 * statistics.median(startup),
            "cli.import_ms": 1000 * statistics.median(imports)}


def traced_run(workload: str, seed: int, tmp: Path, out_dir: Path) -> dict:
    passes.warm_up(tmp)
    p = passes.setup(workload, seed, tmp)
    ops = passes.run_pass(p)
    passes.teardown(p)
    passes.report_faults(ops)
    untraced = sum(op.seconds for op in ops)

    tr = Tracer()
    built = {}
    p = passes.setup(workload, seed, tmp)
    traced = replay(tr, p, built)
    passes.teardown(p)

    rng = random.Random(f"probes:{seed}")
    metrics = {"trace.overhead_s": traced - untraced}
    metrics.update(probe_exact_verma_kac(tr, rng, built))
    metrics.update(probe_fock(tr, rng))
    metrics.update(probe_classify(tr, rng))
    metrics.update(probe_cli(tr, tmp))

    path = out_dir / f"trace-{workload}-seed{seed}.json"
    tr.write(path, {"workload": workload, "seed": seed,
                    "untraced_pass_s": untraced, "traced_replay_s": traced})
    for name, sec in sorted(tr.self_seconds().items()):
        print(f"replay self time {name:36s} {sec:10.4f} s", file=sys.stderr)
    print(f"spans written to {path}", file=sys.stderr)
    failed = sum(1 for op in ops if op.fault)
    return {"correct": not any(op.fault == "output" for op in ops),
            "attempted": len(ops), "failed": failed, "metrics": metrics}
