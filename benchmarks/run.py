#!/usr/bin/env python3
"""Benchmark of the w3lab CLI, end to end and layer by layer.

    python3 benchmarks/run.py --workload verify_cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is taken from its ``src/``.
With ``--trace 0`` the workload's command list runs as CLI subprocesses,
pass after pass, for about ``--seconds`` seconds (at least one pass), and
the end-to-end metrics are the medians over passes.  With ``--trace 1`` the
same workload is replayed in-process with spans around each layer call, and
the per-layer metrics are printed instead (see tracing.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and faults go to stderr.
Every output is checked (see checks.py).  ``failed`` counts commands with a
wrong exit code or a wrong or unparsable output; ``correct`` is false only
when an output itself was wrong or unparsable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

# Set-up is sampled twice per run, before the passes and after them, each
# time for at least SETUP_WINDOW_S of wall time and at least
# SETUP_MIN_SAMPLES set-ups, so that its median spans the run.
SETUP_WINDOW_S = 1.0
SETUP_MIN_SAMPLES = 3


def subcommand_seconds(ops: list) -> dict:
    """Summed time per subcommand in one pass."""
    out = {}
    for op in ops:
        out[op.sub] = out.get(op.sub, 0.0) + op.seconds
    return out


def sample_setups(workload: str, seed: int, tmp: Path) -> list:
    """Set up and tear down a pass for SETUP_WINDOW_S of wall time, and at
    least SETUP_MIN_SAMPLES times; return the set-up times."""
    import passes

    out = []
    end = time.perf_counter() + SETUP_WINDOW_S
    while len(out) < SETUP_MIN_SAMPLES or time.perf_counter() < end:
        p, dt = passes.timed_setup(workload, seed, tmp)
        passes.teardown(p)
        out.append(dt)
    return out


def untraced_run(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """Passes for about ``seconds``, at least one; medians over passes."""
    import passes

    passes.warm_up(tmp)
    per_pass = []
    start = time.perf_counter()
    setups = sample_setups(workload, seed, tmp)
    while True:
        p, dt = passes.timed_setup(workload, seed, tmp)
        setups.append(dt)
        per_pass.append(passes.run_pass(p))
        passes.teardown(p)
        elapsed = time.perf_counter() - start
        print(f"pass {len(per_pass)}: "
              f"{sum(op.seconds for op in per_pass[-1]):.3f} s", file=sys.stderr)
        # stop unless one more average pass still fits in the budget
        if elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            break
    setups += sample_setups(workload, seed, tmp)

    ops = [op for pass_ops in per_pass for op in pass_ops]
    passes.report_faults(ops)
    passes.dump_ops(per_pass, RUN_DIR / f"ops-{workload}-seed{seed}.json")
    by_sub = [subcommand_seconds(pass_ops) for pass_ops in per_pass]
    for sub in by_sub[0]:
        t = statistics.median(b[sub] for b in by_sub)
        print(f"  {sub:16s} {t:10.4f} s per pass", file=sys.stderr)
    print(f"{len(per_pass)} passes, {len(setups)} set-ups", file=sys.stderr)
    failed = sum(1 for op in ops if op.fault)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(op.seconds for op in pass_ops)
                                    for pass_ops in per_pass),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    return {"correct": not any(op.fault == "output" for op in ops),
            "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "w3lab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no w3lab sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every CLI child
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import passes
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=RUN_DIR, prefix="tmp-"))
    try:
        if args.trace:
            import tracing
            result = tracing.traced_run(args.workload, args.seed, tmp,
                                        RUN_DIR)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, tmp)
    except passes.SetupFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']:42s} {metrics[m['name']]:>16.6g} {m['unit']}",
              file=sys.stderr)
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
