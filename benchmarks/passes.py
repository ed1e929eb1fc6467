"""Set up and run one pass of a workload as real CLI subprocesses.

A pass is run one command at a time from this process: the machine the
benchmark targets has two cores, so there are no threads and no parallel
children.  Each command is timed from spawn to reap, and its peak resident
set size comes from ``wait4``'s rusage for that child alone.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import workloads
from w3lab.kac import kac_closed_form_exact

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# a command that runs longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 120


class SetupFailed(RuntimeError):
    """A pass could not be prepared; the run has no valid result."""


@dataclass
class Op:
    """The outcome of one CLI command."""

    sub: str
    label: str
    seconds: float
    rss_kb: int
    exit_code: int
    # None when the command passed; "exit" when only its exit code was
    # wrong; "output" when its output was unparsable or wrong
    fault: str | None = None
    reason: str = ""


@dataclass
class Pass:
    workdir: Path
    cache: Path
    commands: list


def child_env(cache: Path) -> dict:
    """Environment of every CLI child: the checkout's sources, a private
    Gram cache and a fixed hash seed.  The single-threaded BLAS settings
    are inherited from run.py."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), W3LAB_CACHE_DIR=str(cache),
               PYTHONHASHSEED="0")
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def run_cli(argv: list, cache: Path, workdir: Path) -> tuple:
    """Run ``python -m w3lab.cli argv``; return (seconds, rss_kb, code, stdout).

    The child is always reaped before this returns or raises.
    """
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "w3lab.cli", *argv],
                                stdout=out, stderr=err, cwd=workdir,
                                env=child_env(cache))
        reaped = False
        try:
            signal.alarm(COMMAND_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            seconds = time.perf_counter() - t0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss, proc.returncode, out_path.read_text()


def warm_up(tmp: Path) -> None:
    """Start the CLI once, untimed, so bytecode is compiled and the files
    are in the page cache before anything is measured."""
    cache = tmp / "warm-cache"
    cache.mkdir(exist_ok=True)
    _, _, code, _ = run_cli(["--help"], cache, tmp)
    if code != 0:
        raise SetupFailed(f"`w3lab --help` exited {code}")


def setup(workload: str, seed: int, tmp: Path) -> Pass:
    """A fresh work directory, an empty Gram cache and the seeded inputs.

    explore_warm also primes the cache with the level-5 symbolic Gram, so
    that build cost lands here and not in the pass.
    """
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    cache = workdir / "cache"
    cache.mkdir()
    commands = workloads.build_pass(workload, seed, workdir)
    if workload == "verify_cold" and any(cache.iterdir()):
        raise SetupFailed("verify_cold needs an empty cache")
    if workload == "explore_warm":
        _, _, code, _ = run_cli(["gram", "--level", "5", "--symbolic"],
                                cache, workdir)
        levels = {int(f.name.split("-")[1]) for f in cache.glob("gram-*.json")}
        if code != 0 or 5 not in levels or max(levels) > 5:
            raise SetupFailed(f"priming the cache gave exit {code}, "
                              f"cached levels {sorted(levels)}")
    return Pass(workdir, cache, commands)


def teardown(p: Pass) -> None:
    shutil.rmtree(p.workdir)


def timed_setup(workload: str, seed: int, tmp: Path) -> tuple:
    t0 = time.perf_counter()
    p = setup(workload, seed, tmp)
    return p, time.perf_counter() - t0


def run_pass(p: Pass) -> list:
    """Run every command of the pass and check its output; return the Ops."""
    ops = []
    for cmd in p.commands:
        argv = cmd.argv()
        seconds, rss_kb, code, stdout = run_cli(argv, p.cache, p.workdir)
        op = Op(cmd.sub, " ".join(argv[:5]), seconds, rss_kb, code)
        try:
            checks.check_output(cmd, stdout, kac_closed_form_exact)
        except (checks.CheckFailed, ValueError, KeyError, TypeError,
                IndexError, ZeroDivisionError) as e:
            op.fault, op.reason = "output", f"{type(e).__name__}: {e}"
        if op.fault is None and code != 0:
            op.fault, op.reason = "exit", f"exit code {code}, output correct"
        ops.append(op)
    return ops


def report_faults(ops: list) -> None:
    """Print each distinct failed operation once, to stderr."""
    seen = set()
    for op in ops:
        if op.fault and (op.label, op.reason) not in seen:
            seen.add((op.label, op.reason))
            print(f"FAILED [{op.fault}] {op.label}: {op.reason}",
                  file=sys.stderr)


def dump_ops(passes: list, path: Path) -> None:
    """Write every command's timing and outcome, pass by pass, as JSON."""
    path.write_text(json.dumps([[asdict(op) for op in ops] for ops in passes],
                               indent=1))
