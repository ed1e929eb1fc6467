import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest

from w3lab import verma
from w3lab.cli import main


@pytest.fixture(scope="session")
def grams():
    """Symbolic Gram matrices for levels 0..3, shared across the suite."""
    return {n: verma.gram_matrix(n) for n in range(4)}


@pytest.fixture(scope="session")
def engine():
    """One symbolic rewriting engine, so its memo is shared across tests."""
    return verma.Engine()


@functools.lru_cache(maxsize=None)
def _canonical_gram(level: int) -> verma.GramMatrix:
    return verma.gram_matrix(level)


def canonical_pairs(cg, c, h, w):
    """(Fock entry, canonical entry) for every entry of every level block of
    the Fock cyclic Gram ``cg``: blocks[N] against ``verma.gram_matrix(N)``
    at (c, h, w) as floats, whose entries are those of
    ``Engine.inner_product`` (tests/test_verma.py)."""
    start = 0
    for level, block in enumerate(cg.blocks):
        gram = _canonical_gram(level)
        assert cg.words[start:start + gram.dimension] == gram.basis
        start += gram.dimension
        for i, row in enumerate(gram.evaluate(c, h, w)):
            for j, exact in enumerate(row):
                yield block[i, j], float(exact)


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def strict_loads(text: str):
    """``json.loads`` that refuses the NaN and Infinity tokens, which
    RFC 8259 JSON does not have."""
    def reject(token):
        raise ValueError(f"{token} is not a JSON value")
    return json.loads(text, parse_constant=reject)


def invoke(argv) -> CliResult:
    """``w3lab.cli.main(argv)`` in-process: its exit code and what it wrote
    to stdout and stderr.  A stdout that starts with '{' must parse as
    strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv))
            code = 0
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    if out.getvalue().startswith("{"):
        strict_loads(out.getvalue())
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    """``runner(argv)`` runs the CLI in-process over a fresh Gram cache
    under tmp_path and returns its exit_code, stdout and stderr."""
    monkeypatch.setenv("W3LAB_CACHE_DIR", str(tmp_path / "cache"))
    return invoke


@pytest.fixture(scope="module")
def shared_runner(tmp_path_factory):
    """``runner`` over one Gram cache for a whole module, for tests whose
    examples (hypothesis) must not rebuild the same Gram each time."""
    cache = str(tmp_path_factory.mktemp("cache"))

    def run(argv) -> CliResult:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("W3LAB_CACHE_DIR", cache)
            return invoke(argv)
    return run
