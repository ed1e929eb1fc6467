import pytest

from w3lab import verma


@pytest.fixture(scope="session")
def grams():
    """Symbolic Gram matrices for levels 0..3, shared across the suite."""
    return {n: verma.gram_matrix(n) for n in range(4)}


@pytest.fixture(scope="session")
def engine():
    """One symbolic rewriting engine, so its memo is shared across tests."""
    return verma.Engine()
