"""Fock vectors as dicts: the reference the block engine is compared against.

A State maps bicolored-partition keys to complex coefficients.  A mode acts
on it level by level through the realization's blocks, and the result is
pruned below PRUNE_TOL, so the cyclic-Gram, weak-symmetry and zero-vector
tests can recompute the matrix results of ``w3lab.fock`` one vector pair at
a time.  Besides the fields ("L" | "W", n), a spec may name one current's
mode family: ("a" | "j2" | "j3", current, n) or ("T1k", n), the twisted
stress tensor of current 1.
"""

import math
from functools import lru_cache
from typing import Dict

import numpy as np

from w3lab.fock import _FOCK, BiKey, key_norm_sq, level_keys
from w3lab.verma import _leading

PRUNE_TOL = 1e-14

State = Dict[BiKey, complex]

VACUUM_KEY: BiKey = ((), ())


@lru_cache(maxsize=None)
def _level_index(level: int) -> Dict[BiKey, int]:
    return {k: i for i, k in enumerate(level_keys(level))}


def key_level(key: BiKey) -> int:
    return sum(key[0]) + sum(key[1])


def state_inner(u: State, v: State) -> complex:
    """Hermitian Fock form, conjugate-linear in the first argument."""
    return sum((u[k].conjugate() * v[k] * key_norm_sq(k)
                for k in u.keys() & v.keys()), start=0j)


def state_norm(u: State) -> float:
    return math.sqrt(max(state_inner(u, u).real, 0.0))


def state_prune(u: State) -> State:
    """Drop entries below PRUNE_TOL; non-finite entries are kept."""
    return {k: c for k, c in u.items() if not abs(c) < PRUNE_TOL}


def vacuum_state() -> State:
    return {VACUUM_KEY: 1.0 + 0j}


def _mode_block(real, spec, level):
    """The block of a mode spec on V_level; a single-current spec is
    assembled from one field-table row."""
    kind, n = spec[0], spec[-1]
    if kind in ("L", "W"):
        return real._block(spec, level)
    if kind == "T1k":
        row = (1.0, "T1k", "1")
    else:
        row = (1.0, kind, "1") if spec[1] == 1 else (1.0, "1", kind)
    blk = real._assemble(n, [row], level)
    return None if blk is None else blk.dense()


def state_apply(real, spec, state: State) -> State:
    """The mode ``spec`` of the realization ``real`` applied to a state."""
    by_level: Dict[int, State] = {}
    for key, coef in state.items():
        by_level.setdefault(key_level(key), {})[key] = coef
    out: State = {}
    for level, part in by_level.items():
        index = _level_index(level)
        x = np.zeros((len(index), 1), dtype=complex)
        for key, coef in part.items():
            x[index[key], 0] += coef
        blk = _FOCK.compose(lambda u: _mode_block(real, spec, u),
                            (level, level, x))
        if blk is None:
            continue
        keys = [k for t in range(blk[0], blk[1] + 1) for k in level_keys(t)]
        for i in np.flatnonzero(blk[2][:, 0]):
            out[keys[i]] = out.get(keys[i], 0j) + complex(blk[2][i, 0])
    return state_prune(out)


def word_state(real, word) -> State:
    """The realized vector for an ordered mode word (rightmost mode first)."""
    if not word.lpart and not word.wpart:
        return vacuum_state()
    gen, n, rest = _leading(word)
    return state_apply(real, (gen, n), word_state(real, rest))
