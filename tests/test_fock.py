import collections
import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kron_reference
from conftest import canonical_pairs
from fock_states import (VACUUM_KEY, key_level, state_apply, state_inner,
                         state_norm, vacuum_state, word_state)
from w3lab import cli, fock, verma
from w3lab.fock import (CutoffExceeded, Realization, RealizationParams,
                        basis_keys, check_automorphism_identity,
                        check_w3_relations, check_weak_symmetry, cyclic_gram,
                        key_norm_sq, rho_coefficient, solve_w_triple,
                        verify_rho_ode, zero_vector_norms)

OM = vacuum_state()
ZERO_VECTORS = ("L-1", "W-1", "W-2")


def params(**kw):
    kw.setdefault("cutoff", 8)
    return RealizationParams(**kw)


# ---------------------------------------------------------------------------
# current modes and the Fock form
# ---------------------------------------------------------------------------

def test_blocks_are_dense_arrays():
    real = Realization(params(kappa=0.7, q1=0.3), "vacuumModified")
    for _ in range(2):  # built, then read back from the cache
        for level, blk in (
                (3, real._block(("W", -2), 3)),
                (2, real._block(("L", 1), 2)),
                (2, real._assemble(-1, [(1.0, "T1k", "1")], 2).dense())):
            lo, hi, m = blk
            assert type(m) is np.ndarray
            assert m.shape == (fock._FOCK.cum(hi + 1) - fock._FOCK.cum(lo),
                               fock._FOCK.dim(level))


def test_combination_family_is_the_cached_sum_of_its_terms():
    cur = fock._Current(0.3, 0.7)
    group = ((0.5, "j2"), (0.7, "jp"), (-2.0, "a"))
    for k, s in ((-2, 1), (0, 2), (1, 3)):
        (levels, rows, cols), vals = cur.entries(group, k, s)
        lo, hi, m = fock._SECTOR.combine(
            (c, cur.block(f, k, s)) for c, f in group)
        got = np.zeros_like(m)
        got[rows + [fock._SECTOR.cum(t) - fock._SECTOR.cum(lo)
                    for t in levels], cols] = vals
        assert np.array_equal(got, m)
        assert len(vals) == np.count_nonzero(m)
        assert lo <= levels.min() and levels.max() <= hi
        assert cur.entries(group, k, s) is cur.entries(group, k, s)
    assert cur.entries(((1.0, "1"),), 1, 2) is None


def test_split_rows_locate_every_split_of_basis_keys():
    """Split (t1, t2) starts where basis_keys puts its first key and holds
    exactly the keys whose parts sum to (t1, t2); the last ends the basis."""
    for top in range(11):
        keys = basis_keys(top)
        start = fock._split_rows(top)
        for t1 in range(top + 1):
            for t2 in range(top + 1 - t1):
                rows = [k for k in keys if (sum(k[0]), sum(k[1])) == (t1, t2)]
                assert keys[start[t1, t2]:start[t1, t2] + len(rows)] == rows
        assert start[top, 0] + len(verma.partitions(top)) == len(keys)


def _assert_blocks_match_the_reference(real, specs):
    """Each block (spec, level) of ``real`` equals the dense Kronecker
    reference to the last bit, and is None exactly when it is."""
    for (kind, n), level in specs:
        got = real._block((kind, n), level)
        want = kron_reference.assemble(real, n, real._fields[kind], level)
        assert (got is None) == (want is None), (kind, n, level)
        if want is not None:
            assert got[:2] == want[:2], (kind, n, level)
            assert np.array_equal(got[2], want[2]), (kind, n, level)


@pytest.mark.parametrize("variant,q1,q2", [
    ("raw", 0.0, 0.0), ("raw", 0.3, -0.5), ("vacuumModified", 0.0, 0.0),
    ("vacuumModified", 0.25, 0.0), ("unitaryFamily", 0.41, 0.153)])
def test_assembly_matches_the_dense_kronecker_reference(variant, q1, q2):
    real = Realization(params(kappa=1.37, q1=q1, q2=q2, cutoff=12), variant)
    _assert_blocks_match_the_reference(
        real, [((kind, n), level) for kind in ("L", "W")
               for n in range(-3, 4) for level in range(7)])


def test_assembly_with_the_shifted_current_matches_the_reference():
    """Sector 1 the current of check_automorphism_identity, whose blocks
    span several levels with complex shifts."""
    for kappa, eta in ((1.3, 0.4j), (0.6, 0.25 + 0.4j)):
        real = Realization(params(kappa=kappa, q2=0.2), "vacuumModified")
        real._currents = (fock._shifted_current(kappa, eta),
                          real._currents[1])
        _assert_blocks_match_the_reference(
            real, [((kind, n), level) for kind in ("L", "W")
                   for n in range(-3, 4) for level in range(7)])


def test_assembly_of_the_level8_gram_modes_matches_the_reference():
    """The creation modes the level-8 cyclic Gram applies, on every
    level they act on."""
    real = Realization(params(kappa=1.78, cutoff=10), "vacuumModified")
    _assert_blocks_match_the_reference(
        real, [((kind, -n), level) for kind in ("L", "W")
               for n in range(1, 9) for level in range(9 - n)])


def test_each_block_is_assembled_once_per_realization(monkeypatch):
    """Across one fz-check sequence (relations, weak symmetry, zero
    vectors) and across a cyclic Gram, each assembly, keyed by its
    realization, mode, field-table rows and level, runs once."""
    calls = collections.Counter()
    assemble = Realization._assemble

    def counted(self, n, rows, level):
        calls[self, n, tuple(rows), level] += 1
        return assemble(self, n, rows, level)

    monkeypatch.setattr(Realization, "_assemble", counted)
    fock._realization.cache_clear()
    p = params(kappa=1.1, cutoff=10)
    check_w3_relations("vacuumModified", p, max_mode_index=3, max_level=4)
    check_weak_symmetry(p, max_mode_index=3, test_level=4)
    zero_vector_norms(p)
    cyclic_gram("vacuumModified", params(kappa=1.1, cutoff=8), 6)
    fock._realization.cache_clear()
    assert len({key[0] for key in calls}) == 2
    assert max(calls.values()) == 1, calls.most_common(3)


def test_current_commutator_on_vacuum():
    real = Realization(params())
    v = state_apply(real, ("a", 1, 1), state_apply(real, ("a", 1, -1), OM))
    assert v == {VACUUM_KEY: 1.0 + 0j}


def test_zero_mode_reads_lowest_weight():
    real = Realization(params(q1=0.7, q2=-0.2))
    assert state_apply(real, ("a", 1, 0), OM) == {VACUUM_KEY: 0.7 + 0j}
    assert state_apply(real, ("a", 2, 0), OM) == {VACUUM_KEY: -0.2 + 0j}


def test_annihilation_of_vacuum():
    assert state_apply(Realization(params()), ("a", 2, 3), OM) == {}


def test_heisenberg_relations_on_states():
    p = params(q1=0.3, q2=0.9)
    real = Realization(p, "raw")
    rng = random.Random(8)
    keys = basis_keys(4)
    for _ in range(40):
        key = rng.choice(keys)
        v = {key: 1.0 + 0j}
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)
        j1 = rng.choice((1, 2))
        j2 = rng.choice((1, 2))
        a = state_apply(real, ("a", j1, m), state_apply(real, ("a", j2, n), v))
        b = state_apply(real, ("a", j2, n), state_apply(real, ("a", j1, m), v))
        r = {k: a.get(k, 0j) - b.get(k, 0j) for k in set(a) | set(b)}
        if j1 == j2 and m + n == 0 and m != 0:
            r[key] = r.get(key, 0j) - m
        assert max((abs(x) for x in r.values()), default=0.0) < 1e-12


def test_fock_form_hermitian_and_norms():
    # <a_{-n} u, v> = <u, a_n v> and the diagonal norm formula
    p = params()
    real = Realization(p, "raw")
    rng = random.Random(41)
    keys = basis_keys(4)
    for _ in range(30):
        ku, kv = rng.choice(keys), rng.choice(keys)
        u, v = {ku: 1.0 + 0j}, {kv: 1.0 + 0j}
        n = rng.randint(1, 3)
        j = rng.choice((1, 2))
        lhs = state_inner(state_apply(real, ("a", j, -n), u), v)
        rhs = state_inner(u, state_apply(real, ("a", j, n), v))
        assert abs(lhs - rhs) < 1e-12
    assert key_norm_sq(((3, 1, 1), ())) == 3.0 * 1.0 * 1.0 * 2
    assert key_norm_sq(((), (2, 2, 2))) == 2.0 ** 3 * 6


def test_grading_exactness_and_cutoff():
    p = params(cutoff=5)
    real = Realization(p, "raw")
    for n in (-2, 0, 1, 3):
        for spec in (("a", 1, n), ("j2", 2, n), ("j3", 2, n)):
            op_out = state_apply(real, spec, {((2, 1), (1,)): 1.0})
            for k in op_out:
                assert key_level(k) == 4 - n


# ---------------------------------------------------------------------------
# normal powers
# ---------------------------------------------------------------------------

def test_normal_square_zero_mode_is_half_q_squared():
    real = Realization(params(q1=0.6))
    out = state_apply(real, ("j2", 1, 0), OM)
    assert abs(out[VACUUM_KEY] - 0.36) < 1e-14
    for n in (1, 2, 5):
        assert state_apply(real, ("j2", 1, n), OM) == {}


def test_normal_cube_zero_mode_is_q_cubed():
    out = state_apply(Realization(params(q2=-0.8)), ("j3", 2, 0), OM)
    assert abs(out[VACUUM_KEY] - (-0.512)) < 1e-14


def _brute_normal_product(real, which, indices, state):
    """Normal-ordered product with creators applied last, annihilators first."""
    ordered = sorted(indices)  # annihilators (largest) must act first
    out = dict(state)
    for idx in reversed(ordered):
        out = state_apply(real, ("a", which, idx), out)
        if not out:
            return {}
    return out


def test_normal_powers_against_brute_force():
    """(:J^p:)_N = sum over mode tuples of the normally ordered product."""
    p = params(q1=0.45)
    real = Realization(p, "raw")
    rng = random.Random(6)
    keys = basis_keys(3)
    for key in rng.sample(keys, 6):
        lev = key_level(key)
        v = {key: 1.0 + 0j}
        for N in range(-2, 3):
            # quadratic
            expect = {}
            for k in range(-lev - abs(N) - 2, lev + abs(N) + 3):
                d = _brute_normal_product(real, 1, (k, N - k), v)
                for kk, cc in d.items():
                    expect[kk] = expect.get(kk, 0j) + cc
            got = state_apply(real, ("j2", 1, N), v)
            allk = set(expect) | set(got)
            assert max((abs(expect.get(k, 0j) - got.get(k, 0j))
                        for k in allk), default=0.0) < 1e-12


def test_single_current_canonical_virasoro_c1():
    """Half the normal square is a Virasoro field with central charge 1."""
    p = params(q1=0.25, cutoff=8)
    real = Realization(p, "raw")
    keys = basis_keys(2)
    def L(n, v):
        d = state_apply(real, ("j2", 1, n), v)
        return {k: 0.5 * c for k, c in d.items()}
    for m in range(-2, 3):
        for n in range(-2, 3):
            for key in keys:
                v = {key: 1.0 + 0j}
                lhs = {}
                for k, c in L(n, v).items():
                    for k2, c2 in L(m, {k: 1.0}).items():
                        lhs[k2] = lhs.get(k2, 0j) + c * c2
                for k, c in L(m, v).items():
                    for k2, c2 in L(n, {k: 1.0}).items():
                        lhs[k2] = lhs.get(k2, 0j) - c * c2
                for k, c in L(m + n, v).items():
                    lhs[k] = lhs.get(k, 0j) - (m - n) * c
                if m + n == 0:
                    lhs[key] = lhs.get(key, 0j) - m * (m * m - 1) / 12.0
                assert max((abs(x) for x in lhs.values()), default=0.0) < 1e-12


# ---------------------------------------------------------------------------
# rho expansion
# ---------------------------------------------------------------------------

def test_rho_coefficients():
    assert rho_coefficient(0) == 1j
    assert rho_coefficient(-1) == -2j
    assert rho_coefficient(2) == 0
    assert rho_coefficient(-2) == 2j and rho_coefficient(1) == 0


def test_rho_ode_exact():
    res = verify_rho_ode(20)
    assert res[0] == 0
    assert res[-5] == 0
    assert all(v == 0 for v in res.values())
    with pytest.raises(ValueError):
        verify_rho_ode(1)


def test_rho_ode_checks_the_coefficients_in_use(monkeypatch):
    # rho_{-1} = -2i is right; +2i breaks the ODE at modes -1 and below.
    # rho_{-3} off by 1% breaks it too, though -2.02 truncates to -2
    for wrong in ({-1: 2j}, {-3: 1.01 * rho_coefficient(-3)}):
        monkeypatch.setattr(fock, "rho_coefficient",
                            lambda n: wrong.get(n, rho_coefficient(n)))
        assert max(abs(v) for v in verify_rho_ode(20).values()) > 0


# ---------------------------------------------------------------------------
# realized fields: lowest weight data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["raw", "vacuumModified", "unitaryFamily"])
def test_lowest_weight_eigenvalues(variant):
    p = params(kappa=0.75, q1=0.4, q2=-0.6)
    h, w = p.lowest_weights(variant)
    real = Realization(p, variant)
    tv, mv = state_apply(real, ("L", 0), OM), state_apply(real, ("W", 0), OM)
    assert abs(tv.get(VACUUM_KEY, 0j) - h) < 1e-12
    assert abs(mv.get(VACUUM_KEY, 0j) - w) < 1e-12
    assert all(k == VACUUM_KEY for k in tv)
    assert all(k == VACUUM_KEY for k in mv)
    # positive modes annihilate the lowest weight vector
    for n in (1, 2, 3):
        assert state_apply(real, ("L", n), OM) == {}
        assert state_apply(real, ("W", n), OM) == {}


def test_unitary_family_weights_match_formula():
    p = params(kappa=1.2, q1=0.5, q2=0.9)
    h, w = p.lowest_weights("unitaryFamily")
    assert abs(h - (0.125 + 0.405 + 0.72)) < 1e-12
    b = p.b
    expect_w = b * (0.9 ** 3 - 3 * 0.25 * 0.9) / (3 * math.sqrt(2))
    assert abs(w - expect_w) < 1e-12


def test_zero_vectors_vanish_at_vacuum():
    for kap in (0.0, 0.5, 1.0, 3.0):
        norms = zero_vector_norms(params(kappa=kap))
        assert max(norms[k] for k in ZERO_VECTORS) < 1e-12


def test_zero_vectors_survive_at_nonzero_weight():
    norms = zero_vector_norms(params(kappa=1.0, q2=0.7))
    assert max(norms[k] for k in ZERO_VECTORS) > 1e-3


def test_zero_vector_norms_match_the_dict_reference():
    for kap, q1, q2 in ((1.0, 0.4, 0.7), (0.6, -0.3, 0.9), (2.5, 0.8, -0.2)):
        p = params(kappa=kap, q1=q1, q2=q2)
        real = Realization(p, "vacuumModified")
        norms = zero_vector_norms(p)
        for f, n in (("L", -1), ("W", -1), ("W", -2)):
            want = state_norm(state_apply(real, (f, n), vacuum_state()))
            assert want > 1e-3
            assert abs(norms[f"{f}{n}"] - want) <= 1e-14 * max(1.0, want)


# ---------------------------------------------------------------------------
# algebra relations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["raw", "vacuumModified", "unitaryFamily"])
@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_w3_relations_small(variant, kappa):
    p = params(kappa=kappa, q1=0.3, q2=0.5, cutoff=6)
    rep = check_w3_relations(variant, p, max_mode_index=2, max_level=2)
    assert rep["maxResidual"] < 1e-9
    assert rep["centralCharge"]["error"] < 1e-9


@pytest.mark.parametrize("variant,kappa,q1,q2", [
    ("raw", 1.222, 0.0, 0.0), ("vacuumModified", 2.74, 0.0, 0.0),
    ("unitaryFamily", 2.201, 0.41, 0.153)])
def test_benchmark_sized_sweep_passes_the_cli_bound(variant, kappa, q1, q2):
    """The sweep fz-check runs in the fock_sweep benchmark: max-mode 3,
    max-level 4, cutoff 10."""
    p = params(kappa=kappa, q1=q1, q2=q2, cutoff=10)
    rep = check_w3_relations(variant, p, max_mode_index=3, max_level=4)
    assert rep["maxResidual"] <= cli._bound(rep["scale"])
    cc = rep["centralCharge"]
    assert cc["error"] <= cli._bound(abs(cc["expected"]))


@pytest.mark.parametrize("variant", fock.VARIANTS)
def test_swapped_pair_residual_is_the_exact_negative(variant):
    """check_w3_relations visits each unordered LL and WW pair once: the
    residual block of (n, m) is that of (m, n) negated, to the last bit,
    so the one it skips changes neither the worst residual nor the scale."""
    p = params(kappa=1.3, q1=0.2, q2=-0.4, cutoff=10)
    real = Realization(p, variant)
    ring = verma.Ring(1.0, 0.0, p.central_charge, 0.0, 0.0, p.b ** 2, float)

    def residual(x, m, n, lev):
        terms = [(1, fock._FOCK.compose(partial(real._block, (x, m)),
                                        fock._field(real, x, n, lev))),
                 (-1, fock._FOCK.compose(partial(real._block, (x, n)),
                                         fock._field(real, x, m, lev)))]
        terms += [(-c, fock._field(real, kind, idx, lev))
                  for c, kind, idx in verma.bracket(x, m, x, n, ring)]
        return fock._FOCK.combine(terms)

    for x in ("L", "W"):
        for m, n, lev in ((-3, 2, 1), (1, -1, 2), (-2, 0, 3), (3, -3, 0)):
            a, b = residual(x, m, n, lev), residual(x, n, m, lev)
            assert a[:2] == b[:2]
            assert np.array_equal(a[2], -b[2])
            assert a[2].size > 0


def test_w3_relations_guard():
    with pytest.raises(CutoffExceeded):
        check_w3_relations("raw", params(cutoff=4), 3, 3)


def test_commutator_example_l1_lminus1():
    p = params(kappa=1.0)
    real = Realization(p, "vacuumModified")
    v1 = state_apply(real, ("L", 1), state_apply(real, ("L", -1), OM))
    v2 = state_apply(real, ("L", -1), state_apply(real, ("L", 1), OM))
    l0 = state_apply(real, ("L", 0), OM)
    r = dict(v1)
    for k, c in v2.items():
        r[k] = r.get(k, 0j) - c
    for k, c in l0.items():
        r[k] = r.get(k, 0j) - 2 * c
    assert max((abs(x) for x in r.values()), default=0.0) < 1e-10


def test_central_term_vacuum_expectation():
    for kappa in (0.0, 0.7, 1.0):
        p = params(kappa=kappa)
        rep = check_w3_relations("vacuumModified", p, 1, 1)
        assert abs(rep["centralCharge"]["extracted"]
                   - (2 + 12 * kappa ** 2)) < 1e-9


# ---------------------------------------------------------------------------
# automorphism identity
# ---------------------------------------------------------------------------

def test_automorphism_identity_trivial():
    rep = check_automorphism_identity(0.0, 0j, 3, 2, cutoff=9)
    assert rep["maxResidual"] == 0.0


def test_automorphism_identity_zero_mode_shift():
    # kappa=1, eta=0 on the vacuum: both sides produce the 1/2 shift
    kappa = 1.0
    shifted = fock._Current(0.0, kappa, lambda n: kappa * rho_coefficient(n))
    lo, hi, m = shifted.block("T1k", 0, 0)
    assert (lo, hi) == (0, 0)
    assert abs(m[0, 0] - 0.5) < 1e-14


def test_automorphism_identity_guards_the_cutoff():
    # mode -3 takes level 2 to level 5
    with pytest.raises(CutoffExceeded):
        check_automorphism_identity(0.5, 0j, 3, 2, cutoff=4)
    rep = check_automorphism_identity(0.5, 0j, 3, 2, cutoff=5)
    assert rep["maxResidual"] < 1e-10


@pytest.mark.parametrize("kappa,eta", [(1.0, 0j), (0.5, 0.5j),
                                       (1.5, 0.25 + 0.4j)])
def test_automorphism_identity_general(kappa, eta):
    rep = check_automorphism_identity(kappa, eta, 3, 2, cutoff=9)
    assert rep["maxResidual"] < 1e-10


# ---------------------------------------------------------------------------
# weak symmetry
# ---------------------------------------------------------------------------

def test_weak_symmetry_constrained_combinations():
    rep = check_weak_symmetry(params(kappa=1.0), max_mode_index=3,
                              test_level=2)
    assert rep["maxPairDefect"] < 1e-9
    assert rep["maxTripleDefect"] < 1e-9
    assert rep["unpairedControlDefect"] > 1e-3


def test_weak_symmetry_fully_symmetric_at_kappa_zero():
    rep = check_weak_symmetry(params(kappa=0.0), max_mode_index=3,
                              test_level=2)
    assert rep["unpairedControlDefect"] < 1e-12


def test_weak_symmetry_holds_at_general_real_weights():
    rep = check_weak_symmetry(params(kappa=1.0, q1=0.4, q2=0.7),
                              max_mode_index=3, test_level=2)
    assert rep["maxPairDefect"] < 1e-9
    assert rep["maxTripleDefect"] < 1e-9
    assert rep["unpairedControlDefect"] > 1e-3


def test_weak_symmetry_guards_the_cutoff(monkeypatch):
    # modes up to +-3 take level 4 to level 7; no block is built past the guard
    monkeypatch.setattr(Realization, "_block",
                        lambda *args: pytest.fail("a block was built"))
    for cutoff in (2, 6):
        with pytest.raises(CutoffExceeded):
            check_weak_symmetry(params(kappa=1.0, cutoff=cutoff), 3, 4)
    monkeypatch.undo()
    rep = check_weak_symmetry(params(kappa=1.0, cutoff=7), 3, 4)
    assert rep["maxPairDefect"] < 1e-9


def test_w_triple_solver():
    for (n1, n2, n3) in [(1, 0, -1), (3, 1, -2), (2, -1, -3)]:
        u, d = solve_w_triple(n1, n2, n3)
        s = (-1.0) ** n1 + (-1.0) ** n2 * u + (-1.0) ** n3 * d
        sp = ((-1.0) ** n1 * n1 + (-1.0) ** n2 * n2 * u
              + (-1.0) ** n3 * n3 * d)
        assert abs(s) < 1e-12 and abs(sp) < 1e-12
    with pytest.raises(ValueError):
        solve_w_triple(1, 1, 2)


# ---------------------------------------------------------------------------
# cyclic Gram matrices
# ---------------------------------------------------------------------------

def test_cyclic_gram_vacuum_psd_kappa0():
    cg = cyclic_gram("vacuumModified", params(kappa=0.0, cutoff=6), 2)
    assert cg.eigenvalues.min() > -1e-10


def test_cyclic_gram_vacuum_psd_kappa1():
    cg = cyclic_gram("vacuumModified", params(kappa=1.0, cutoff=7), 4)
    assert cg.eigenvalues.min() > -1e-8


def test_cyclic_gram_needs_cutoff_at_its_level():
    with pytest.raises(CutoffExceeded):
        cyclic_gram("vacuumModified", params(cutoff=2), 3)


def test_overflowed_cyclic_gram_has_nan_eigenvalues():
    # kappa^2 is finite, but the level-2 vectors square it again
    with np.errstate(over="ignore", invalid="ignore"):
        cg = cyclic_gram("vacuumModified", params(kappa=1e150, cutoff=4), 2)
    assert len(cg.eigenvalues) == len(cg.words)
    assert np.isnan(cg.eigenvalues).all()


def test_unknown_variant_is_refused():
    with pytest.raises(ValueError):
        Realization(params(), "bogus")
    with pytest.raises(ValueError):
        cyclic_gram("bogus", params(), 2)


def test_cross_oracle_agreement_single_point():
    kap, q1, q2 = 1.0, 0.0, 1.0
    p = params(kappa=kap, q1=q1, q2=q2, cutoff=7)
    cg = cyclic_gram("unitaryFamily", p, 3)
    assert cg.eigenvalues.min() > -1e-10  # manifestly unitary family
    h, w = p.lowest_weights("unitaryFamily")
    c = p.central_charge
    for got, exact in canonical_pairs(cg, c, h.real, w.real):
        assert abs(got - exact) <= 1e-8 * max(1.0, abs(exact), abs(got))


def test_vacuum_cyclic_gram_is_the_canonical_form():
    """At q = 0 the twisted realization's form on the cyclic subspace is
    invariant, so by universality its Gram must equal the canonical one at
    (c, 0, 0) -- even though the twisted fields are not symmetric on the
    full space."""
    for kap in (0.5, 1.0):
        p = params(kappa=kap, cutoff=7)
        cg = cyclic_gram("vacuumModified", p, 4)
        c = p.central_charge
        for got, exact in canonical_pairs(cg, c, 0.0, 0.0):
            assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


def test_nonvacuum_twisted_form_is_not_the_canonical_one():
    """At q != 0 the ambient Fock form is still positive definite, so the
    cyclic Gram is PSD -- but it no longer coincides with the canonical
    invariant form, whose level-1 block is indefinite at these weights.
    PSD-ness of the twisted Gram therefore witnesses unitarity only at the
    vacuum, where the coincidence holds."""
    p = params(kappa=1.0, q1=0.0, q2=0.5, cutoff=7)
    h, w = p.lowest_weights("vacuumModified")
    c = p.central_charge
    # the canonical form at these weights is indefinite already at level 1
    from w3lab.classify import f11
    from fractions import Fraction
    assert f11(Fraction(h.real), Fraction(c)) - Fraction(w.real) ** 2 < 0
    cg = cyclic_gram("vacuumModified", p, 2)
    assert cg.eigenvalues.min() > 0  # ambient positivity
    mismatch = 0.0
    for got, exact in canonical_pairs(cg, c, h.real, w.real):
        mismatch = max(mismatch, abs(got - exact))
    assert mismatch > 1e-2


def test_cross_oracle_agreement_level4():
    p = params(kappa=0.6, q1=0.3, q2=-0.9, cutoff=7)
    cg = cyclic_gram("unitaryFamily", p, 4)
    h, w = p.lowest_weights("unitaryFamily")
    c = p.central_charge
    for got, exact in canonical_pairs(cg, c, h.real, w.real):
        assert abs(got - exact) <= 1e-8 * max(1.0, abs(exact), abs(got))


def test_virasoro_only_gram_block_diagonal_across_levels():
    """Twisted single-current stress tensor: cross-level Gram entries vanish."""
    for kap in (0.5, 1.0):
        p = params(kappa=kap, cutoff=7)
        real = Realization(p, "vacuumModified")
        words = [w for lev in range(4) for w in verma.enumerate_basis(lev)
                 if not w.wpart]
        vecs = []
        for w in words:
            v = vacuum_state()
            for m in reversed(w.lpart):
                v = state_apply(real, ("T1k", -m), v)
            vecs.append((w.level, v))
        for (la, va) in vecs:
            for (lb, vb) in vecs:
                if la != lb:
                    assert abs(state_inner(va, vb)) < 1e-10


def test_q2_flip_leaves_spectrum_invariant():
    # q2 -> -q2 is the automorphism J2 -> -J2, which flips the sign of W
    base = params(kappa=0.8, q1=0.3, q2=0.7, cutoff=6)
    flipped = params(kappa=0.8, q1=0.3, q2=-0.7, cutoff=6)
    for variant in fock.VARIANTS:
        g1 = cyclic_gram(variant, base, 3)
        g2 = cyclic_gram(variant, flipped, 3)
        assert np.allclose(g1.eigenvalues, g2.eigenvalues, atol=1e-10)
        # entries agree up to the diagonal sign flip on odd-W words
        for level, (b1, b2) in enumerate(zip(g1.blocks, g2.blocks)):
            signs = np.array([(-1.0) ** len(w.wpart)
                              for w in verma.enumerate_basis(level)])
            assert np.allclose(b1, signs[:, None] * b2 * signs[None, :],
                               atol=1e-10), (variant, level)


def test_word_state_matches_mode_composition():
    p = params(kappa=0.5, q2=0.4, cutoff=6)
    real = Realization(p, "unitaryFamily")
    w = verma.ModeWord((1, 2), (1,))
    v = word_state(real, w)
    manual = state_apply(real, 
        ("L", -1), state_apply(real, 
            ("L", -2), state_apply(real, ("W", -1), vacuum_state())))
    allk = set(v) | set(manual)
    assert max((abs(v.get(k, 0j) - manual.get(k, 0j)) for k in allk),
               default=0.0) < 1e-12


def test_cyclic_gram_matches_pairwise_fock_form():
    """Each level block V_N^H diag(norm^2) V_N equals the dict-state loop
    over the level-N word pairs.  The pairs across levels, which
    ``cyclic_gram`` never forms, vanish for raw and unitaryFamily at
    nonzero charges and for vacuumModified at the vacuum; vacuumModified
    off the vacuum is the control, where they do not."""
    charged = dict(q1=0.2, q2=-0.3)
    for variant, charges, across in (("raw", charged, False),
                                     ("unitaryFamily", charged, False),
                                     ("vacuumModified", {}, False),
                                     ("vacuumModified", charged, True)):
        p = params(kappa=0.9, cutoff=7, **charges)
        cg = cyclic_gram(variant, p, 4)
        real = Realization(p, variant)
        vecs = [word_state(real, w) for w in cg.words]
        loop = np.array([[state_inner(u, v) for v in vecs] for u in vecs])
        levels = np.array([w.level for w in cg.words])
        for level, block in enumerate(cg.blocks):
            same = levels == level
            assert np.allclose(block, loop[np.ix_(same, same)],
                               rtol=1e-12, atol=1e-12), (variant, level)
        cross = np.abs(loop[levels[:, None] != levels[None, :]]).max()
        largest = np.abs(loop).max()
        if across:
            assert cross > 1e-2 * largest, variant
        else:
            assert cross <= 1e-12 * largest, (variant, charges)


def test_weak_symmetry_control_matches_pairwise_fock_form():
    """The matrix defect of the bare L_n equals the dict-state loop
    max |<L_-n u, v> - <u, L_n v>| over the orthonormalized basis."""
    p = params(kappa=1.0, cutoff=8)
    real = Realization(p, "vacuumModified")
    vecs = [{k: 1.0 / math.sqrt(key_norm_sq(k))} for k in basis_keys(2)]
    loop = max(abs(state_inner(state_apply(real, ("L", -n), u), v)
                   - state_inner(u, state_apply(real, ("L", n), v)))
               for n in (1, 2) for u in vecs for v in vecs)
    rep = check_weak_symmetry(p, max_mode_index=2, test_level=2)
    assert loop > 1e-3
    assert abs(rep["unpairedControlDefect"] - loop) < 1e-12


def test_vacuum_gram_rank_is_the_w3_vacuum_character():
    """The level-6 vacuum cyclic Gram has one positive eigenvalue per state
    of the W3 vacuum module: sum over n <= 6 of the coefficients ch_n of
    prod_{n>=2} (1-q^n)^-1 prod_{n>=3} (1-q^n)^-1, and ch_N of them in the
    level-N block."""
    level = 6
    coeffs = [1] + [0] * level
    for first in (2, 3):
        for part in range(first, level + 1):
            for n in range(part, level + 1):
                coeffs[n] += coeffs[n - part]
    for kap in (0.0, 1.78):
        cg = cyclic_gram("vacuumModified", params(kappa=kap, cutoff=8), level)
        assert len(cg.words) == 139
        eigs = cg.eigenvalues
        assert np.count_nonzero(eigs > 1e-9 * eigs.max()) == sum(coeffs)
        ranks = [np.count_nonzero(np.linalg.eigvalsh(b) > 1e-9 * eigs.max())
                 for b in cg.blocks]
        assert ranks == coeffs, kap


def test_non_finite_coefficients_are_never_pruned():
    p = params(q1=float("nan"))
    real = Realization(p, "raw")
    # the first read builds the block, the second decodes the stored copy
    for _ in range(2):
        assert math.isnan(real._block(("L", 0), 0)[2][0, 0].real)
    out = state_apply(real, ("a", 1, 0), OM)
    assert math.isnan(out[VACUUM_KEY].real)
    rep = check_w3_relations("raw", p, max_mode_index=1, max_level=1)
    assert math.isnan(rep["maxResidual"])


@settings(max_examples=20, deadline=None)
@given(kappa=st.floats(0.0, 3.0), q1=st.floats(-1.0, 1.0),
       q2=st.floats(-1.0, 1.0))
def test_w3_relations_hold_for_random_parameters(kappa, q1, q2):
    p = params(kappa=kappa, q1=q1, q2=q2, cutoff=6)
    for variant in ("raw", "vacuumModified", "unitaryFamily"):
        rep = check_w3_relations(variant, p, max_mode_index=2, max_level=2)
        assert rep["maxResidual"] < 1e-9
