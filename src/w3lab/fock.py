"""Truncated two-current Fock space and the free-field realizations.

Everything here is numeric (complex doubles): b and sqrt(2) are irrational,
so exactness lives on the symbolic side and agreement between the two sides
is the correctness argument.

Conventions: shifted fields everywhere, i.e. mode n of a field multiplies
z^{-n}; the circle derivative carries -i*n per mode; the two currents commute
and their common lowest weight vector has a_{[j],0} eigenvalue q_j.

The twist function rho(z) = -i(z-1)/(z+1), expanded around z = 0, has modes
rho_0 = i, rho_n = 2i(-1)^n for n < 0 and 0 for n > 0, and satisfies
rho^2/2 + 1/2 - rho' = 0; that identity is what makes the twisted stress
tensor close the Virasoro relations with c shifted upward.

Block engine.  The space V_l of total level l is the sum over splits
l = l1 + l2 of P(l1) (x) P(l2), P(n) the partitions of n, sector-1-major as
in ``basis_keys``.  A mode-n operator is stored per source level s as a block
(lo, hi, M): M is a dense numpy array that maps V_s into levels lo..hi
stacked, hi = s - n (the rho twist and the automorphism shift land below
s - n).  Each current builds its mode families (a, J', J'', :J^2:, :J^3:,
rho, rho', T1k) as small matrices on its own levels; ``field_table`` writes
L and W as rows (coefficient, sector-1 family, sector-2 family) whose mode n
is sum_k F1_k (x) F2_{n-k}, one Kronecker product per term.  Blocks are
built lazily and cached per (field, mode, source level);
``Realization._block`` keeps each two-current block as its nonzero triples
(1-5% of the entries) and hands out a dense array on every read.  Mode sums
are finite and exact: annihilation above a level kills it and the twist
coefficients vanish for positive indices.

The W3 relations the realized modes must satisfy are not restated here:
``check_w3_relations`` reads the bracket table and the Lambda_s collapse of
``verma`` over a float Ring, the same table the exact rewriting engine uses,
so the sweep checks that one table against the free-field realization.

The cutoff is a contract guard, not a truncation: ``check_w3_relations``,
``check_automorphism_identity`` and ``cyclic_gram`` raise CutoffExceeded for
sweeps that would need levels above it.  The blocks are exact at every level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .verma import (ModeWord, Ring, _leading, bracket, enumerate_basis,
                    lambda_terms, partitions)

VARIANTS = ("raw", "vacuumModified", "unitaryFamily")

BiKey = Tuple[Tuple[int, ...], Tuple[int, ...]]
# (lowest target level, highest target level, stacked matrix)
Block = Tuple[int, int, np.ndarray]


class CutoffExceeded(RuntimeError):
    """An operator image would land above the configured level cutoff."""


# ---------------------------------------------------------------------------
# rho expansion
# ---------------------------------------------------------------------------

def rho_coefficient(n: int) -> complex:
    if n > 0:
        return 0j
    if n == 0:
        return 1j
    return -2j if n % 2 else 2j


def rho_prime_coefficient(n: int) -> complex:
    # circle derivative: mode n picks up -i*n
    return -1j * n * rho_coefficient(n)


def verify_rho_ode(max_order: int) -> Dict[int, Fraction]:
    """Residuals of rho^2/2 + 1/2 - rho' per mode, in exact arithmetic.

    rho_n = i * r_n with integer r_n, read off ``rho_coefficient`` (the one
    the realizations use), so the mode-n residual is
    -S_n/2 + delta_{n,0}/2 - n*r_n with S_n = sum_k r_k r_{n-k}; everything
    stays in Q.
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    def r(k: int) -> int:
        return int(rho_coefficient(k).imag)
    out: Dict[int, Fraction] = {}
    for n in range(-max_order, max_order + 1):
        s = sum(r(k) * r(n - k) for k in range(n, 1))
        out[n] = Fraction(-s, 2) + (Fraction(1, 2) if n == 0 else 0) - n * r(n)
    return out


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def level_keys(level: int) -> Tuple[BiKey, ...]:
    """The bicolored-partition keys of one total level, sector-1-major."""
    return tuple((p1, p2) for l1 in range(level + 1)
                 for p1 in partitions(l1) for p2 in partitions(level - l1))


@lru_cache(maxsize=None)
def _sector_index(level: int) -> Dict[Tuple[int, ...], int]:
    return {p: i for i, p in enumerate(partitions(level))}


@lru_cache(maxsize=None)
def _split_offsets(level: int) -> Tuple[int, ...]:
    """Row offset of the split (l1, level - l1) inside V_level, for each l1."""
    return tuple(itertools.accumulate(
        (len(partitions(l1)) * len(partitions(level - l1))
         for l1 in range(level + 1)), initial=0))


@lru_cache(maxsize=None)
def level_norms(level: int) -> np.ndarray:
    """Fock norms squared of the basis vectors of V_level (read-only)."""
    out = np.array([key_norm_sq(k) for k in level_keys(level)])
    out.setflags(write=False)
    return out


def _norms_upto(top: int) -> np.ndarray:
    """Fock norms, not squared, of the basis vectors of V_0 + ... + V_top."""
    return np.sqrt(np.concatenate([level_norms(t) for t in range(top + 1)]))


def basis_keys(max_level: int) -> List[BiKey]:
    """All bicolored-partition keys of level <= max_level, ordered."""
    return [k for lev in range(max_level + 1) for k in level_keys(lev)]


def key_norm_sq(key: BiKey) -> float:
    """Norm squared of a bicolored-partition basis vector.

    Each sector contributes prod over distinct parts p: p^mult * mult!.
    """
    out = 1.0
    for part in key:
        for p, group in itertools.groupby(part):
            mult = len(list(group))
            out *= float(p) ** mult * math.factorial(mult)
    return out


# ---------------------------------------------------------------------------
# graded blocks
# ---------------------------------------------------------------------------

class _Sparse:
    """How ``Realization._block`` stores a two-current block (lo, hi, M): M
    as its nonzero (row, column, value) triples, 1-5% of its entries."""

    def __init__(self, blk: Block):
        self.lo, self.hi, m = blk
        self.shape = m.shape
        self.rows, self.cols = np.nonzero(m)
        self.vals = m[self.rows, self.cols]

    def dense(self) -> Block:
        m = np.zeros(self.shape, dtype=complex)
        m[self.rows, self.cols] = self.vals
        return self.lo, self.hi, m


class _Graded:
    """A level-graded space given by the dimension of each level."""

    def __init__(self, dim: Callable[[int], int]):
        self.dim = dim
        self._cum = [0]

    def cum(self, level: int) -> int:
        """Total dimension of the levels below ``level``."""
        while len(self._cum) <= level:
            self._cum.append(self._cum[-1] + self.dim(len(self._cum) - 1))
        return self._cum[level]

    def combine(self, terms: Iterable[Tuple[complex, Optional[Block]]]
                ) -> Optional[Block]:
        """sum c * block over blocks with the same columns; None is zero."""
        terms = [(c, b) for c, b in terms if b is not None and c != 0]
        if not terms:
            return None
        lo = min(b[0] for _, b in terms)
        hi = max(b[1] for _, b in terms)
        base = self.cum(lo)
        out = np.zeros((self.cum(hi + 1) - base, terms[0][1][2].shape[1]),
                       dtype=complex)
        for c, (blo, bhi, m) in terms:
            out[self.cum(blo) - base:self.cum(bhi + 1) - base] += (
                m if c == 1 else c * m)
        return lo, hi, out

    def compose(self, op: Callable[[int], Optional[Block]],
                blk: Optional[Block]) -> Optional[Block]:
        """The operator with blocks op(level) applied to the columns of blk."""
        if blk is None:
            return None
        lo, hi, m = blk
        base = self.cum(lo)
        parts = []
        for u in range(lo, hi + 1):
            rows = m[self.cum(u) - base:self.cum(u + 1) - base]
            ob = op(u) if rows.any() else None
            if ob is not None:
                parts.append((1, (ob[0], ob[1], ob[2] @ rows)))
        return self.combine(parts)

    def rows_upto(self, blk: Block, top: int) -> Tuple[slice, np.ndarray]:
        """Where blk's rows of levels <= top sit in V_0 + ... + V_top."""
        lo, hi, m = blk
        hi = max(min(hi, top), lo - 1)
        base = self.cum(lo)
        return slice(base, self.cum(hi + 1)), m[:self.cum(hi + 1) - base]


_SECTOR = _Graded(lambda level: len(partitions(level)))
_FOCK = _Graded(lambda level: len(level_keys(level)))


def _max_abs(blk: Optional[Block]) -> float:
    """Largest entry magnitude; NaN if any entry is NaN."""
    if blk is None or blk[2].size == 0:
        return 0.0
    return float(np.max(np.abs(blk[2])))


def _severity(res: float) -> float:
    """Order key for residuals in which a NaN is the worst of all."""
    return math.inf if math.isnan(res) else res


class _Current:
    """Mode families of one Heisenberg current, as blocks on its levels.

    ``shift`` adds scalar mode shifts a_n -> a_n + shift(n); it must vanish
    for positive n.  Blocks are cached per (family, mode, source level).
    """

    def __init__(self, q: float, kappa: float = 0.0,
                 shift: Optional[Callable[[int], complex]] = None):
        self.q, self.kappa, self._shift = q, kappa, shift
        self._cache: Dict[Tuple[str, int, int], Optional[Block]] = {}
        eye = self._eye
        self._families = {
            "1": lambda k, s: eye(s) if k == 0 else None,
            "rho": lambda k, s: eye(s, rho_coefficient(k)) if k <= 0 else None,
            "rhop": lambda k, s: (eye(s, rho_prime_coefficient(k)) if k < 0
                                  else None),
            "a": self._a,
            "jp": lambda k, s: _SECTOR.combine([(-1j * k, self.block("a", k, s))]),
            "jpp": lambda k, s: _SECTOR.combine([(-k * k, self.block("a", k, s))]),
            "j2": lambda k, s: self._normal_product("a", k, s),
            "j3": lambda k, s: self._normal_product("j2", k, s),
            "T1k": self._t1k}

    def block(self, fam: str, k: int, s: int) -> Optional[Block]:
        key = (fam, k, s)
        if key not in self._cache:
            self._cache[key] = self._families[fam](k, s)
        return self._cache[key]

    def _then(self, fam: str, k: int, blk: Optional[Block]) -> Optional[Block]:
        return _SECTOR.compose(lambda u: self.block(fam, k, u), blk)

    def _eye(self, s: int, c: complex = 1.0) -> Block:
        return s, s, c * np.eye(_SECTOR.dim(s), dtype=complex)

    def _a(self, k, s):
        t = s - k
        if t < 0:
            return None
        sh = complex(self._shift(k)) if self._shift is not None else 0j
        if k == 0:
            return self._eye(s, self.q + sh)
        m = np.zeros((_SECTOR.dim(t), _SECTOR.dim(s)), dtype=complex)
        index = _sector_index(t)
        for j, part in enumerate(partitions(s)):
            if k < 0:
                m[index[tuple(sorted(part + (-k,), reverse=True))], j] = 1.0
            elif k in part:
                rest = list(part)
                rest.remove(k)
                m[index[tuple(rest)], j] = part.count(k) * k
        return _SECTOR.combine([(1, (t, t, m)), (sh, self._eye(s))])

    def _normal_product(self, fam: str, n: int, s: int) -> Optional[Block]:
        """(:J F:)_n = sum_{k<0} a_k F_{n-k} + sum_{k>=0} F_{n-k} a_k for
        F = J or :J^2:, where F_{n-k} kills level s once n - k > s and a_k
        once k > s."""
        terms = [self._then("a", k, self.block(fam, n - k, s))
                 for k in range(n - s, 0)]
        terms += [self._then(fam, n - k, self.block("a", k, s))
                  for k in range(0, s + 1)]
        return _SECTOR.combine((1, t) for t in terms)

    def _t1k(self, n, s):
        # T_kappa = :J^2:/2 + kappa J' - kappa (rho J)
        kap = self.kappa
        terms = [(0.5, self.block("j2", n, s)), (kap, self.block("jp", n, s))]
        terms += [(-kap * rho_coefficient(k), self.block("a", n - k, s))
                  for k in range(n - s, 1)]
        return _SECTOR.combine(terms)


# ---------------------------------------------------------------------------
# realization parameters and the field-assembly table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealizationParams:
    kappa: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    cutoff: int = 12
    b_sign: int = 1

    @property
    def central_charge(self) -> float:
        return 2.0 + 12.0 * self.kappa ** 2

    @property
    def b(self) -> float:
        return self.b_sign * 4.0 / math.sqrt(22.0 + 5.0 * self.central_charge)

    def lowest_weights(self, variant: str) -> Tuple[complex, complex]:
        """(h, w) of the common lowest weight vector for the chosen variant."""
        q1, q2, k = self.q1, self.q2, self.kappa
        b = self.b
        if variant == "unitaryFamily":
            h = (q1 * q1 + q2 * q2 + k * k) / 2.0
            w = b * (q2 ** 3 - 3.0 * q1 * q1 * q2) / (3.0 * math.sqrt(2.0))
            return complex(h), complex(w)
        # raw and vacuumModified share the untwisted weight formulas
        h = 0.5 * q1 * q1 + 0.5 * q2 * q2 - 1j * k * q1
        w = (b / math.sqrt(2.0)) * (q2 ** 3 / 3.0
                                    - (q1 * q1 - 2j * k * q1) * q2
                                    + k * k * q2)
        return h, w


Row = Tuple[complex, str, str]


def field_table(variant: str, kappa: float, b: float) -> Dict[str, List[Row]]:
    """L and W of a variant as rows (coefficient, family 1, family 2).

    Families: "1" (identity, mode 0 only), "a", "jp" = J', "jpp" = J'',
    "j2" = :J^2:, "j3" = :J^3:, "rho" and "rhop" (the scalar series rho and
    rho'), "T1k" (the twisted stress tensor of current 1).  Mode n of a row
    is sum_k F1_k F2_{n-k}.
    """
    k, s = kappa, b / math.sqrt(2.0)
    L: List[Row] = [(0.5, "1", "j2")]
    # b/(3 sqrt2) :J_2^3: + 3 b kappa/(2 sqrt2) (J_1' J_2 - J_1 J_2')
    W: List[Row] = [(s / 3.0, "1", "j3"),
                    (1.5 * k * s, "jp", "a"), (-1.5 * k * s, "a", "jp")]
    # b kappa^2/(2 sqrt2) (2 + n^2) J_2
    tail = [(k * k * s, "1", "a"), (-0.5 * k * k * s, "1", "jpp")]
    if variant == "raw":
        # T_1 = :J_1^2:/2 - i kappa (J_1 + i J_1')
        L += [(0.5, "j2", "1"), (-1j * k, "a", "1"), (k, "jp", "1")]
        # -b/sqrt2 (:J_1^2: - 2i kappa (J_1 + i J_1')) J_2
        W += [(-s, "j2", "a"), (2j * k * s, "a", "a"), (-2.0 * k * s, "jp", "a")]
        # b kappa^2/(2 sqrt2) (n+1)(n+2) J_2
        W += [(k * k * s, "1", "a"), (1.5j * k * k * s, "1", "jp"),
              (-0.5 * k * k * s, "1", "jpp")]
    elif variant == "vacuumModified":
        L += [(1.0, "T1k", "1")]
        # -sqrt2 b T1k J_2, and the twist: J_1' -> J_1' - kappa rho',
        # J_1 -> J_1 - kappa rho
        W += [(-2.0 * s, "T1k", "a"), (-1.5 * k * k * s, "rhop", "a"),
              (1.5 * k * k * s, "rho", "jp")] + tail
    elif variant == "unitaryFamily":
        # T_1 = :J_1^2:/2 + kappa J_1' + kappa^2/2
        L += [(0.5, "j2", "1"), (k, "jp", "1"), (0.5 * k * k, "1", "1")]
        W += [(-s, "j2", "a"), (-2.0 * k * s, "jp", "a"),
              (-k * k * s, "1", "a")] + tail
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return {"L": L, "W": W}


# ---------------------------------------------------------------------------
# the realization engine
# ---------------------------------------------------------------------------

class Realization:
    """One of the two-current field assemblies acting on the Fock module.

    variant:
      raw            -- the plain free-field pair of fields
      vacuumModified -- the rho-twisted pair (weakly symmetric)
      unitaryFamily  -- the manifestly symmetric family

    Mode specs: ("L", n), ("W", n).
    """

    def __init__(self, params: RealizationParams, variant: str = "raw"):
        self._currents = (_Current(params.q1, params.kappa),
                          _Current(params.q2, params.kappa))
        self._fields = field_table(variant, params.kappa, params.b)
        self._blocks: Dict[Tuple, Optional[_Sparse]] = {}
        self._families: Dict[Tuple, Optional[Block]] = {}

    def _block(self, spec: Tuple, level: int) -> Optional[Block]:
        """The block of a mode on V_level, built once, kept as a _Sparse."""
        key = (spec, level)
        if key not in self._blocks:
            kind, n = spec
            blk = self._assemble(n, self._fields[kind], level)
            self._blocks[key] = None if blk is None else _Sparse(blk)
            del blk  # free the assembled array before a copy is decoded
        stored = self._blocks[key]
        return None if stored is None else stored.dense()

    def _then(self, spec: Tuple, blk: Optional[Block]) -> Optional[Block]:
        return _FOCK.compose(lambda u: self._block(spec, u), blk)

    def _family(self, group: Tuple[Tuple[complex, str], ...], k: int,
                s1: int) -> Optional[Block]:
        """sum c * F1_k on sector-1 level s1 over the rows of one group."""
        key = (group, k, s1)
        if key not in self._families:
            cur = self._currents[0]
            self._families[key] = _SECTOR.combine(
                (c, cur.block(f1, k, s1)) for c, f1 in group)
        return self._families[key]

    def _assemble(self, n: int, rows: List[Row], level: int
                  ) -> Optional[Block]:
        """Mode n of sum over rows c * F1 F2 on V_level.

        Rows sharing a sector-2 family are summed in sector 1 first, so each
        (split, k) costs one Kronecker product.  Sector-2 families are
        level-homogeneous; sector-1 blocks may span several levels.
        """
        hi = level - n
        if hi < 0:
            return None
        groups: Dict[str, Tuple[Tuple[complex, str], ...]] = {}
        for c, f1, f2 in rows:
            if c != 0:
                groups[f2] = groups.get(f2, ()) + ((c, f1),)
        out = np.zeros((_FOCK.cum(hi + 1), _FOCK.dim(level)), dtype=complex)
        cols = _split_offsets(level)
        cur2 = self._currents[1]
        for s1 in range(level + 1):
            s2 = level - s1
            for f2, group in groups.items():
                for k in range(n - s2, s1 + 1):
                    b = cur2.block(f2, n - k, s2)
                    a = None if b is None else self._family(group, k, s1)
                    if a is None:
                        continue
                    lo1, hi1, ma = a
                    _, t2, mb = b
                    kron = (ma[:, None, :, None] * mb[None, :, None, :]
                            ).reshape(ma.shape[0] * mb.shape[0], -1)
                    r = 0
                    for t1 in range(lo1, hi1 + 1):
                        h = _SECTOR.dim(t1) * mb.shape[0]
                        row = _FOCK.cum(t1 + t2) + _split_offsets(t1 + t2)[t1]
                        out[row:row + h, cols[s1]:cols[s1 + 1]] += kron[r:r + h]
                        r += h
        lo = next((t for t in range(hi)
                   if out[_FOCK.cum(t):_FOCK.cum(t + 1)].any()), hi)
        return lo, hi, out[_FOCK.cum(lo):]


@lru_cache(maxsize=1)
def _realization(params: RealizationParams, variant: str) -> Realization:
    """The Realization of the last parameter set asked for, so checks run
    one after another on the same assembly share its mode blocks."""
    return Realization(params, variant)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def check_w3_relations(variant: str, params: RealizationParams,
                       max_mode_index: int, max_level: int) -> dict:
    """Commutator residuals of the realized modes against the algebra.

    For all |m|, |n| <= max_mode_index and every source level <= max_level,
    builds the block of ([X_m, Y_n] - RHS) and reports its largest entry
    magnitude, i.e. the largest coefficient over all basis states.  Also
    extracts the central charge from the vacuum expectation of [L_2, L_-2].
    """
    if max_level + 2 * max_mode_index > params.cutoff:
        raise CutoffExceeded("max_level + 2*max_mode_index must be <= cutoff")
    real = _realization(params, variant)
    c_val = params.central_charge
    ring = Ring(1.0, 0.0, c_val, 0.0, 0.0, params.b ** 2, float)
    worst = {"residual": 0.0, "pair": None, "kind": None}
    lambdas: Dict[Tuple[int, int], Optional[Block]] = {}

    def L(n, lev):
        return real._block(("L", n), lev)

    def lam(s, lev):
        if (s, lev) not in lambdas:
            terms = []
            for q, modes in lambda_terms(s, lev):
                blk = L(modes[-1], lev)
                for k in reversed(modes[:-1]):
                    blk = real._then(("L", k), blk)
                terms.append((float(q), blk))
            lambdas[s, lev] = _FOCK.combine(terms)
        return lambdas[s, lev]

    def field(kind, idx, lev):
        if kind == "1":
            return lev, lev, np.eye(_FOCK.dim(lev), dtype=complex)
        if kind == "Lambda":
            return lam(idx, lev)
        return real._block((kind, idx), lev)

    rng = range(-max_mode_index, max_mode_index + 1)
    for lev in range(max_level + 1):
        for m in rng:
            for n in rng:
                for x, y in (("L", "L"), ("L", "W"), ("W", "W")):
                    if x == y == "W" and m < n:
                        continue  # [W_m, W_n] is antisymmetric
                    terms = [(1, real._then((x, m), field(y, n, lev))),
                             (-1, real._then((y, n), field(x, m, lev)))]
                    terms += [(-coef, field(kind, idx, lev))
                              for coef, kind, idx in bracket(x, m, y, n, ring)]
                    res = _max_abs(_FOCK.combine(terms))
                    if _severity(res) > _severity(worst["residual"]):
                        worst.update(residual=res, pair=(m, n), kind=x + y)

    # central charge extraction from <O, [L2, L-2] O> = 4h + c/2
    comm = _FOCK.combine([(1, real._then(("L", 2), L(-2, 0))),
                          (-1, real._then(("L", -2), L(2, 0)))])
    def vev(blk):  # <O, X O> from the block of X on level 0
        return complex(blk[2][0, 0]) if blk and blk[0] == 0 else 0j

    c_extracted = 2.0 * (vev(comm) - 4.0 * vev(L(0, 0)))

    return {
        "check": "w3_relations",
        "variant": variant,
        "params": {"kappa": params.kappa, "q1": params.q1, "q2": params.q2},
        "maxModeIndex": max_mode_index,
        "maxLevel": max_level,
        "maxResidual": worst["residual"],
        "worstCase": {"pair": worst["pair"], "kind": worst["kind"]},
        "centralCharge": {"extracted": c_extracted.real,
                          "expected": c_val,
                          "error": abs(c_extracted - c_val)},
    }


def check_automorphism_identity(kappa: float, eta: complex,
                                max_mode_index: int, max_level: int,
                                cutoff: int = 12) -> dict:
    """Mode-by-mode check that twisting T_kappa by the shift automorphism
    lands on the plainly shifted stress tensor T_0 + kappa J' + eta J +
    (kappa^2+eta^2)/2.

    Both sides act on current 1 only, so the residual over the states of
    level <= max_level is its largest entry over sector-1 levels <=
    max_level; the worst key is reported with an empty sector 2.  Mode
    -max_mode_index maps level max_level to max_level + max_mode_index,
    which must not exceed the cutoff.
    """
    if max_level + max_mode_index > cutoff:
        raise CutoffExceeded("max_level + max_mode_index must be <= cutoff")
    def shift(n: int) -> complex:
        return kappa * rho_coefficient(n) + (eta if n == 0 else 0)

    twisted = _Current(0.0, kappa, shift)
    plain = _Current(0.0, kappa)
    worst = 0.0
    worst_case = None
    for n in range(-max_mode_index, max_mode_index + 1):
        for s in range(max_level + 1):
            r = _SECTOR.combine([
                (1, twisted.block("T1k", n, s)),
                (-0.5, plain.block("j2", n, s)),
                (-kappa, plain.block("jp", n, s)),
                (-eta, plain.block("a", n, s)),
                (-(kappa ** 2 + eta ** 2) / 2.0 if n == 0 else 0,
                 plain.block("1", 0, s))])
            res = _max_abs(r)
            if _severity(res) > _severity(worst):
                col = int(np.argmax(np.max(np.abs(r[2]), axis=0)))
                worst = res
                worst_case = {"mode": n,
                              "key": repr((partitions(s)[col], ()))}
    return {
        "check": "automorphism_identity",
        "params": {"kappa": kappa, "eta": repr(eta)},
        "maxResidual": worst,
        "worstCase": worst_case,
    }


def solve_w_triple(n1: int, n2: int, n3: int) -> Tuple[float, float]:
    """Coefficients (u, d) making W_{n1} + u W_{n2} + d W_{n3} weakly
    adjointable: the trigonometric polynomial and its derivative vanish at
    z = -1."""
    if len({n1, n2, n3}) != 3:
        raise ValueError("indices must be distinct")
    a11, a12 = (-1.0) ** n2, (-1.0) ** n3
    a21, a22 = (-1.0) ** n2 * n2, (-1.0) ** n3 * n3
    b1, b2 = -((-1.0) ** n1), -((-1.0) ** n1 * n1)
    det = a11 * a22 - a12 * a21
    u = (b1 * a22 - b2 * a12) / det
    d = (a11 * b2 - a21 * b1) / det
    return u, d


def check_weak_symmetry(params: RealizationParams, max_mode_index: int = 3,
                        test_level: int = 2) -> dict:
    """Adjointness of the constrained mode combinations (vacuumModified).

    Each mode becomes its matrix A-hat on the orthonormalized basis of
    levels <= test_level; the defect of a pair (A, B) is max |B-hat^H -
    A-hat|.  Pairs (L_n - (-1)^{n-m} L_m) and the W-triples pass within float
    noise; an unpaired L_n at kappa != 0 is the negative control and must
    exhibit a visible defect.
    """
    real = _realization(params, "vacuumModified")
    norm = _norms_upto(test_level)
    modes = range(-max_mode_index, max_mode_index + 1)

    def hat(spec):
        out = np.zeros((len(norm), len(norm)), dtype=complex)
        for lev in range(test_level + 1):
            blk = real._block(spec, lev)
            if blk is not None:
                rows, m = _FOCK.rows_upto(blk, test_level)
                out[rows, _FOCK.cum(lev):_FOCK.cum(lev + 1)] = m
        return out * norm[:, None] / norm[None, :]

    hats = {f: {n: hat((f, n)) for n in modes} for f in ("L", "W")}

    def defect(field, ns, coefs) -> float:
        # A = sum c X_n against B = sum c X_{-n}
        a = sum(c * hats[field][n] for n, c in zip(ns, coefs))
        b = sum(c * hats[field][-n] for n, c in zip(ns, coefs))
        return _max_abs((0, 0, b.conj().T - a))

    pairs = [defect("L", (n1, n2), (1.0, -(-1.0) ** (n1 - n2)))
             for n1 in modes for n2 in modes if n1 != n2]
    triples = [defect("W", t, (1.0,) + solve_w_triple(*t)) for t in
               [(1, 0, -1), (2, 1, 0), (2, 1, -1), (3, 2, 1), (2, 0, -2),
                (3, 1, -1), (3, 0, -3), (1, -1, -2)]
               if max(map(abs, t)) <= max_mode_index]
    # negative control: a bare L_n is not weakly adjointable once kappa != 0
    control = [defect("L", (n,), (1.0,)) for n in range(1, max_mode_index + 1)]
    return {
        "check": "weak_symmetry",
        "params": {"kappa": params.kappa, "q1": params.q1, "q2": params.q2},
        "maxPairDefect": max(pairs, key=_severity, default=0.0),
        "maxTripleDefect": max(triples, key=_severity, default=0.0),
        "unpairedControlDefect": max(control, key=_severity, default=0.0),
    }


def zero_vector_norms(params: RealizationParams) -> Dict[str, float]:
    """Norms of L_{-1} O, W_{-1} O, W_{-2} O in the vacuumModified realization.

    All three vanish when q1 = q2 = 0.  Each is the image of O under the
    mode's level-0 block, weighted by the Fock norms of its rows.
    """
    real = _realization(params, "vacuumModified")
    out = {}
    for f, n in (("L", -1), ("W", -1), ("W", -2)):
        rows, m = _FOCK.rows_upto(real._block((f, n), 0), -n)
        out[f"{f}{n}"] = float(np.linalg.norm(_norms_upto(-n)[rows]
                                              * m[:, 0]))
    return out


# ---------------------------------------------------------------------------
# cyclic Gram matrices
# ---------------------------------------------------------------------------

@dataclass
class CyclicGram:
    variant: str
    level: int
    words: List[ModeWord]
    gram: np.ndarray
    eigenvalues: np.ndarray


def cyclic_gram(variant: str, params: RealizationParams, level: int,
                margin: int = 2) -> CyclicGram:
    """Gram matrix of the cyclic subspace words of level <= level.

    The word vectors are the columns of V over the basis of levels <= level,
    each built from the column of the word its leftmost mode acts on; the
    words with the same leftmost mode and level are built together.  The
    Gram is V^H diag(norm^2) V.  Eigenvalues are those of the Hermitian
    part, all NaN when an entry of the Gram overflowed.
    """
    if level > params.cutoff - margin:
        raise CutoffExceeded(
            f"cyclic level {level} needs cutoff >= {level + margin}")
    real = _realization(params, variant)
    words = [w for lev in range(level + 1) for w in enumerate_basis(lev)]
    column = {w: j for j, w in enumerate(words)}
    # (mode, level it acts on) -> [(word column, column it acts on)]
    groups: Dict[Tuple, List[Tuple[int, int]]] = {}
    for j, w in enumerate(words[1:], start=1):
        gen, n, rest = _leading(w)
        groups.setdefault((gen, n, rest.level), []).append((j, column[rest]))
    vecs = np.zeros((_FOCK.cum(level + 1), len(words)), dtype=complex)
    vecs[0, 0] = 1.0  # the empty word
    for (gen, n, top), pairs in groups.items():  # by word level
        cols, srcs = map(list, zip(*pairs))
        blk = real._then((gen, n), (0, top, vecs[:_FOCK.cum(top + 1), srcs]))
        if blk is not None:  # None: null vectors such as L_-1 Omega
            rows, m = _FOCK.rows_upto(blk, level)
            vecs[rows, cols] = m
    vecs *= _norms_upto(level)[:, None]
    # an overflow is reported by the NaN eigenvalues below, not by numpy
    # warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        gram = vecs.conj().T @ vecs
        del vecs
        herm = gram.conj().T
        herm += gram
        herm *= 0.5
        finite = np.isfinite(herm.sum())
    # eigvalsh fails on an infinite entry and may give finite values for a
    # NaN one; an overflowed Gram (a sum that is not finite) gets NaN
    eigs = (np.linalg.eigvalsh(herm) if finite
            else np.full(len(words), np.nan))
    return CyclicGram(variant, level, words, gram, eigs)
