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
l = l1 + l2 of P(l1) (x) P(l2), P(n) the partitions of n, in the order of
``level_keys``; ``_split_rows`` is the one table of where each split starts.
A mode-n operator is handed out per source level s as a block (lo, hi, M): M
is a dense numpy array that maps V_s into levels lo..hi stacked, hi = s - n
(the rho twist and the automorphism shift land below s - n).  Each current
builds its mode families (a, J', J'', :J^2:, :J^3:, rho, rho', T1k) as small
dense matrices on its own levels, cached per (family, mode, level); two
currents of equal charge are one object.  ``field_table`` writes L and W as
rows (coefficient, sector-1 family, sector-2 family) whose mode n is sum_k
F1_k (x) F2_{n-k}.  ``Realization._assemble`` sums rows sharing a sector-2
family in sector 1 first, so each (split, k) adds one Kronecker product per
sector-2 family.  It forms only the products of nonzero entries, cached per
current, in one vectorized pass, and adds them with ``np.add.at`` in loop
order: every entry is, to the last bit, the sum of the dense products added
in turn (tests/kron_reference.py).  A block is assembled once per realization
and kept as its nonzero entries (1-5%); each read decodes a dense array for
BLAS.  Callers write a block at its own levels: those of the cyclic Gram and
the zero vectors never pass its top level; only the weak-symmetry hats cut
rows, above their test level.  Mode sums are finite and exact: annihilation
above a level kills it and the twist coefficients vanish for positive
indices.  The cyclic Gram keeps its level blocks only: between levels it
is 0, except for vacuumModified off the vacuum.

The W3 relations the realized modes must satisfy are not restated here:
``check_w3_relations`` reads the bracket table and the Lambda_s collapse of
``verma`` over a float Ring, the same table the exact rewriting engine uses,
so the sweep checks that one table against the free-field realization.

The cutoff is the level budget, not a truncation: ``check_w3_relations``,
``check_automorphism_identity``, ``check_weak_symmetry`` and ``cyclic_gram``
raise CutoffExceeded before any block is built when their sweep would reach
above it.  It guards the sweeps only: the central charge that
``check_w3_relations`` extracts from L_{+-2} on the vacuum, and the W_{-2} O
of ``zero_vector_norms``, reach level 2 at any cutoff.  The blocks are exact
at every level.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .verma import (BiKey, ModeWord, Ring, _leading, bracket, enumerate_basis,
                    lambda_terms, level_keys, partitions)

VARIANTS = ("raw", "vacuumModified", "unitaryFamily")

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


def verify_rho_ode(max_order: int) -> Dict[int, Fraction]:
    """Residuals of rho^2/2 + 1/2 - rho' per mode, in exact arithmetic.

    rho_n = i * r_n, with r_n read exactly off ``rho_coefficient`` (the one
    the realizations use; the Fraction of a float is its exact value), so
    the mode-n residual is -S_n/2 + delta_{n,0}/2 - n*r_n with
    S_n = sum_k r_k r_{n-k}; everything stays in Q.
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    def r(k: int) -> Fraction:
        return Fraction(rho_coefficient(k).imag)
    out: Dict[int, Fraction] = {}
    for n in range(-max_order, max_order + 1):
        s = sum(r(k) * r(n - k) for k in range(n, 1))
        out[n] = Fraction(-s, 2) + (Fraction(1, 2) if n == 0 else 0) - n * r(n)
    return out


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sector_index(level: int) -> Dict[Tuple[int, ...], int]:
    return {p: i for i, p in enumerate(partitions(level))}


@lru_cache(maxsize=None)
def _sector_rows(lo: int, hi: int) -> np.ndarray:
    """Level and row within it of each row of sector levels lo..hi."""
    return np.array([(t, i) for t in range(lo, hi + 1)
                     for i in range(len(partitions(t)))]).T


@lru_cache(maxsize=None)
def _split_rows(top: int) -> np.ndarray:
    """[t1, t2] -> first row of the split (t1, t2) in V_0 + ... + V_top, for
    t1 + t2 <= top, the splits in the order of ``level_keys``."""
    out = np.zeros((top + 1, top + 1), dtype=np.int64)
    row = 0
    for level in range(top + 1):
        for t1 in range(level + 1):
            out[t1, level - t1] = row
            row += len(partitions(t1)) * len(partitions(level - t1))
    return out


def _norms_upto(top: int) -> np.ndarray:
    """Fock norms, not squared, of the basis vectors of V_0 + ... + V_top."""
    return np.sqrt([key_norm_sq(k) for k in basis_keys(top)])


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
    of the given shape as the flat indices and values of its nonzero
    entries, 1-5% of them."""

    def __init__(self, lo: int, hi: int, shape: Tuple[int, int],
                 flat: np.ndarray, vals: np.ndarray):
        self.lo, self.hi, self.shape = lo, hi, shape
        self.flat, self.vals = flat, vals

    def dense(self) -> Block:
        m = np.zeros(self.shape[0] * self.shape[1], dtype=complex)
        m[self.flat] = self.vals
        return self.lo, self.hi, m.reshape(self.shape)


class _Graded:
    """A level-graded space given by the dimension of each level."""

    def __init__(self, dim: Callable[[int], int]):
        self.dim = dim
        self._cum = [0]

    def cum(self, level: int) -> int:
        """Total dimension of the levels below ``level``."""
        return self.offsets(level)[level]

    def offsets(self, top: int) -> List[int]:
        """cum(0), ..., cum(top), perhaps more, as one list."""
        cum = self._cum
        while len(cum) <= top:
            cum.append(cum[-1] + self.dim(len(cum) - 1))
        return cum

    def combine(self, terms: Iterable[Tuple[complex, Optional[Block]]]
                ) -> Optional[Block]:
        """sum c * block over blocks with the same columns; None is zero.
        A lone term with coefficient 1 is returned as it is.  The sum
        starts from the first term when that spans all levels, and a term
        with coefficient -1 is subtracted: against adding each c * block
        to zeros, both change only the signs of zeros, for finite
        entries."""
        terms = [(c, b) for c, b in terms if b is not None and c != 0]
        if not terms:
            return None
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        lo = min(b[0] for _, b in terms)
        hi = max(b[1] for _, b in terms)
        cum = self.offsets(hi + 1)
        base = cum[lo]
        c, (blo, bhi, m) = terms[0]
        if (blo, bhi) == (lo, hi):
            out = m.copy() if c == 1 else c * m
            terms = terms[1:]
        else:
            out = np.zeros((cum[hi + 1] - base, m.shape[1]), dtype=complex)
        for c, (blo, bhi, m) in terms:
            rows = out[cum[blo] - base:cum[bhi + 1] - base]
            if c == -1:
                rows -= m
            else:
                rows += m if c == 1 else c * m
        return lo, hi, out

    def compose(self, op: Callable[[int], Optional[Block]],
                blk: Optional[Block]) -> Optional[Block]:
        """The operator with blocks op(level) applied to the columns of blk."""
        if blk is None:
            return None
        lo, hi, m = blk
        if lo == hi:
            ob = op(lo) if np.count_nonzero(m) else None
            return None if ob is None else (ob[0], ob[1], ob[2] @ m)
        cum = self.offsets(hi + 1)
        base = cum[lo]
        parts = []
        for u in range(lo, hi + 1):
            rows = m[cum[u] - base:cum[u + 1] - base]
            ob = op(u) if np.count_nonzero(rows) else None
            if ob is not None:
                parts.append((1, (ob[0], ob[1], ob[2] @ rows)))
        return self.combine(parts)


_SECTOR = _Graded(lambda level: len(partitions(level)))
_FOCK = _Graded(lambda level: len(level_keys(level)))


def _max_abs(blk: Optional[Block]) -> float:
    """Largest entry magnitude; NaN if any entry is NaN."""
    if blk is None or blk[2].size == 0:
        return 0.0
    return float(np.abs(blk[2]).max())


def _severity(res: float) -> float:
    """Order key for residuals in which a NaN is the worst of all."""
    return math.inf if math.isnan(res) else res


class _Current:
    """Mode families of one Heisenberg current, as blocks on its levels.

    ``shift`` adds scalar mode shifts a_n -> a_n + shift(n); it must vanish
    for positive n.  Blocks are cached per (family, mode, source level);
    ``entries`` caches the nonzero entries of sums of families.
    """

    def __init__(self, q: float, kappa: float = 0.0,
                 shift: Optional[Callable[[int], complex]] = None):
        self.q, self.kappa, self._shift = q, kappa, shift
        self._cache: Dict[Tuple, Optional[Block]] = {}
        self._entries: Dict[Tuple, Optional[Tuple[np.ndarray, ...]]] = {}
        eye = self._eye
        def prime(f: str):  # the circle derivative: mode k picks up -i k
            return lambda k, s: _SECTOR.combine([(-1j * k, self.block(f, k, s))])
        self._families = {
            "1": lambda k, s: eye(s) if k == 0 else None,
            "rho": lambda k, s: eye(s, rho_coefficient(k)) if k <= 0 else None,
            "rhop": prime("rho"),
            "a": self._a,
            "jp": prime("a"),
            "jpp": prime("jp"),
            "j2": lambda k, s: self._normal_product("a", k, s),
            "j3": lambda k, s: self._normal_product("j2", k, s),
            "T1k": self._t1k}

    def block(self, fam: str, k: int, s: int) -> Optional[Block]:
        key = (fam, k, s)
        if key not in self._cache:
            self._cache[key] = self._families[fam](k, s)
        return self._cache[key]

    def entries(self, group: Tuple[Tuple[complex, str], ...], k: int, s: int
                ) -> Optional[Tuple[np.ndarray, ...]]:
        """The nonzero entries of the sum of c * block(f, k, s) over the
        pairs (c, f) of ``group``, as (ints, values), ints holding per entry
        its level, its row within that level and its column; None if there
        are none.  Only the entries are cached, not the sum."""
        key = (group, k, s)
        if key not in self._entries:
            blk = _SECTOR.combine((c, self.block(f, k, s)) for c, f in group)
            out = None
            if blk is not None:
                lo, hi, m = blk
                rows, cols = np.nonzero(m)
                if len(rows):
                    out = (np.concatenate((_sector_rows(lo, hi)[:, rows],
                                           cols[None])), m[rows, cols])
            self._entries[key] = out
        return self._entries[key]

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
        terms = [_SECTOR.compose(partial(self.block, "a", k),
                                 self.block(fam, n - k, s))
                 for k in range(n - s, 0)]
        terms += [_SECTOR.compose(partial(self.block, fam, n - k),
                                  self.block("a", k, s))
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

    @property
    def central_charge(self) -> float:
        return 2.0 + 12.0 * self.kappa ** 2

    @property
    def b(self) -> float:
        return 4.0 / math.sqrt(22.0 + 5.0 * self.central_charge)

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

    Families: "1" (identity, mode 0 only), "a", "j2" = :J^2:, "j3" = :J^3:,
    "rho" (the scalar series rho), "T1k" (the twisted stress tensor of
    current 1) and the circle derivatives "jp" = J', "jpp" = J'' and "rhop"
    = rho'.  Mode n of a row is sum_k F1_k F2_{n-k}.
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
        # b kappa^2/(2 sqrt2) (n+1)(n+2) J_2: tail's 2 + n^2, plus 3n
        W += tail + [(1.5j * k * k * s, "1", "jp")]
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
        cur1 = _Current(params.q1, params.kappa)
        # equal charges give equal mode families: one current serves both
        self._currents = (cur1, cur1 if params.q2 == params.q1 else
                          _Current(params.q2, params.kappa))
        self._fields = field_table(variant, params.kappa, params.b)
        self._blocks: Dict[Tuple, Optional[_Sparse]] = {}

    def _block(self, spec: Tuple, level: int) -> Optional[Block]:
        """The block of a mode on V_level, assembled once."""
        key = (spec, level)
        if key not in self._blocks:
            kind, n = spec
            self._blocks[key] = self._assemble(n, self._fields[kind], level)
        stored = self._blocks[key]
        return None if stored is None else stored.dense()

    def _assemble(self, n: int, rows: List[Row], level: int
                  ) -> Optional[_Sparse]:
        """Mode n of sum over rows c * F1 F2 on V_level.

        Rows sharing a sector-2 family are summed in sector 1 first, as one
        combination family of current 1, so each (split, k) contributes one
        Kronecker product of a sector-1 block, which may span several
        levels, and a level-homogeneous sector-2 block.  See ``_kron_sum``.
        """
        hi = level - n
        if hi < 0:
            return None
        groups: Dict[Tuple, Tuple[Tuple[complex, str], ...]] = {}
        for c, f1, f2 in rows:
            if c != 0:
                f2 = ((1, f2),)
                groups[f2] = groups.get(f2, ()) + ((c, f1),)
        start = _split_rows(level)
        entries1, entries2 = (cur.entries for cur in self._currents)
        terms = []
        for s1 in range(level + 1):
            s2 = level - s1
            col = int(start[s1, s2] - start[0, level])
            for f2, group in groups.items():
                for k in range(n - s2, s1 + 1):
                    b = entries2(f2, n - k, s2)
                    a = None if b is None else entries1(group, k, s1)
                    if a is not None:
                        terms.append((a, b, s2 - n + k, s2, col))
        width = _FOCK.dim(level)
        flat, vals = _kron_sum(terms, hi, width)
        cum = _FOCK.offsets(hi + 1)
        # the level of the first row reached, else hi
        lo = hi if not len(flat) else bisect.bisect_right(
            cum, flat[0] // width) - 1
        return _Sparse(lo, hi, (cum[hi + 1] - cum[lo], width),
                       flat - cum[lo] * width, vals)


def _kron_sum(terms: List[Tuple], top: int, width: int
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The sum of Kronecker products a (x) b over terms (a, b, t2, s2,
    column offset) of sector entries (see ``_Current.entries``), b on
    level s2 -> t2, as the flat positions and values of its nonzero
    entries in rows V_0 + ... + V_top of ``width`` columns.

    Only products of nonzero entries are formed, all terms' at once.  A
    position reached by several terms sums their products in term order,
    from 0, as adding each dense Kronecker product in turn would: products
    with a zero factor add nothing to a finite sum.  Each product rounds
    as the dense one does, with or without fused multiply-adds, because
    every sector-2 entry is real or imaginary (the charges are real).
    """
    if not terms:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex)
    ones, twos, t2, s2, col0 = zip(*terms)
    n2 = [len(b[1]) for b in twos]
    dims = np.array([_SECTOR.dim(t) for t in range(max(s2 + t2) + 1)])
    # per sector-1 entry, of its term: t2, s2, the column offset, the first
    # sector-2 entry and their number
    t2, s2, col0, first2, reach = np.array(
        [t2, s2, col0, list(itertools.accumulate(n2, initial=0))[:-1], n2]
    )[:, np.repeat(np.arange(len(terms)), [len(a[1]) for a in ones])]
    (lev1, row1, col1), val1 = (np.concatenate(x, axis=-1) for x in zip(*ones))
    (_, row2, col2), val2 = (np.concatenate(x, axis=-1) for x in zip(*twos))
    key1 = ((_split_rows(top)[lev1, t2] + row1 * dims[t2]) * width
            + col0 + col1 * dims[s2])
    i1 = np.repeat(np.arange(len(key1)), reach)
    i2 = np.arange(len(i1)) + np.repeat(first2 - np.cumsum(reach) + reach,
                                        reach)
    flat = key1[i1] + (row2 * width + col2)[i2]
    base = flat.min() // width * width  # the first row reached
    flat -= base
    out = np.zeros(_FOCK.cum(top + 1) * width - base, dtype=complex)
    np.add.at(out, flat, val1[i1] * val2[i2])
    reached = np.zeros(len(out), dtype=bool)  # cheaper to scan than out
    reached[flat] = True
    flat = np.flatnonzero(reached)
    vals = out[flat]
    keep = vals != 0
    return flat[keep] + base, vals[keep]


def _field(real: Realization, kind: str, idx: int, lev: int
           ) -> Optional[Block]:
    """The block on V_lev of a term of ``bracket``: "1" (the identity),
    L_idx, W_idx or Lambda_idx."""
    if kind == "1":
        return lev, lev, np.eye(_FOCK.dim(lev), dtype=complex)
    if kind != "Lambda":
        return real._block((kind, idx), lev)
    terms = []
    for q, modes in lambda_terms(idx, lev):
        blk = real._block(("L", modes[-1]), lev)
        for k in reversed(modes[:-1]):
            blk = _FOCK.compose(partial(real._block, ("L", k)), blk)
        terms.append((float(q), blk))
    return _FOCK.combine(terms)


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
    magnitude, i.e. the largest coefficient over all basis states.  The
    ``scale`` is the largest entry of the blocks so compared (X_m Y_n,
    Y_n X_m and each RHS term with its coefficient); roundoff in a residual
    grows with it.  Also extracts the central charge from the vacuum
    expectation of [L_2, L_-2], which reaches level 2 whatever the cutoff:
    the cutoff guards the sweep, max_level + 2 * max_mode_index.
    """
    if max_level + 2 * max_mode_index > params.cutoff:
        raise CutoffExceeded("max_level + 2*max_mode_index must be <= cutoff")
    real = _realization(params, variant)
    c_val = params.central_charge
    ring = Ring(1.0, 0.0, c_val, 0.0, 0.0, params.b ** 2, float)
    worst = {"residual": 0.0, "pair": None, "kind": None}
    scale = 0.0
    rng = range(-max_mode_index, max_mode_index + 1)
    for lev in range(max_level + 1):
        # (kind, index) -> (block on V_lev, its largest entry)
        fields: Dict[Tuple[str, int], Tuple[Optional[Block], float]] = {}

        def field(kind, idx):
            if (kind, idx) not in fields:
                blk = _field(real, kind, idx, lev)
                fields[kind, idx] = blk, _max_abs(blk)
            return fields[kind, idx]

        for m in rng:
            for n in rng:
                for x, y in (("L", "L"), ("L", "W"), ("W", "W")):
                    # [X_n, X_m] = -[X_m, X_n] to the last bit: each pair
                    # once, in the half worstCase.pair has always printed
                    if x == y and (m > n if x == "L" else m < n):
                        continue
                    xy = _FOCK.compose(partial(real._block, (x, m)),
                                       field(y, n)[0])
                    yx = (xy if (x, m) == (y, n) else _FOCK.compose(
                        partial(real._block, (y, n)), field(x, m)[0]))
                    rhs = [(-coef, *field(kind, idx))
                           for coef, kind, idx in bracket(x, m, y, n, ring)]
                    scale = max(scale, _max_abs(xy), _max_abs(yx),
                                *(abs(coef) * top for coef, _, top in rhs))
                    res = _max_abs(_FOCK.combine(
                        [(1, xy), (-1, yx)] + [(c, b) for c, b, _ in rhs]))
                    if _severity(res) > _severity(worst["residual"]):
                        worst.update(residual=res, pair=(m, n), kind=x + y)

    # central charge extraction from <O, [L2, L-2] O> = 4h + c/2
    comm = _FOCK.combine(
        [(1, _FOCK.compose(partial(real._block, ("L", 2)),
                           real._block(("L", -2), 0))),
         (-1, _FOCK.compose(partial(real._block, ("L", -2)),
                            real._block(("L", 2), 0)))])
    def vev(blk):  # <O, X O> from the block of X on level 0
        return complex(blk[2][0, 0]) if blk and blk[0] == 0 else 0j

    c_extracted = 2.0 * (vev(comm) - 4.0 * vev(real._block(("L", 0), 0)))

    return {
        "maxResidual": worst["residual"],
        "scale": scale,
        "worstCase": {"pair": worst["pair"], "kind": worst["kind"]},
        "centralCharge": {"extracted": c_extracted.real,
                          "expected": c_val,
                          "error": abs(c_extracted - c_val)},
    }


def _shifted_current(kappa: float, eta: complex) -> _Current:
    """The current at q = 0 under the shift automorphism a_n -> a_n +
    kappa rho_n + eta delta_{n,0}."""
    return _Current(0.0, kappa, lambda n: kappa * rho_coefficient(n)
                    + (eta if n == 0 else 0))


def check_automorphism_identity(kappa: float, eta: complex,
                                max_mode_index: int, max_level: int,
                                cutoff: int) -> dict:
    """Mode-by-mode check that twisting T_kappa by the shift automorphism
    lands on the plainly shifted stress tensor T_0 + kappa J' + eta J +
    (kappa^2+eta^2)/2.

    Both sides act on current 1 only, so the residual over the states of
    level <= max_level is its largest entry over sector-1 levels <=
    max_level.  Its ``scale`` is the largest |coefficient| * entry of the
    terms, with kappa^2/2 and eta^2/2 apart, so that a cancellation at kappa
    = |eta| is judged against kappa^2.  Mode -max_mode_index maps level
    max_level to max_level + max_mode_index, not above the cutoff.
    """
    if max_level + max_mode_index > cutoff:
        raise CutoffExceeded("max_level + max_mode_index must be <= cutoff")
    twisted = _shifted_current(kappa, eta)
    plain = _Current(0.0, kappa)
    sums = [[(1, twisted.block("T1k", n, s)), (-0.5, plain.block("j2", n, s)),
             (-kappa, plain.block("jp", n, s)), (-eta, plain.block("a", n, s))]
            + [(-x ** 2 / 2.0, plain.block("1", n, s)) for x in (kappa, eta)]
            for n in range(-max_mode_index, max_mode_index + 1)
            for s in range(max_level + 1)]
    return {"maxResidual": max((_max_abs(_SECTOR.combine(t)) for t in sums),
                               key=_severity, default=0.0),
            "scale": max(abs(c) * _max_abs(b) for t in sums for c, b in t)}


def solve_w_triple(n1: int, n2: int, n3: int) -> Tuple[float, float]:
    """Coefficients (u, d) making W_{n1} + u W_{n2} + d W_{n3} weakly
    adjointable: the trigonometric polynomial and its derivative vanish at
    z = -1, a 2x2 linear system solved here in closed form."""
    if len({n1, n2, n3}) != 3:
        raise ValueError("indices must be distinct")
    return ((-1) ** ((n1 + n2) % 2) * (n1 - n3) / (n3 - n2),
            (-1) ** ((n1 + n3) % 2) * (n2 - n1) / (n3 - n2))


def check_weak_symmetry(params: RealizationParams, max_mode_index: int,
                        test_level: int) -> dict:
    """Adjointness of the constrained mode combinations (vacuumModified).

    Each mode becomes its matrix A-hat on the orthonormalized basis of
    levels <= test_level; the defect of a pair (A, B) is max |B-hat^H -
    A-hat|.  Pairs (L_n - (-1)^{n-m} L_m) and the W-triples pass within
    roundoff of the ``scale``, the largest hat entry; an unpaired L_n at
    kappa != 0 is the negative control and must show a defect above it.
    The sweep reaches test_level + max_mode_index, which the cutoff guards.
    """
    if test_level + max_mode_index > params.cutoff:
        raise CutoffExceeded("test_level + max_mode_index must be <= cutoff")
    real = _realization(params, "vacuumModified")
    norm = _norms_upto(test_level)
    modes = range(-max_mode_index, max_mode_index + 1)

    def hat(spec):  # the blocks at their own levels, cut to test_level
        out = np.zeros((_FOCK.cum(test_level + max_mode_index + 1), len(norm)),
                       dtype=complex)
        for lev in range(test_level + 1):
            blk = real._block(spec, lev)
            if blk is not None:
                lo, hi, m = blk
                out[_FOCK.cum(lo):_FOCK.cum(hi + 1),
                    _FOCK.cum(lev):_FOCK.cum(lev + 1)] = m
        return out[:len(norm)] * norm[:, None] / norm[None, :]

    hats = {f: {n: hat((f, n)) for n in modes} for f in ("L", "W")}

    def defect(field, ns, coefs) -> float:
        # A = sum c X_n against B = sum c X_{-n}
        a = sum(c * hats[field][n] for n, c in zip(ns, coefs))
        b = sum(c * hats[field][-n] for n, c in zip(ns, coefs))
        return _max_abs((0, 0, b.conj().T - a))

    # each pair once: with s = (-1)^(n1-n2), (n2, n1) has -s times the A and B
    # of (n1, n2), bit for bit, as a - b = -(b - a) and a + b = b + a in IEEE
    pairs = [defect("L", (n1, n2), (1.0, -(-1.0) ** (n1 - n2)))
             for n1 in modes for n2 in modes if n1 < n2]
    triples = [defect("W", t, (1.0,) + solve_w_triple(*t)) for t in
               [(1, 0, -1), (2, 1, 0), (2, 1, -1), (3, 2, 1), (2, 0, -2),
                (3, 1, -1), (3, 0, -3), (1, -1, -2)]
               if max(map(abs, t)) <= max_mode_index]
    # negative control: a bare L_n is not weakly adjointable once kappa != 0
    control = [defect("L", (n,), (1.0,)) for n in range(1, max_mode_index + 1)]
    return {
        "maxPairDefect": max(pairs, key=_severity, default=0.0),
        "maxTripleDefect": max(triples, key=_severity, default=0.0),
        "unpairedControlDefect": max(control, key=_severity, default=0.0),
        "scale": max(_max_abs((0, 0, h)) for f in hats.values()
                     for h in f.values()),
    }


_ZERO_MODES = (("L", -1), ("W", -1), ("W", -2))


def zero_vector_norms(params: RealizationParams) -> Dict[str, Any]:
    """Norms of L_{-1} O, W_{-1} O, W_{-2} O in the vacuumModified realization,
    keyed "L-1", "W-1", "W-2", and under "scale" the same keys to each
    norm's roundoff scale.

    All three vanish when q1 = q2 = 0.  Each is the image of O under the
    mode's level-0 block, weighted by the Fock norms of its rows.  Its
    scale is the largest entry of the terms that image sums, O under each
    of the mode's field-table rows; roundoff in the norm grows with it.
    W_{-2} O lies at level 2, and ``params.cutoff``, which guards sweeps
    only, is not read: any cutoff will do.
    """
    real = _realization(params, "vacuumModified")
    out, scale = {}, {}
    for f, n in _ZERO_MODES:
        lo, hi, m = real._block((f, n), 0)
        key = f"{f}{n}"
        out[key] = float(np.linalg.norm(
            _norms_upto(hi)[_FOCK.cum(lo):] * m[:, 0]))
        scale[key] = max(_max_abs(real._assemble(n, [row], 0).dense())
                         for row in real._fields[f])
    return dict(out, scale=scale)


# ---------------------------------------------------------------------------
# cyclic Gram matrices
# ---------------------------------------------------------------------------

@dataclass
class CyclicGram:
    """A cyclic Gram's level-diagonal blocks and their eigenvalues, sorted."""
    words: List[ModeWord]
    blocks: List[np.ndarray]
    eigenvalues: np.ndarray


def cyclic_gram(variant: str, params: RealizationParams,
                level: int) -> CyclicGram:
    """Gram matrix of the cyclic subspace words of level <= level, by level.

    The word vectors are the columns of V, each built from the word its
    leftmost mode acts on, all words of one such mode and level together.
    blocks[N] is V_N^H diag(norm^2) V_N over the P2(N) level-N columns:
    positive semidefinite, the Fock norms being positive, so a negative
    eigenvalue is roundoff; all eigenvalues are NaN if a block overflowed.
    Entries between levels are never formed.  They are 0 for raw and
    unitaryFamily, and for vacuumModified at q1 = q2 = 0 (ROADMAP F9); off
    the vacuum, vacuumModified's blocks are only the Gram's level-diagonal
    part.  The identity of the vacuum blocks with the canonical form at
    h = w = 0 carries the paper's argument; only tests check it (item 3).
    """
    if level > params.cutoff:
        raise CutoffExceeded(f"cyclic level {level} needs cutoff >= {level}")
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
        blk = _FOCK.compose(partial(real._block, (gen, n)),
                            (0, top, vecs[:_FOCK.cum(top + 1), srcs]))
        if blk is not None:  # None: null vectors such as L_-1 Omega
            lo, hi, m = blk
            vecs[_FOCK.cum(lo):_FOCK.cum(hi + 1), cols] = m
    vecs *= _norms_upto(level)[:, None]
    blocks = [v.conj().T @ v for v in
              np.split(vecs, _FOCK.offsets(level)[1:level + 1], axis=1)]
    finite = all(np.isfinite(b.sum()) for b in blocks)
    # eigvalsh reads one triangle.  It fails on an infinite entry and may
    # give finite values for a NaN one; an overflowed block (a sum that is
    # not finite) makes every eigenvalue NaN
    eigs = (np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
            if finite else np.full(len(words), np.nan))
    return CyclicGram(words, blocks, eigs)
