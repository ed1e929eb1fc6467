"""Exact determinants over Q and Z, by a method chosen by shape and size.

``rational_determinant`` scales each row to integers and divides out the
content (each column's gcd, then each row's, multiplied back exactly), so
the integer matrix it takes the determinant of has content 1.  A symmetric
matrix of up to ``SYMMETRIC_MAX_N`` rows stays symmetric up to those row
and column scales, and its determinant is taken by symmetric fraction-free
(Bareiss) elimination over Z in pure Python, over the upper triangle
only.  Any other, and one whose elimination meets a hollow trailing block
of 3 or more rows, is taken modulo many primes below 2^24, each by
Gaussian elimination in numpy int64 with the primes side by side, and
rebuilt by the Chinese remainder theorem; Hadamard's bound fixes how many
primes are needed, so that result is exact and deterministic too.  numpy
is imported only on this multi-modular path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List

# The size rule, from the measured crossover on the content-reduced point
# Grams at (225/7, 21/8, 5/16) (2 cores, CPython 3.11, numpy 2.4, median of
# 7 or 3): symmetric elimination 0.9 vs multi-modular 2.1 ms at n = 20,
# 7.7-8.8 vs 13-14 ms at n = 36, 0.11-0.12 vs 0.09-0.10 s at n = 65 and
# 1.4 vs 0.65 s at n = 110, with numpy already loaded.  Importing numpy
# costs 0.055-0.11 s, which the multi-modular path pays once per process,
# and about 15 MB of peak memory.  On the leading blocks of the level-7
# Gram the two paths break even, import included, near n = 75 (0.21 vs
# 0.14 s there, 0.15 vs 0.12 s at n = 70, 0.29 vs 0.17 s at n = 80).  The
# Gram dimensions jump from 65 (level 6) to 110 (level 7), so no Gram of
# levels 1-6 goes to numpy by its size.
SYMMETRIC_MAX_N = 65

# Primes for the multi-modular determinant lie in (2^23, 2^24): each carries
# more than 23 bits of the modulus, and a product of two residues is below
# 2^48, so the int64 elimination can subtract up to 2^15 of them from an
# entry before it must be reduced again.
_PRIME_BITS = 24
_PRIME_BLOCK = 1 << 16
# primes eliminated side by side; bounds the (chunk, n, n) int64 arrays
_PRIME_CHUNK = 24


@lru_cache(maxsize=None)
def _prime_block(i: int) -> "np.ndarray":
    """The primes in [2^24 - (i+1) 2^16, 2^24 - i 2^16), largest first,
    sieved by the primes up to the square root of its top."""
    import numpy as np
    hi = (1 << _PRIME_BITS) - i * _PRIME_BLOCK
    lo = hi - _PRIME_BLOCK
    if lo < 1 << (_PRIME_BITS - 1):
        raise OverflowError("the multi-modular determinant ran out of primes")
    root = math.isqrt(hi) + 1
    small = np.ones(root, bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q::q] = False
    sieve = np.ones(_PRIME_BLOCK, bool)
    for q in np.nonzero(small)[0].tolist():
        sieve[-lo % q::q] = False
    return (lo + np.nonzero(sieve)[0][::-1]).astype(np.int64)


def primes(count: int) -> "np.ndarray":
    """The ``count`` largest primes below 2^24, largest first."""
    import numpy as np
    blocks, have, i = [], 0, 0
    while have < count:
        blocks.append(_prime_block(i))
        have += len(blocks[-1])
        i += 1
    return np.concatenate(blocks)[:count]


def det_mod(limbs: "np.ndarray", neg: "np.ndarray", moduli: "np.ndarray"
            ) -> "np.ndarray":
    """det mod p for each prime p of ``moduli``, by Gaussian elimination in
    int64.

    The n x n matrix is given as |entry| in little-endian 16-bit limbs, one
    row of ``limbs`` per entry, and the mask of its negative entries.  Each
    prime picks its own pivot row: the first one at or below the diagonal
    that is nonzero modulo that prime; a prime with no pivot in a column
    gets det = 0.  The trailing block is reduced lazily: only the pivot
    column and the pivot row are taken mod p at each step.
    """
    import numpy as np
    k, n = len(moduli), neg.shape[0]
    p1 = moduli[:, None]
    # residues as limbs . 2^(16 t) mod p; each term is below 2^40
    radix = np.ones((k, limbs.shape[1]), np.int64)
    for t in range(1, limbs.shape[1]):
        radix[:, t] = radix[:, t - 1] * (1 << 16) % moduli
    a = ((radix @ limbs.T) % p1).reshape(k, n, n)
    a[:, neg] = -a[:, neg]
    det = np.ones(k, np.int64)
    plist = moduli.tolist()
    for col in range(n):
        column = a[:, col:, col] = a[:, col:, col] % p1
        off = np.argmax(column != 0, axis=1)
        swap = np.nonzero(off)[0]
        if len(swap):
            r = col + off[swap]
            a[swap, col], a[swap, r] = a[swap, r], a[swap, col]
            det[swap] = moduli[swap] - det[swap]
        pivot = a[:, col, col]
        det = det * pivot % moduli
        if col + 1 == n:
            break
        inv = np.array([pow(v, -1, p) if v else 0
                        for v, p in zip(pivot.tolist(), plist)], np.int64)
        factor = a[:, col + 1:, col] * inv[:, None] % p1
        row = a[:, col, col + 1:] % p1
        a[:, col + 1:, col + 1:] -= factor[:, :, None] * row[:, None, :]
    return det


def rational_determinant(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix.

    Each row is scaled to integers by the lcm of its denominators.  Then the
    content is divided out: each column's gcd, then each row's gcd, so that
    det = (product of the gcds) x det of the reduced matrix, whose entries
    are smaller; a zero row or column (gcd 0) gives 0.  A symmetric matrix
    of at most ``SYMMETRIC_MAX_N`` rows has its reduced determinant taken by
    ``symmetric_determinant``, any other by ``multimodular_determinant``; it
    is multiplied back by the gcds and divided by the product of the scales.
    At a level-5 point Gram the content reduction takes the integer
    determinant from about 1,960 to 1,340 bits.
    """
    ints, scales = [], []
    for row in rows:
        s = math.lcm(*(q.denominator for q in row))
        ints.append([q.numerator * (s // q.denominator) for q in row])
        scales.append(s)
    col_gcds = [math.gcd(*col) for col in zip(*ints)]
    if 0 in col_gcds:
        return Fraction(0)
    ints = [[x // g for x, g in zip(row, col_gcds)] for row in ints]
    row_gcds = [math.gcd(*row) for row in ints]
    if 0 in row_gcds:
        return Fraction(0)
    ints = [[x // g for x in row] for row, g in zip(ints, row_gcds)]
    content = math.prod(col_gcds) * math.prod(row_gcds)
    n = len(rows)
    if n <= SYMMETRIC_MAX_N and all(rows[i][j] == rows[j][i]
                                    for i in range(n) for j in range(i)):
        # row i of ints is (s_i / r_i) G_i. / g_., so ratio_i = s_i g_i / r_i
        det = symmetric_determinant(ints, [
            Fraction(s * g, r)
            for s, g, r in zip(scales, col_gcds, row_gcds)])
    else:
        det = multimodular_determinant(ints)
    return Fraction(det * content, math.prod(scales))


def symmetric_determinant(m: List[List[int]],
                          ratios: List[Fraction]) -> int:
    """Exact determinant of a square integer matrix that is symmetric up to
    row and column scales: m[j][i] * ratios[i] == m[i][j] * ratios[j].

    Fraction-free (Bareiss) elimination: after step k every entry of the
    trailing block is a (k+1)-minor, so each division by the previous pivot
    is exact.  The minors of m = R G C, G symmetric and R, C diagonal, keep
    its symmetry up to the same scales, so only the upper triangle is
    eliminated; the one lower entry a row needs per step, its multiplier,
    is the upper one times ratios[i] / ratios[k].  A pivot divides only in
    the step after its own, so the last one, at step n - 2, may be 0.  An
    earlier zero pivot is replaced: a zero row k of the trailing block
    gives 0; otherwise row and column k trade places with those of a later
    nonzero diagonal entry, and so do their ratios, which leaves the
    determinant unchanged, as does taking the rows and columns in order of
    their largest entry first; with none left, a hollow trailing block of
    3 or more rows, ``multimodular_determinant`` takes m.
    """
    n = len(m)
    # smallest rows first: the leading minors, and so every entry of the
    # trailing blocks, stay smaller (0.15 -> 0.125 s on a level-6 Gram)
    order = sorted(range(n), key=lambda i: max(map(abs, m[i])))
    a = [[m[i][j] for j in order] for i in order]
    r = [ratios[i] for i in order]

    def lower(i, j):  # entry (i, j), i > j, from the upper one
        return (a[j][i] * r[i].numerator * r[j].denominator
                // (r[i].denominator * r[j].numerator))

    prev = 1
    for k in range(n - 1):
        if not a[k][k] and k < n - 2:
            if not any(a[k][k:]):  # so is column k, up to the ratios
                return 0
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is None:
                return multimodular_determinant(m)
            # the lower triangle of the trailing block, for the full swap
            for i in range(k + 1, n):
                for j in range(k, i):
                    a[i][j] = lower(i, j)
            a[k], a[swap] = a[swap], a[k]
            for row in a[k:]:
                row[k], row[swap] = row[swap], row[k]
            r[k], r[swap] = r[swap], r[k]
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            f = lower(i, k)
            if f:
                row[i:] = [(x * pivot - f * y) // prev
                           for x, y in zip(row[i:], top[i:])]
            elif pivot != prev:
                row[i:] = [x * pivot // prev for x in row[i:]]
        prev = pivot
    return a[-1][-1] if n else 1


def multimodular_determinant(m: List[List[int]]) -> int:
    """Exact determinant of a square integer matrix, multi-modularly.

    The determinant is taken modulo primes below 2^24 (``det_mod``, in
    chunks of ``_PRIME_CHUNK``) and rebuilt by the Chinese remainder theorem
    into the symmetric range.  By Hadamard's bound |det| <= 2^bits / 2 with
    bits = sum_i bitlen(max |row_i|) + n bitlen(n) / 2 + 1, and the primes
    used multiply to more than 2^bits, so the result is exact, with no
    randomness.
    """
    import numpy as np
    n = len(m)
    if n == 0:
        return 1
    if n > 1 << 15:
        raise ValueError("the int64 elimination takes at most 2^15 rows")
    flat = [x for row in m for x in row]
    bits = (sum(max(map(abs, row)).bit_length() for row in m)
            + (n * n.bit_length() + 1) // 2 + 1)
    moduli = primes(bits // (_PRIME_BITS - 1) + 1)
    width = 2 * ((max(map(abs, flat)).bit_length() + 15) // 16 or 1)
    raw = b"".join(abs(x).to_bytes(width, "little") for x in flat)
    limbs = np.frombuffer(raw, "<u2").astype(np.int64).reshape(n * n, -1)
    neg = np.array([x < 0 for x in flat]).reshape(n, n)
    x, modulus = 0, 1
    for start in range(0, len(moduli), _PRIME_CHUNK):
        chunk = moduli[start:start + _PRIME_CHUNK]
        for r, p in zip(det_mod(limbs, neg, chunk).tolist(), chunk.tolist()):
            x += modulus * ((r - x) * pow(modulus, -1, p) % p)
            modulus *= p
    return x - modulus if 2 * x > modulus else x
