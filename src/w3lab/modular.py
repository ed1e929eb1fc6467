"""Exact determinants of integer matrices, by one of two methods chosen by
size.

Up to ``BAREISS_MAX_N`` rows the determinant is taken by fraction-free
(Bareiss) elimination over Z in pure Python, so small determinants load no
numpy.  Above that it is taken modulo many primes below 2^24, each by
Gaussian elimination in numpy int64 with the primes side by side, and
rebuilt by the Chinese remainder theorem; Hadamard's bound fixes how many
primes are needed, so that result is exact and deterministic too.  numpy is
imported only on the multi-modular path.  ``verma`` uses
``integer_determinant`` for determinants over Q.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List

# The size rule, from the measured crossover on the scaled Grams at one
# point (2 cores, CPython 3.11, numpy already loaded): Bareiss 1.8 ms vs
# multi-modular 2.2 ms at n = 20, 29 vs 15 ms at n = 36, 0.75 vs 0.095 s
# at n = 65.  Importing numpy alone costs 0.07-0.16 s, which the
# multi-modular path pays once per process, so Bareiss wins up to about
# n = 40; that covers the Grams of levels 1-5 (dimension 2, 5, 10, 20, 36).
BAREISS_MAX_N = 40

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


def integer_determinant(m: List[List[int]]) -> int:
    """Exact determinant of a square integer matrix: by Bareiss elimination
    up to ``BAREISS_MAX_N`` rows, multi-modularly above."""
    if len(m) <= BAREISS_MAX_N:
        return bareiss_determinant(m)
    return multimodular_determinant(m)


def bareiss_determinant(m: List[List[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: after step k every entry of the trailing block
    is a (k+1)-minor, so each division by the previous pivot is exact and
    no entry grows past a minor's size."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k][k + 1:]
        pivot = a[k][k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            if f:
                row[k + 1:] = [(x * pivot - f * y) // prev
                               for x, y in zip(row[k + 1:], top)]
            elif pivot != prev:
                row[k + 1:] = [x * pivot // prev for x in row[k + 1:]]
        prev = pivot
    return sign * a[-1][-1] if n else 1


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
