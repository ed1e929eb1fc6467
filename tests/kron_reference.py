"""Two-current blocks as dense Kronecker products: the reference the
block assembly of ``w3lab.fock`` is compared against.

Mode n of sum over rows c * F1 F2 on V_level, V_level the sum over splits
l1 + l2 = level of P(l1) (x) P(l2).  Rows sharing a sector-2 family are
summed in sector 1 first; each (split, k) then adds the whole dense
Kronecker product of the sector-1 block, which may span several levels,
and the level-homogeneous sector-2 block, one target level at a time.
"""

from typing import List, Optional

import numpy as np

from w3lab.fock import _FOCK, _SECTOR, Block, Row, _split_offsets


def assemble(real, n: int, rows: List[Row], level: int) -> Optional[Block]:
    """The block (lo, hi, M) of the realization ``real``, M dense over the
    levels lo..hi it reaches; None when mode n kills V_level."""
    hi = level - n
    if hi < 0:
        return None
    groups = {}
    for c, f1, f2 in rows:
        if c != 0:
            groups[f2] = groups.get(f2, ()) + ((c, f1),)
    out = np.zeros((_FOCK.cum(hi + 1), _FOCK.dim(level)), dtype=complex)
    cols = _split_offsets(level)
    cur1, cur2 = real._currents
    for s1 in range(level + 1):
        s2 = level - s1
        for f2, group in groups.items():
            for k in range(n - s2, s1 + 1):
                b = cur2.block(f2, n - k, s2)
                a = None if b is None else _SECTOR.combine(
                    (c, cur1.block(f, k, s1)) for c, f in group)
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
