"""Dense exact linear algebra over F_p, numpy-backed.

Entries stay below p < 2^31 (``polyring.MAX_CHAR``), so p^2 < 2^63 and int64
products never overflow during a single elimination step.
"""

from __future__ import annotations

import numpy as np


def rank_mod_p(A, p: int) -> int:
    """Rank over F_p of a dense integer matrix (any array-like)."""
    M = np.asarray(A, dtype=np.int64)
    if M.size == 0:
        return 0
    M = np.ascontiguousarray(M % p)
    rows, cols = M.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv], c:] = M[[piv, r], c:]
        inv = pow(int(M[r, c]), p - 2, p)
        if inv != 1:
            M[r, c:] = (M[r, c:] * inv) % p
        below = M[r + 1:, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            idx = r + 1 + nzb
            M[idx, c:] = (M[idx, c:] - np.outer(M[idx, c], M[r, c:])) % p
        r += 1
    return r
