"""Exact linear algebra over F_p: a dense numpy rank and a sparse Python one.

* ``rank_mod_p`` eliminates a dense matrix in numpy int64.  Entries stay
  below p < 2^31 (``polyring.MAX_CHAR``), so p^2 < 2^63 and int64 products
  never overflow during a single elimination step.  The Koszul ranks of
  ``resolution.koszul_betti`` on non-monomial ideals,
  ``invariants.socle_degrees`` and the
  ``groebner.homogeneous_component_dim`` oracle use it.
* ``rank_sparse_mod_p`` eliminates sparse vectors ``{index: value}`` with
  Python ints, so it has no int64 bound and no per-call numpy set-up.  The
  monomial strands of ``resolution.monomial_betti``, whose boundary matrices
  are small and mostly zero, use it.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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


def rank_sparse_mod_p(vectors: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank over F_p of sparse vectors, each a mapping ``{index: value}``.

    Gaussian elimination with Python ints: every vector is reduced by the
    monic pivot at its smallest index until it vanishes or its smallest
    index has no pivot yet, where it becomes the new pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = {i: c % p for i, c in vec.items() if c % p}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {i: c * inv % p for i, c in v.items()}
                break
            c = v[lead]
            for i, pc in piv.items():
                nc = (v.get(i, 0) - c * pc) % p
                if nc:
                    v[i] = nc
                else:
                    del v[i]
    return len(pivots)
