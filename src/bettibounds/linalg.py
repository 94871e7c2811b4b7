"""Exact linear algebra over F_p: one rank, by sparse Gaussian elimination.

``rank_mod_p`` takes vectors ``{index: value}`` and eliminates them with
Python ints, so any characteristic works and nothing overflows.  Every rank
of the package goes through it: the Koszul ranks and monomial strands of
``resolution``, ``invariants.socle_degrees`` and the
``groebner.homogeneous_component_dim`` oracle.  Rows or columns of a matrix
give the same rank, so each caller passes whichever it builds more easily.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def rank_mod_p(vectors: Sequence[Mapping[int, int]], p: int) -> int:
    """Rank over F_p of sparse vectors, each a mapping ``{index: value}``.

    Gaussian elimination with Python ints, shortest vectors first, which
    keeps the pivots sparse: every vector is reduced by the monic pivot at
    its smallest index until it vanishes or its smallest index has no pivot
    yet, where it becomes the new pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in sorted(vectors, key=len):
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
