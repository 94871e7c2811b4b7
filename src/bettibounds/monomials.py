"""Combinatorics of monomial ideals, given by lists of exponent vectors.

These helpers treat a monomial ideal as the set of monomials divisible by at
least one generator.  They back the staircase computations used everywhere
else: normal-form bases, Hilbert series numerators, Krull dimension and the
lcm closures of the monomial strands.

The checks of one instance ask for the same tables again: generic linear
forms of two seeds give the same initial ideal (Galligo 1974; Bayer &
Stillman, Invent. Math. 87, 1987).  Inside ``instance_scope`` a result kept
by ``memoized`` is reused; the memo is dropped when the scope exits, and
outside any scope nothing is kept.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .polyring import Exponents, Packing, exp_divides


T = TypeVar("T")

_memo: ContextVar[dict | None] = ContextVar("bettibounds_instance_memo", default=None)


@contextmanager
def instance_scope() -> Iterator[None]:
    """A fresh memo for the checks of one instance, dropped on exit."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def memoized(key: Hashable, compute: Callable[[], T]) -> T:
    """compute(), kept under ``key`` in the memo of the current
    ``instance_scope``; recomputed every time outside a scope.  Callers hand
    out copies, since the kept value is shared."""
    memo = _memo.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _minimal_packed(packed: Iterable[int], guards: int) -> list[int]:
    """The packed monomials, distinct and in nondecreasing degree, that no
    earlier one divides (the guarded subtraction of ``Packing.divides``)."""
    kept: list[int] = []
    for m in packed:
        mg = m | guards
        for h in kept:
            if (mg - h) & guards == guards:
                break
        else:
            kept.append(m)
    return kept


def minimalize(gens: Iterable[Exponents]) -> tuple[Exponents, ...]:
    """Minimal generators: drop every monomial divisible by another one."""
    gs = sorted(set(tuple(g) for g in gens), key=lambda e: (sum(e), e))
    out: list[Exponents] = []
    for g in gs:
        if not any(exp_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def member(e: Exponents, gens: Sequence[Exponents]) -> bool:
    """Is x^e in the ideal generated by gens?"""
    return any(exp_divides(g, e) for g in gens)


def of_degree(nvars: int, d: int) -> Iterator[Exponents]:
    """All exponent vectors of total degree d, in lex order from (0, ..., 0, d)."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in of_degree(nvars - 1, d - first):
            yield (first,) + rest


def quotient_dimension(gens: Sequence[Exponents], nvars: int) -> int:
    """Krull dimension of S/(gens).

    Equals the largest size of a variable subset T such that no generator is
    supported inside T; the complement of such a T is a vertex cover of the
    supports.
    """
    gens = minimalize(gens)
    if not gens:
        return nvars
    if any(sum(g) == 0 for g in gens):
        return -1  # unit ideal: the quotient is the zero ring
    supports = [frozenset(i for i, x in enumerate(g) if x) for g in gens]
    for size in range(nvars, -1, -1):
        for T in combinations(range(nvars), size):
            Tset = set(T)
            if all(not s <= Tset for s in supports):
                return size
    return 0


def lcm_closure(gens: Sequence[int], pk: Packing, limit: int = 500_000) -> set[int]:
    """All lcms of nonempty subsets of gens, packed by ``pk``: the join
    closure under componentwise max.

    ``gens`` are the packed minimal generators.  The max is SWAR over the
    guard bits of ``pk``, as in ``Packing.lcm``; a closure of more than
    ``limit`` monomials raises RuntimeError.
    """
    guards, emask, ones, fmask = pk.guards, pk.emask, pk.ones, pk.fmask
    low, top, shift = pk.width - 1, pk.shift - pk.width, pk.shift
    closure: set[int] = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            ag = a | guards
            for g in gens:
                d = (ag - g) & guards
                pick = (d << 1) - (d >> low)
                e = (g ^ ((a ^ g) & pick)) & emask
                j = ((((e * ones) >> top) & fmask) << shift) | e
                if j not in closure:
                    closure.add(j)
                    nxt.append(j)
                    if len(closure) > limit:
                        raise RuntimeError("lcm closure too large")
        frontier = nxt
    return closure


# ---------------------------------------------------------------------------
# Hilbert series numerator
# ---------------------------------------------------------------------------

def _poly_sub_shifted(a: dict[int, int], b: dict[int, int], shift: int) -> dict[int, int]:
    out = dict(a)
    for d, c in b.items():
        nd = d + shift
        nc = out.get(nd, 0) - c
        if nc:
            out[nd] = nc
        else:
            out.pop(nd, None)
    return out


def hilbert_numerator(gens: Sequence[Exponents], nvars: int) -> dict[int, int]:
    """Numerator K(z) of the Hilbert series of S/(gens), as degree -> coeff.

    HS_{S/J}(z) = K(z) / (1-z)^N.  Computed by splitting off one generator u:
    with J = J' + (u) there is an exact sequence identifying K(S/J) with
    K(S/J') - z^deg(u) * K(S/(J':u)).  Pairwise-coprime generators short-cut
    to a product of (1 - z^d) factors.

    The recursion runs on monomials packed with the width of the largest
    exponent present: x^g : x^u keeps g_t - u_t in the fields where the
    guarded subtraction (g | guards) - u keeps its guard bit and 0 elsewhere,
    and supports are the guard bits of (g | guards) - (1, ..., 1).  Within an
    ``instance_scope`` each numerator is computed once per minimal generators
    and ``nvars``; every call gets its own copy.
    """
    gens = minimalize(gens)
    return dict(memoized(("hilbert", gens, nvars), lambda: _hilbert_numerator(gens, nvars)))


def _hilbert_numerator(gens: tuple[Exponents, ...], nvars: int) -> dict[int, int]:
    if not gens:
        return {0: 1}
    pk = Packing.for_exponents(nvars, gens)
    guards, ones, emask, fmask = pk.guards, pk.ones, pk.emask, pk.fmask
    low, top, shift = pk.width - 1, pk.shift - pk.width, pk.shift
    memo: dict[tuple[int, ...], dict[int, int]] = {}

    def colon(g: int, u: int) -> int:
        d = (g | guards) - u
        sel = d & guards
        e = d & (((sel << 1) - (sel >> low)) ^ sel)
        return ((((e * ones) >> top) & fmask) << shift) | e

    def run(gs: tuple[int, ...]) -> dict[int, int]:
        # gs: minimal, in increasing packed order (so by degree first)
        if not gs:
            return {0: 1}
        if not gs[0]:
            return {}
        if gs in memo:
            return memo[gs]
        seen = 0
        for g in gs:
            supp = ((g & emask) | guards) - ones & guards
            if seen & supp:
                break
            seen |= supp
        else:
            out = {0: 1}
            for g in gs:
                out = _poly_sub_shifted(out, out, g >> shift)
            memo[gs] = out
            return out
        u = gs[-1]
        rest = gs[:-1]
        a = run(rest)
        b = run(tuple(_minimal_packed(sorted({colon(g, u) for g in rest}), guards)))
        out = _poly_sub_shifted(a, b, u >> shift)
        memo[gs] = out
        return out

    return run(tuple(sorted(pk.pack(g) for g in gens)))

