"""Buchberger machinery: S-polynomials, division, iterations, Groebner bases,
initial ideals and their Hilbert data, linear sections certified through
Hilbert series, and normal-form bases of S/I.  Colon ideals, saturation,
ideal membership and division of arbitrary polynomials are no part of it:
the verifier needs none of them, and the tests keep them as oracle code
(``tests/oracle.py``), with a term-by-term division to check this engine.

Two entry points coexist on purpose.  ``buchberger_iteration`` is the literal
one-round procedure (all S-pairs of the current list, divide, keep nonzero
remainders) whose output-size behaviour the verifier measures; it supports a
degree cap so that a truncated initial ideal can be produced by finitely many
rounds.  ``groebner_basis`` is the workhorse: a pair-queue Buchberger whose
pairs pass the Gebauer-Moeller update (switchable off, so that every S-pair
is reduced, for faithful benchmarking) followed by interreduction to the
unique reduced basis.  Both take homogeneous input only, and both divide
with one engine, ``_Reducer``, degree by degree:

* Columns.  An S-polynomial of homogeneous divisors is homogeneous of the
  degree d of its lcm, and so is every step of its division.  The columns
  of degree d are its monomials, packed (``polyring.Packing``) and sorted by
  the order's packed key, smallest first.
* Rows.  A polynomial of degree d is one int with one field per column, so
  its leading term is its top field, found by ``bit_length``.  A division
  step adds (p - c) times a divisor row and drops the top field: fields
  only grow, no field borrows from its neighbour, and a field that is
  0 mod p is dropped as it comes up.  A field starts below p + (p-1)^2 and
  gains at most (p-1)^2 from each column above it, so the field width is
  the bit length of p + (ncols + 1) * (p-1)^2, plus one.
* Divisors.  The row of a reducible monomial is x^q * tail_t for the
  lowest-index divisor t whose leading monomial divides it, as in textbook
  division; it is computed once and kept.  So each remainder is the one of
  term-by-term division, and ``buchberger_iteration`` stays literal.
  Interreduction needs no such rule: a normal form modulo a Groebner basis
  does not depend on the divisors chosen.
* Traffic.  A row pays for its whole degree space, which suits the
  verifier's dense ideals: the largest space is 6,188 columns (6 variables,
  degree 12) over ``corpus --size 500 --seed 2024``, and 715 (5 variables,
  degree 9) on the benchmark's ``dense`` ideals.  A degree whose space is
  large against the divisors' tails (sparse ideals of high degree or in
  many variables) is divided term by term instead, on a heap, with the
  same kept divisors.  A degree of 2^15 or more is refused.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import monomials
from .polyring import (
    GREVLEX,
    Exponents,
    MonomialOrder,
    Packing,
    Poly,
    PolyRing,
    exp_divides,
    exp_gcd,
    exp_sub,
)


class Ideal:
    """A homogeneous ideal given by a finite list of generators.

    Generators are stored monic (grevlex-normalized), nonzero and validated
    homogeneous.  The empty list is allowed and denotes the zero ideal.
    """

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring: PolyRing, gens: Iterable[Poly]):
        stored: list[Poly] = []
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero:
                continue
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g!r}")
            stored.append(g.monic(GREVLEX))
        self.ring = ring
        self.gens = tuple(stored)
        self._cache: dict = {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Iterable[Exponents]) -> "Ideal":
        return cls(ring, [ring.monomial(e) for e in exps])

    # -- inspection -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.gens)

    def monomial_exponents(self) -> tuple[Exponents, ...]:
        if not self.is_monomial:
            raise ValueError("not a monomial ideal")
        return tuple(next(iter(g.terms)) for g in self.gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ideal) and self.ring == other.ring and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.ring, self.gens))

    def __repr__(self) -> str:
        inner = ", ".join(repr(g)[5:-1] for g in self.gens) or "0"
        return f"Ideal({inner})"


class GBasis:
    """A (possibly degree-truncated) Groebner basis.

    From ``groebner_basis`` the elements are a full reduced Groebner basis;
    from ``truncated_initial_generators`` their leading monomials generate
    the initial ideal in every degree up to the truncation degree only.
    """

    __slots__ = ("elements", "order")

    def __init__(self, elements: Sequence[Poly], order: MonomialOrder):
        self.elements = tuple(elements)
        self.order = order

    def leading_monomials(self) -> tuple[Exponents, ...]:
        return tuple(g.leading_monomial(self.order) for g in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


# ---------------------------------------------------------------------------
# division on packed degree rows
# ---------------------------------------------------------------------------

# Groebner input takes exponents below 2^13, and the reducer works in degrees
# below 2^15, where every exponent fits a field (Packing's growth bound).  A
# degree gets rows when it has at most 2^17 monomials (30 MB and 0.15 s to
# list) and at most 64 per term of the widest divisor tail plus one
_PACK_BITS = 13
_MAX_COLUMNS = 1 << 17
_COLUMNS_PER_TERM = 64


class _Reducer:
    """Division engine for a growing divisor list (the module docstring
    gives the design).

    Each divisor is kept monic, as its packed leading monomial in ``lms``
    and its tail, a list of (packed monomial, coefficient) pairs, in
    ``tails``; ``widest`` is the longest tail.  Inputs take exponents below
    2^13 (``Packing``); the order object, not its name, brings the packed
    key, and an order without one raises ValueError.

    ``space(d)`` decides once per degree: (columns, column index, field
    width), listed through ``monomials.memoized`` (once per
    ``instance_scope``) and kept in ``spaces``, or None for a degree divided
    term by term, whose polynomials are dicts {packed monomial: coefficient}.
    A degree of 2^15 or more, where an exponent could outgrow its field,
    raises ValueError before any column is listed.  ``rows`` keeps the
    divisor row of each reducible monomial, in its degree's form; a miss
    keeps in ``misses`` how many divisors were tested, so that only
    divisors appended later are tested again.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder):
        self.ring = ring
        self.order = order
        self.p = ring.char
        self.pk = Packing(ring.nvars, _PACK_BITS)
        if order.packed_key is None:
            raise ValueError(f"monomial order {order!r} has no packed key; the reducer "
                             "supports only orders that carry one, such as grevlex and lex")
        self.keyfn = order.packed_key(self.pk)
        self.lms: list[int] = []
        self.tails: list[list[tuple[int, int]]] = []
        self.widest = 0
        self.rows: dict[int, int | dict[int, int]] = {}
        self.misses: dict[int, int] = {}
        self.spaces: dict[int, tuple[list[int], dict[int, int], int] | None] = {}

    # -- conversion --------------------------------------------------------------

    def to_poly(self, terms: Iterable[tuple[int, int]]) -> Poly:
        unpack = self.pk.unpack
        return Poly(self.ring, {unpack(m): c for m, c in terms}, _normalized=True)

    # -- divisors ----------------------------------------------------------------

    def add_monic(self, lm: int, c: int, tail: list[tuple[int, int]]) -> None:
        """Append the divisor c * x^lm + tail, made monic."""
        if c != 1:
            p = self.p
            inv = pow(c, p - 2, p)
            tail = [(m, v * inv % p) for m, v in tail]
        self.lms.append(lm)
        self.tails.append(tail)
        self.widest = max(self.widest, len(tail))

    def add_divisor(self, g: Poly) -> None:
        """Append the nonzero polynomial g, made monic."""
        pack = self.pk.pack
        terms = {pack(e): c for e, c in g.terms.items()}
        lm = max(terms, key=self.keyfn)
        c = terms.pop(lm)
        self.add_monic(lm, c, list(terms.items()))

    # -- degree rows ---------------------------------------------------------------

    def space(self, d: int) -> tuple[list[int], dict[int, int], int] | None:
        """(columns, column of each monomial, field width) of degree d, or
        None when degree d is reduced term by term."""
        if d not in self.spaces:
            n = self.pk.nvars
            if d >= self.pk.growth:
                raise ValueError(f"degree {d} is out of range: the packed reducer works in degrees below 2^15")
            size = comb(d + n - 1, n - 1)
            if size > min(_MAX_COLUMNS, _COLUMNS_PER_TERM * (self.widest + 1)):
                self.spaces[d] = None
            else:
                cols, index = monomials.memoized(("columns", n, d, self.order), lambda: self._columns(d))
                p = self.p
                self.spaces[d] = (cols, index, (p + (len(cols) + 1) * (p - 1) ** 2).bit_length() + 1)
        return self.spaces[d]

    def _columns(self, d: int) -> tuple[list[int], dict[int, int]]:
        width, n = self.pk.width, self.pk.nvars
        level = [(0, d)]  # (packed exponents so far, degree left)
        for i in range(n - 1):
            level = [(v | (e << (i * width)), r - e) for v, r in level for e in range(r + 1)]
        top, deg = (n - 1) * width, d << self.pk.shift
        cols = sorted((v | (r << top) | deg for v, r in level), key=self.keyfn)
        return cols, {m: i for i, m in enumerate(cols)}

    def row(self, t: int, m: int) -> int | dict[int, int]:
        """x^(m - lm_t) * tail_t as a row of the degree of m, or as a dict."""
        sp = self.space(self.pk.deg(m))
        q = m - self.lms[t]
        if sp is None:
            return {q + e: c for e, c in self.tails[t]}
        _, index, width = sp
        out = 0
        for e, c in self.tails[t]:
            out |= c << (index[q + e] * width)
        return out

    def reducer_row(self, m: int) -> int | dict[int, int] | None:
        """The row of x^m's lowest-index divisor, kept; None when none divides."""
        row = self.rows.get(m)
        if row is not None:
            return row
        guards, lms = self.pk.guards, self.lms
        mg = m | guards
        for t in range(self.misses.get(m, 0), len(lms)):
            if (mg - lms[t]) & guards == guards:
                row = self.rows[m] = self.row(t, m)
                return row
        self.misses[m] = len(lms)
        return None

    def reduce(self, work: int | dict[int, int], d: int) -> list[tuple[int, int]]:
        """The remainder of the row or dict ``work`` of degree d, as (packed
        monomial, coefficient) pairs in decreasing order: the leading term
        first."""
        sp = self.space(d)
        if sp is None:
            return self._reduce_terms(work)
        cols, _, width = sp
        p, rows = self.p, self.rows
        rem: list[tuple[int, int]] = []
        while work:
            i = (work.bit_length() - 1) // width
            top = work >> (i * width)
            work ^= top << (i * width)
            c = top % p
            if c:
                m = cols[i]
                r = rows.get(m)
                if r is None:
                    r = self.reducer_row(m)
                if r is None:
                    rem.append((m, c))
                else:
                    work += (p - c) * r
        return rem

    def _reduce_terms(self, work: dict[int, int]) -> list[tuple[int, int]]:
        # the terms of a reducer row lie below its monomial, so a monomial
        # popped from the heap never comes back
        p, keyfn = self.p, self.keyfn
        heap = [(-keyfn(m), m) for m in work]
        heapq.heapify(heap)
        rem: list[tuple[int, int]] = []
        while heap:
            m = heapq.heappop(heap)[1]
            c = work.pop(m) % p
            if c:
                r = self.reducer_row(m)
                if r is None:
                    rem.append((m, c))
                    continue
                for e, v in r.items():
                    if e not in work:
                        heapq.heappush(heap, (-keyfn(e), e))
                    work[e] = work.get(e, 0) + (p - c) * v
        return rem


def _make_reducer(divisors: Sequence[Poly], order: MonomialOrder) -> _Reducer:
    red = _Reducer(divisors[0].ring, order)
    for g in divisors:
        red.add_divisor(g)
    return red


def _monic_homogeneous(polys: Iterable[Poly], order: MonomialOrder) -> list[Poly]:
    """The nonzero inputs, made monic; inhomogeneous input raises ValueError."""
    out = []
    for g in polys:
        if not g.is_zero:
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous input {g!r}: the reducer divides degree by degree")
            out.append(g.monic(order))
    return out


# ---------------------------------------------------------------------------
# S-polynomials and the literal iteration
# ---------------------------------------------------------------------------

def s_polynomial(f: Poly, g: Poly, order: MonomialOrder = GREVLEX) -> Poly:
    """(in(g)/gcd) * f - (in(f)/gcd) * g for monic f, g."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of the zero polynomial")
    if f.leading_coeff(order) != 1 or g.leading_coeff(order) != 1:
        raise ValueError("S-polynomial inputs must be monic")
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    gcd = exp_gcd(lf, lg)
    return f.mul_term(1, exp_sub(lg, gcd)) - g.mul_term(1, exp_sub(lf, gcd))


def _s_pair(red: _Reducer, i: int, j: int, lcm: int) -> int:
    """The S-polynomial of the reducer's monic divisors i and j, whose
    leading monomials have the packed lcm ``lcm``, as a row of its degree:
    the leading terms cancel, so it is x^(lcm - lm_i) * tail_i plus p - 1
    times x^(lcm - lm_j) * tail_j, added field by field, or term by term
    in a degree without rows."""
    a, b = red.row(i, lcm), red.row(j, lcm)
    if isinstance(a, int):
        return a + (red.p - 1) * b
    for m, c in b.items():
        a[m] = a.get(m, 0) + (red.p - 1) * c
    return a


def buchberger_iteration(
    basis: Sequence[Poly],
    order: MonomialOrder = GREVLEX,
    degree_cap: int | None = None,
) -> list[Poly]:
    """One round: all S-pairs of ``basis``; returns the inputs plus the
    nonzero remainders, made monic.

    Remainders are accumulated into the divisor list as the round proceeds
    (pairs in index order, i < j lexicographic, for reproducibility), so
    that S-polynomials with coinciding leading monomials separate within a
    single round; without this, inputs sharing a leading monomial could
    stall the truncation guarantee.  With ``degree_cap`` set, inputs of
    larger degree are dropped and S-pairs whose S-polynomial degree exceeds
    the cap are skipped.  The output never exceeds n*(n+1)/2 <= n^2
    polynomials for n inputs.  Inhomogeneous input raises ValueError.
    """
    polys = _monic_homogeneous(basis, order)
    if degree_cap is not None:
        polys = [g for g in polys if g.degree() <= degree_cap]

    out = list(polys)
    if len(polys) < 2:
        return out
    seen = set(out)
    # one reducer for the round, extended as ``out`` grows; its first
    # divisors are the inputs, whose S-pairs it forms on packed rows
    red = _make_reducer(polys, order)
    lms, deg = red.lms, red.pk.deg
    for i, j in combinations(range(len(polys)), 2):
        lcm = red.pk.lcm(lms[i], lms[j])
        if degree_cap is not None and deg(lcm) > degree_cap:
            continue
        rem = red.reduce(_s_pair(red, i, j, lcm), deg(lcm))
        if rem:
            r = red.to_poly(rem).monic(order)
            if r not in seen:
                seen.add(r)
                out.append(r)
                red.add_monic(*rem[0], rem[1:])
    return out


def truncated_initial_generators(I: Ideal, order: MonomialOrder, delta: int) -> GBasis:
    """delta-1 capped iterations starting from the generators of degree <= delta.

    The leading monomials of the result generate in(I) in all degrees up to
    delta.  Two or more linear generators are first replaced by their
    reduced basis (``_buchberger`` on linear forms is Gaussian elimination),
    whose leading monomials are distinct.  Dense linear forms share their
    leading monomial, so a first round would turn them into a linear
    remainder whose S-pairs with the other remainders only form in the round
    after: delta-1 rounds would then fall short of in(I)_delta.
    """
    if delta < 1:
        raise ValueError("truncation degree must be >= 1")
    cur: list[Poly] = []
    seen = set()
    for g in I.gens:
        if g.degree() <= delta:
            m = g.monic(order)
            if m not in seen:
                seen.add(m)
                cur.append(m)
    linear = [g for g in cur if g.degree() == 1]
    if len(linear) > 1:
        cur = [g for g in cur if g.degree() > 1] + _buchberger(linear, order, True)
    for _ in range(delta - 1):
        cur = buchberger_iteration(cur, order, degree_cap=delta)
    return GBasis(cur, order)


# ---------------------------------------------------------------------------
# full Groebner bases
# ---------------------------------------------------------------------------

def _interreduce(red: _Reducer) -> list[Poly]:
    """The reduced basis of the reducer's divisors, which form a Groebner
    basis: minimal leading monomials, monic, sorted by increasing leading
    monomial, each tail replaced by its normal form on the reducer's own
    rows (a normal form modulo a Groebner basis does not depend on the
    divisors chosen).  Only the result is converted to ``Poly``."""
    keyfn, divides, lms = red.keyfn, red.pk.divides, red.lms
    minimal: list[int] = []
    for t in sorted(range(len(lms)), key=lambda t: keyfn(lms[t])):
        if not any(divides(lms[h], lms[t]) for h in minimal):
            minimal.append(t)
    out = []
    for t in minimal:
        lm, tail = lms[t], red.tails[t]
        # a tail with no monomial in the initial ideal is reduced as it is
        if any(red.reducer_row(m) is not None for m, _ in tail):
            tail = red.reduce(red.row(t, lm), red.pk.deg(lm))
        g = red.to_poly(tail + [(lm, 1)])
        g._lead = (red.order, red.pk.unpack(lm))  # fill Poly's cache: lm is known
        out.append(g)
    return out


def _buchberger(polys: Sequence[Poly], order: MonomialOrder, use_criterion: bool) -> list[Poly]:
    """Pair-queue Buchberger with the Gebauer-Moeller update, on packed
    degree rows from the first S-pair to the interreduced basis.

    Normal selection: the pending pair (i, j) with the smallest lcm by
    ``order.key`` goes first, ties broken by (i, j).  Each new element h,
    input or nonzero remainder, passes through the update (Gebauer & Moeller
    1988; UPDATE in Becker & Weispfenning 1993, section 5.5):

    * a new pair (g, h) whose leading monomials are not coprime is dropped
      when another new pair, later in the list or already kept, has an lcm
      dividing its lcm; then the kept new pairs with coprime leading
      monomials are dropped (product criterion);
    * a pending pair (a, b) is dropped when lm(h) divides lcm(a, b) and
      lcm(a, h), lcm(b, h) both differ from it (lazily: it leaves ``live``
      and is skipped when popped);
    * every g with lm(h) | lm(g) leaves the active set, so it forms no more
      pairs; the reducer keeps every element as a divisor.

    With ``use_criterion=False`` the update keeps every pair and every
    element active: every S-pair is reduced.  The basis lives in the
    reducer as packed (leading monomial, tail) pairs; two leading monomials
    are coprime exactly when their packed lcm is their packed product.
    """
    G = list(dict.fromkeys(_monic_homogeneous(polys, order)))
    if not G:
        return []
    red = _make_reducer(G, order)
    lms = red.lms
    lcm_of, divides, keyfn = red.pk.lcm, red.pk.divides, red.keyfn
    pairs: list[tuple[int, int, int]] = []
    live: dict[tuple[int, int], int] = {}
    active: list[int] = []

    def update(k: int) -> None:
        h = lms[k]
        new = [(t, lcm_of(lms[t], h)) for t in active]
        if use_criterion:
            for (a, b), lcm in list(live.items()):
                if divides(h, lcm) and lcm_of(lms[a], h) != lcm and lcm_of(lms[b], h) != lcm:
                    del live[(a, b)]
            kept = []
            for n, (t, lcm) in enumerate(new):
                if lcm == lms[t] + h or not any(divides(other, lcm) for _, other in kept + new[n + 1:]):
                    kept.append((t, lcm))
            new = [(t, lcm) for t, lcm in kept if lcm != lms[t] + h]
            active[:] = [t for t in active if not divides(h, lms[t])]
        for t, lcm in new:
            live[(t, k)] = lcm
            heapq.heappush(pairs, (keyfn(lcm), t, k))
        active.append(k)

    for k in range(len(G)):
        update(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        rem = red.reduce(_s_pair(red, i, j, lcm), red.pk.deg(lcm))
        if rem:
            red.add_monic(*rem[0], rem[1:])
            update(len(lms) - 1)
    return _interreduce(red)


def groebner_basis(I: Ideal, order: MonomialOrder = GREVLEX, use_criterion: bool = True) -> GBasis:
    """The reduced Groebner basis of I (auto-reduced, monic, canonical)."""
    if I.is_zero:
        return GBasis((), order)
    return GBasis(_buchberger(I.gens, order, use_criterion), order)


def reduced_gb(I: Ideal, order: MonomialOrder = GREVLEX) -> GBasis:
    """Cached reduced Groebner basis of I."""
    key = ("gb", order)
    gb = I._cache.get(key)
    if gb is None:
        gb = groebner_basis(I, order)
        I._cache[key] = gb
    return gb


def initial_exponents(I: Ideal, order: MonomialOrder = GREVLEX) -> tuple[Exponents, ...]:
    """Minimal generating exponents of the initial ideal in_order(I)."""
    return monomials.minimalize(reduced_gb(I, order).leading_monomials())


# ---------------------------------------------------------------------------
# Hilbert data of a homogeneous ideal (through its initial ideal)
# ---------------------------------------------------------------------------

def hilbert_numerator_of(I: Ideal) -> dict[int, int]:
    """Numerator of the Hilbert series of S/I (grevlex staircase)."""
    key = "hilbnum"
    out = I._cache.get(key)
    if out is None:
        out = monomials.hilbert_numerator(initial_exponents(I), I.ring.nvars)
        I._cache[key] = out
    return out


def quotient_dimension(I: Ideal) -> int:
    """Krull dimension of S/I (order-insensitive; computed on the staircase)."""
    return monomials.quotient_dimension(initial_exponents(I), I.ring.nvars)


# ---------------------------------------------------------------------------
# linear sections and Hilbert-certified regularity
# ---------------------------------------------------------------------------

def substitute_linear_form(I: Ideal, ell: Poly) -> Ideal:
    """The image of I in S/(ell) = k[remaining variables].

    ell must be a nonzero linear form; the variable with the largest index
    among those appearing in ell is eliminated.
    """
    ring = I.ring
    if ell.ring != ring or ell.is_zero or ell.degree() != 1:
        raise ValueError("need a nonzero linear form in the same ring")
    if ring.nvars == 1:
        raise ValueError("cannot eliminate the last variable")
    p = ring.char
    coeffs = [0] * ring.nvars
    for e, c in ell.terms.items():
        coeffs[e.index(1)] = c
    k = max(i for i, c in enumerate(coeffs) if c)
    inv = pow(coeffs[k], p - 2, p)
    small = PolyRing(ring.nvars - 1, p, tuple(n for i, n in enumerate(ring.names) if i != k))
    # x_k -> -inv * sum_{j != k} c_j x_j, indices shifted past k
    image = small.linear_form([(-inv * c) % p for i, c in enumerate(coeffs) if i != k])
    powers: dict[int, Poly] = {0: small.one(), 1: image}

    def img_pow(n: int) -> Poly:
        if n not in powers:
            powers[n] = img_pow(n - 1) * image
        return powers[n]

    new_gens = []
    for g in I.gens:
        acc: dict[Exponents, int] = {}
        for e, c in g.terms.items():
            base = tuple(x for i, x in enumerate(e) if i != k)
            for m, v in img_pow(e[k]).terms.items():
                t = tuple(x + y for x, y in zip(m, base))
                acc[t] = acc.get(t, 0) + c * v
        new_gens.append(Poly(small, {t: v % p for t, v in acc.items() if v % p}, _normalized=True))
    return Ideal(small, new_gens)


def form_regularity_with_image(I: Ideal, ell: Poly) -> tuple[bool, bool, Ideal | None]:
    """(regular, filter_regular, image) for a linear form on S/I.

    Certified through Hilbert series numerators: with K the numerator of S/I
    over N variables and K' the numerator of S/(I + ell) over N-1 variables,
    ell is regular iff K' == K, and filter regular iff K' - K is divisible by
    (1-z)^(N-1), i.e. the annihilator of ell has finite length.  ``image`` is
    the substituted ideal of ``substitute_linear_form`` (None when N = 1), so
    callers that accept the form can keep its cached staircase data.
    """
    ring = I.ring
    if ell.is_zero or ell.degree() != 1:
        raise ValueError("need a nonzero linear form")
    K = hilbert_numerator_of(I)
    if ring.nvars == 1:
        # S/I has finite length (or I = 0); any nonzero form is filter regular
        return I.is_zero, True, None
    J = substitute_linear_form(I, ell)
    K2 = hilbert_numerator_of(J)
    if K2 == K:
        return True, True, J
    diff = dict(K2)
    for d, c in K.items():
        nc = diff.get(d, 0) - c
        if nc:
            diff[d] = nc
        else:
            diff.pop(d, None)
    # divide by (1-z)^(N-1); division by (1-z) is partial summation
    for _ in range(ring.nvars - 1):
        if not diff:
            break
        total = sum(diff.values())
        if total != 0:
            return False, False, J
        acc = 0
        out: dict[int, int] = {}
        for d in range(max(diff) + 1):
            acc += diff.get(d, 0)
            if acc:
                out[d] = acc
        diff = out
    return False, True, J


def draw_certified_form(
    I: Ideal, rng: random.Random, tries: int, need_regular: bool
) -> tuple[list[int], bool, Ideal | None] | None:
    """Draw random linear forms on S/I until one passes its certificate.

    Each of ``tries`` draws takes one coefficient per variable from ``rng``
    (an all-zero draw is spent without a test) and is certified by
    ``form_regularity_with_image``.  The first form that is regular, or
    filter regular when ``need_regular`` is false, is returned as
    ``(coeffs, regular, image)``; None when every draw failed.
    """
    ring = I.ring
    for _ in range(tries):
        coeffs = [rng.randrange(ring.char) for _ in range(ring.nvars)]
        if not any(coeffs):
            continue
        regular, filter_regular, image = form_regularity_with_image(I, ring.linear_form(coeffs))
        if regular or (filter_regular and not need_regular):
            return coeffs, regular, image
    return None


# ---------------------------------------------------------------------------
# normal-form bases of S/I, degree by degree
# ---------------------------------------------------------------------------

class QuotientBasis:
    """Standard-monomial bases of S/I with normal-form arithmetic.

    The degree-d piece of S/I is spanned by the monomials of degree d outside
    the initial ideal; every monomial rewrites to a vector over that basis by
    division against the reduced grevlex Groebner basis.
    """

    def __init__(self, I: Ideal):
        self.ring = I.ring
        gb = reduced_gb(I, GREVLEX)
        self.gb = list(gb.elements)
        self.lms = list(gb.leading_monomials())
        self.staircase = monomials.minimalize(self.lms)
        self._std: list[list[Exponents]] = []
        self._idx: list[dict[Exponents, int]] = []
        self._nf: dict[Exponents, dict[Exponents, int]] = {}

    def _extend(self, d: int) -> None:
        while len(self._std) <= d:
            have = len(self._std)
            if have == 0:
                zero = (0,) * self.ring.nvars
                level = [] if monomials.member(zero, self.staircase) else [zero]
            else:
                prev = self._std[have - 1]
                nxt = set()
                for e in prev:
                    for t in range(self.ring.nvars):
                        m = e[:t] + (e[t] + 1,) + e[t + 1:]
                        if m not in nxt and not monomials.member(m, self.staircase):
                            nxt.add(m)
                level = sorted(nxt)
            self._std.append(level)
            self._idx.append({m: i for i, m in enumerate(level)})

    def std(self, d: int) -> list[Exponents]:
        if d < 0:
            return []
        self._extend(d)
        return self._std[d]

    def index(self, d: int) -> dict[Exponents, int]:
        self._extend(d)
        return self._idx[d]

    def dim(self, d: int) -> int:
        return len(self.std(d))

    def nf_monomial(self, m: Exponents) -> dict[Exponents, int]:
        """Normal form of the monomial x^m as {standard monomial: coeff}."""
        cached = self._nf.get(m)
        if cached is not None:
            return cached
        p = self.ring.char
        stack = [m]
        while stack:
            cur = stack[-1]
            if cur in self._nf:
                stack.pop()
                continue
            div = next((i for i, lm in enumerate(self.lms) if exp_divides(lm, cur)), None)
            if div is None:
                self._nf[cur] = {cur: 1}
                stack.pop()
                continue
            q = exp_sub(cur, self.lms[div])
            deps = []
            tail = []
            for e, c in self.gb[div].terms.items():
                if e == self.lms[div]:
                    continue
                me = tuple(x + y for x, y in zip(q, e))
                tail.append((me, c))
                if me not in self._nf:
                    deps.append(me)
            if deps:
                stack.extend(deps)
                continue
            out: dict[Exponents, int] = {}
            for me, c in tail:
                for sm, sc in self._nf[me].items():
                    nc = (out.get(sm, 0) - c * sc) % p
                    if nc:
                        out[sm] = nc
                    else:
                        out.pop(sm, None)
            self._nf[cur] = out
            stack.pop()
        return self._nf[m]

    def mult_columns(self, t: int, d: int) -> list[dict[int, int]]:
        """Multiplication by x_t from degree d to d+1, one sparse column per
        standard monomial of degree d (entries indexed into std(d+1))."""
        idx_up = self.index(d + 1)
        cols = []
        for u in self.std(d):
            m = u[:t] + (u[t] + 1,) + u[t + 1:]
            vec = self.nf_monomial(m)
            cols.append({idx_up[sm]: c for sm, c in vec.items()})
        return cols
