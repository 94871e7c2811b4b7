"""Buchberger machinery: S-polynomials, division, iterations, Groebner bases,
initial ideals, colon ideals and saturation.

Two entry points coexist on purpose.  ``buchberger_iteration`` is the literal
one-round procedure (all S-pairs of the current list, divide, keep nonzero
remainders) whose output-size behaviour the verifier measures; it supports a
degree cap so that a truncated initial ideal can be produced by finitely many
rounds.  ``groebner_basis`` is the workhorse: a pair-queue Buchberger whose
pairs pass the Gebauer-Moeller update (switchable off, so that every S-pair
is reduced, for faithful benchmarking) followed by interreduction to the
unique reduced basis, all on packed monomials (``polyring.Packing``).
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from . import monomials
from .linalg import rank_mod_p
from .polyring import (
    GREVLEX,
    LEX,
    Exponents,
    MonomialOrder,
    Packing,
    Poly,
    PolyRing,
    exp_divides,
    exp_gcd,
    exp_mul,
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
# division with remainder, on packed monomials
# ---------------------------------------------------------------------------

# Groebner input takes exponents below 2^13; products may grow to 2^15
# before the reducer refuses them (Packing's growth bound)
_PACK_BITS = 13


def _packed_key_fn(order: MonomialOrder, pk: Packing):
    """Monomial-order key on packed monomials, as a single integer.

    Bigger key = bigger monomial.  The order object itself, not its name,
    selects the key: only ``LEX``, ``GREVLEX`` and ``_ELIM_GREVLEX`` have
    one, and any other order is refused.
    """
    shift, shift1 = pk.shift, pk.shift + 1
    if order is GREVLEX:
        def key(m: int) -> int:
            return ((m >> shift) << shift1) - m
        return key
    if order is _ELIM_GREVLEX:
        # the first variable's exponent above the grevlex key, whose values
        # lie in (-2^shift, 2^(2 shift))
        fmask, top = pk.fmask, 2 * shift + 1

        def key(m: int) -> int:
            return ((m & fmask) << top) + ((m >> shift) << shift1) - m
        return key
    if order is LEX:
        # the fields in reverse, so that x_1 is the most significant
        width, fmask, nvars = pk.width, pk.fmask, pk.nvars

        def key(m: int) -> int:
            k = 0
            for _ in range(nvars):
                k = (k << width) | (m & fmask)
                m >>= width
            return k
        return key
    raise ValueError(f"monomial order {order!r} has no packed key; the reducer "
                     "supports only the module's grevlex, lex and elim+grevlex orders")


class _Reducer:
    """Division engine for a growing divisor list, on packed monomials.

    Monomials use the engine's ``Packing`` (exponents below 2^13 on input),
    so a monomial product is one addition and a divisibility test is one
    guarded subtraction.  Each divisor is kept monic, as its packed leading
    monomial in ``lms`` and its tail, a list of (packed monomial, coefficient)
    pairs, in ``tails``; ``_buchberger`` keeps its whole basis here, and only
    ``pack_terms`` and ``to_poly`` convert to and from ``Poly`` terms.  An
    input exponent of 2^13 or more, a product exponent of 2^15 or more, or an
    order without a packed key raises ValueError.

    Standard expression contract: every quotient term q satisfies
    in(q * g_t) <= in(f), and no monomial of the remainder is divisible by
    any in(g_t).  Ties between applicable divisors go to the lowest index.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder):
        self.ring = ring
        self.order = order
        self.p = ring.char
        self.pk = Packing(ring.nvars, _PACK_BITS)
        self.keyfn = _packed_key_fn(order, self.pk)
        self.lms: list[int] = []
        self.tails: list[list[tuple[int, int]]] = []

    # -- conversion --------------------------------------------------------------

    def pack_terms(self, terms: Mapping[Exponents, int]) -> dict[int, int]:
        pack = self.pk.pack
        return {pack(e): c for e, c in terms.items()}

    def to_poly(self, terms: dict[int, int]) -> Poly:
        unpack = self.pk.unpack
        return Poly(self.ring, {unpack(m): c for m, c in terms.items()}, _normalized=True)

    # -- divisors ----------------------------------------------------------------

    def add_monic(self, terms: dict[int, int]) -> None:
        """Append the nonzero polynomial ``terms`` (consumed), made monic."""
        p = self.p
        lm = max(terms, key=self.keyfn)
        c = terms.pop(lm)
        if c != 1:
            inv = pow(c, p - 2, p)
            terms = {m: v * inv % p for m, v in terms.items()}
        self.lms.append(lm)
        self.tails.append(list(terms.items()))

    def add_divisor(self, g: Poly) -> None:
        """Append a monic polynomial."""
        self.add_monic(self.pack_terms(g.terms))

    # -- reduction -----------------------------------------------------------------

    def reduce(self, work: dict[int, int], want_quotients: bool = False, skip: int | None = None):
        """(quotient dicts or None, remainder dict) of the packed polynomial
        ``work``, which is consumed; all keys are packed monomials."""
        p = self.p
        keyfn = self.keyfn
        guards = self.pk.guards
        overflow = self.pk.overflow
        lms = self.lms
        tails = self.tails
        nq = len(lms)
        heap = []
        for m in work:
            if m & overflow:
                raise ValueError("exponent growth reached 2^15 inside the packed reducer")
            heap.append((-keyfn(m), m))
        heapq.heapify(heap)
        push = heapq.heappush
        pop = heapq.heappop
        rem: dict[int, int] = {}
        quots: list[dict[int, int]] | None = [dict() for _ in range(nq)] if want_quotients else None

        while heap:
            _, m = pop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            mg = m | guards
            hit = -1
            for t in range(nq):
                if t != skip and (mg - lms[t]) & guards == guards:
                    hit = t
                    break
            if hit < 0:
                rem[m] = c
                continue
            q = m - lms[hit]
            if quots is not None:
                qd = quots[hit]
                qd[q] = (qd.get(q, 0) + c) % p
            for e, gc in tails[hit]:
                me = q + e
                cur = work.get(me)
                if cur is None:
                    if me & overflow:
                        raise ValueError("exponent growth reached 2^15 inside the packed reducer")
                    nc = (-c * gc) % p
                    if nc:
                        work[me] = nc
                        push(heap, (-keyfn(me), me))
                else:
                    nc = (cur - c * gc) % p
                    if nc:
                        work[me] = nc
                    else:
                        del work[me]
        return quots, rem


def _make_reducer(divisors: Sequence[Poly], order: MonomialOrder) -> _Reducer:
    if not divisors:
        raise ValueError("empty divisor list")
    red = _Reducer(divisors[0].ring, order)
    for g in divisors:
        red.add_divisor(g)
    return red


def _reduce(f: Poly, divisors: Sequence[Poly], order: MonomialOrder, want_quotients: bool):
    if not divisors:
        return ([] if want_quotients else None), f
    red = _make_reducer(divisors, order)
    quots, rem = red.reduce(red.pack_terms(f.terms), want_quotients)
    r = red.to_poly(rem)
    if quots is None:
        return None, r
    return [red.to_poly(qd) for qd in quots], r


def divide(f: Poly, divisors: Sequence[Poly], order: MonomialOrder = GREVLEX) -> tuple[list[Poly], Poly]:
    """Division algorithm: f = sum q_t * g_t + r as a standard expression."""
    for g in divisors:
        if g.is_zero:
            raise ValueError("zero divisor polynomial")
        if g.leading_coeff(order) != 1:
            raise ValueError("divisors must be monic")
    qs, r = _reduce(f, divisors, order, want_quotients=True)
    return qs, r


def normal_form(f: Poly, divisors: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of f on division by the (monic) divisors."""
    _, r = _reduce(f, divisors, order, want_quotients=False)
    return r


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


def _s_pair(red: _Reducer, i: int, j: int, lcm: int) -> dict[int, int]:
    """The S-polynomial of the reducer's monic divisors i and j, whose
    leading monomials have the packed lcm ``lcm``, as packed terms: the
    leading terms cancel, so it is (lcm - lm_i) * tail_i - (lcm - lm_j) * tail_j."""
    p = red.p
    a = lcm - red.lms[i]
    b = lcm - red.lms[j]
    s = {a + e: c for e, c in red.tails[i]}
    for e, c in red.tails[j]:
        m = b + e
        nc = (s.get(m, 0) - c) % p
        if nc:
            s[m] = nc
        else:
            del s[m]
    return s


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
    polynomials for n inputs.
    """
    polys = [g.monic(order) for g in basis if not g.is_zero]
    if degree_cap is not None:
        for g in polys:
            if not g.is_homogeneous():
                raise ValueError("degree-capped iteration needs homogeneous input")
        polys = [g for g in polys if g.degree() <= degree_cap]

    out = list(polys)
    if len(polys) < 2:
        return out
    seen = set(out)
    # one reducer for the round, extended as ``out`` grows; its first
    # divisors are the inputs, whose S-pairs it forms on packed terms
    red = _make_reducer(polys, order)
    lms = red.lms
    for i, j in combinations(range(len(polys)), 2):
        lcm = red.pk.lcm(lms[i], lms[j])
        if degree_cap is not None and red.pk.deg(lcm) > degree_cap:
            continue
        s = _s_pair(red, i, j, lcm)
        if not s:
            continue
        _, rem = red.reduce(s)
        if rem:
            r = red.to_poly(rem).monic(order)
            if r not in seen:
                seen.add(r)
                out.append(r)
                red.add_divisor(r)
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
    """The reduced basis of the reducer's divisors: minimal leading
    monomials, fully tail-reduced, monic, sorted by increasing leading
    monomial.  Only the result is converted to ``Poly``."""
    keyfn, divides = red.keyfn, red.pk.divides
    minimal = _Reducer(red.ring, red.order)
    for t in sorted(range(len(red.lms)), key=lambda t: keyfn(red.lms[t])):
        lm = red.lms[t]
        if not any(divides(h, lm) for h in minimal.lms):
            minimal.lms.append(lm)
            minimal.tails.append(red.tails[t])
    out = []
    for i, lm in enumerate(minimal.lms):
        work = dict(minimal.tails[i])
        if len(minimal.lms) > 1:
            _, work = minimal.reduce(work, skip=i)
        work[lm] = 1
        g = minimal.to_poly(work)
        g._lead = (red.order, red.pk.unpack(lm))  # fill Poly's cache: lm is known
        out.append(g)
    return out


def _buchberger(polys: Sequence[Poly], order: MonomialOrder, use_criterion: bool) -> list[Poly]:
    """Pair-queue Buchberger with the Gebauer-Moeller update, on packed
    monomials from the first S-pair to the interreduced basis.

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
    G: list[Poly] = []
    seen = set()
    for g in polys:
        if not g.is_zero:
            m = g.monic(order)
            if m not in seen:
                seen.add(m)
                G.append(m)
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
        s = _s_pair(red, i, j, lcm)
        if not s:
            continue
        _, rem = red.reduce(s)
        if not rem:
            continue
        red.add_monic(rem)
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


def contains_poly(I: Ideal, f: Poly, order: MonomialOrder = GREVLEX) -> bool:
    if f.is_zero:
        return True
    gb = reduced_gb(I, order)
    if not gb.elements:
        return False
    return normal_form(f, gb.elements, order).is_zero


def contains_ideal(I: Ideal, J: Ideal) -> bool:
    """Is J a subset of I?"""
    return all(contains_poly(I, g) for g in J.gens)


def ideals_equal(I: Ideal, J: Ideal) -> bool:
    """Mathematical equality, via canonical reduced Groebner bases."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    return reduced_gb(I, GREVLEX).elements == reduced_gb(J, GREVLEX).elements


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


def quotient_hilbert_function(I: Ideal, d: int) -> int:
    """dim_k (S/I)_d, from the cached numerator of ``hilbert_numerator_of``."""
    if d < 0:
        return 0
    n = I.ring.nvars
    return sum(c * comb(d - j + n - 1, n - 1) for j, c in hilbert_numerator_of(I).items() if j <= d)


def quotient_dimension(I: Ideal) -> int:
    """Krull dimension of S/I (order-insensitive; computed on the staircase)."""
    return monomials.quotient_dimension(initial_exponents(I), I.ring.nvars)


def homogeneous_component_dim(I: Ideal, d: int) -> int:
    """dim_k I_d by straight row reduction of the span of monomial multiples.

    Independent of any Groebner computation; used as a cross-check oracle.
    """
    ring = I.ring
    mono_index = {m: idx for idx, m in enumerate(monomials.of_degree(ring.nvars, d))}
    rows = []
    for g in I.gens:
        gd = g.degree()
        if gd > d:
            continue
        for m in monomials.of_degree(ring.nvars, d - gd):
            rows.append({mono_index[exp_mul(e, m)]: c for e, c in g.terms.items()})
    return rank_mod_p(rows, ring.char)


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
# colon ideals and saturation
# ---------------------------------------------------------------------------

_ELIM_GREVLEX = MonomialOrder("elim+grevlex", lambda e: (e[0],) + GREVLEX.key(e[1:]))


def _elim_order(base: MonomialOrder) -> MonomialOrder:
    """The order eliminating the first variable, then ``base`` on the rest."""
    if base is not GREVLEX:
        raise ValueError(f"no elimination order over {base!r}; only grevlex has one")
    return _ELIM_GREVLEX


def _lift(f: Poly, big: PolyRing, tdeg: int) -> Poly:
    return Poly(big, {(tdeg,) + e: c for e, c in f.terms.items()}, _normalized=True)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I intersect J via one auxiliary variable of internal degree zero."""
    ring = I.ring
    if J.ring != ring:
        raise ValueError("ideals in different rings")
    if I.is_zero or J.is_zero:
        return Ideal(ring, [])
    if I.is_monomial and J.is_monomial:
        gens = monomials.intersect(I.monomial_exponents(), J.monomial_exponents())
        return Ideal.monomial(ring, gens)
    big = PolyRing(ring.nvars + 1, ring.char, ("_t",) + ring.names)
    polys = [_lift(f, big, 1) for f in I.gens]
    one_minus_t = Poly(big, {(0,) * big.nvars: 1, (1,) + (0,) * ring.nvars: -1})
    polys += [one_minus_t * _lift(g, big, 0) for g in J.gens]
    gb = _buchberger(polys, _elim_order(GREVLEX), use_criterion=True)
    kept = []
    for g in gb:
        if all(e[0] == 0 for e in g.terms):
            kept.append(Poly(ring, {e[1:]: c for e, c in g.terms.items()}, _normalized=True))
    return Ideal(ring, kept)


def ideal_quotient(I: Ideal, f: Poly) -> Ideal:
    """I : (f) = {g : g*f in I}, computed as (I intersect (f)) / f."""
    if f.is_zero:
        raise ValueError("colon by zero")
    ring = I.ring
    if I.is_zero:
        return Ideal(ring, [])
    if f.degree() == 0:
        return I
    if I.is_monomial and f.is_monomial():
        u = next(iter(f.terms))
        return Ideal.monomial(ring, monomials.colon_by_monomial(I.monomial_exponents(), u))
    inter = ideal_intersection(I, Ideal(ring, [f]))
    fm = f.monic(GREVLEX)
    gens = []
    for g in inter.gens:
        qs, r = divide(g, [fm], GREVLEX)
        if not r.is_zero:
            raise AssertionError("intersection element not divisible by f")
        gens.append(qs[0])
    out = Ideal(ring, gens)
    return Ideal(ring, reduced_gb(out, GREVLEX).elements)


def ideal_quotient_ideal(I: Ideal, J: Ideal) -> Ideal:
    """I : J = intersection over generators f of J of I : (f)."""
    if J.is_zero:
        raise ValueError("colon by the zero ideal")
    if I.is_monomial and J.is_monomial:
        gens = monomials.colon_by_ideal(I.monomial_exponents(), J.monomial_exponents())
        return Ideal.monomial(I.ring, gens)
    out: Ideal | None = None
    for f in J.gens:
        q = ideal_quotient(I, f)
        out = q if out is None else ideal_intersection(out, q)
    assert out is not None
    return Ideal(I.ring, reduced_gb(out, GREVLEX).elements)


def saturation(I: Ideal, J: Ideal) -> Ideal:
    """Stable value of I : J : J : ... (Noetherian, so this terminates)."""
    if J.is_zero:
        raise ValueError("saturation by the zero ideal")
    if any(g.degree() == 0 for g in J.gens):
        return I
    if I.is_monomial and J.is_monomial:
        jexps = J.monomial_exponents()
        if all(sum(e) == 1 for e in jexps) and {e.index(1) for e in jexps} == set(range(I.ring.nvars)):
            # saturation with respect to the irrelevant ideal, combinatorially
            gens = monomials.saturate_irrelevant(I.monomial_exponents(), I.ring.nvars)
            return Ideal.monomial(I.ring, gens)
    cur = I
    while True:
        nxt = ideal_quotient_ideal(cur, J)
        if ideals_equal(nxt, cur):
            return cur
        cur = nxt


def irrelevant_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.variables())


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
