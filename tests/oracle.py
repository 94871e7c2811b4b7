"""Oracle code: slow, independent routes to what the package computes.

Nothing here runs in the verifier, the CLI or the benchmark.  The tests
compare the package against it: ``socle_degrees`` (normal-form kernels, or
the colon ideal I : m) against ``invariants.socle_of``, which reads the
socle off the Betti table; ``filter_regular_test`` (colon and saturation)
against ``groebner.form_regularity_with_image``; the minimized Taylor
resolution against ``resolution.monomial_betti``; ``ideal_quotient``
against the colon of the initial ideal in generic coordinates; and
``homogeneous_component_dim`` (row reduction, no Groebner basis) against
the Hilbert function of ``groebner.hilbert_numerator_of``.
``apply_linear_change`` moves ideals to random coordinates, where Betti
tables must not change.  ``DictReducer`` divides term by term, with a heap
of monomials and a dict of coefficients; ``divide``, ``normal_form``,
``reference_iteration`` and ``reference_buchberger`` run on it, take
inhomogeneous input too, and are compared with ``buchberger_iteration``
and ``groebner._buchberger``, which divide on packed degree rows.  The elimination order of
``ideal_intersection`` gives inhomogeneous input, so it runs there,
through the packed key that ``_ELIM_GREVLEX`` carries.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import combinations
from math import comb
from operator import add
from typing import Sequence

from bettibounds import monomials
from bettibounds.groebner import (
    _PACK_BITS,
    Ideal,
    QuotientBasis,
    hilbert_numerator_of,
    quotient_dimension,
    reduced_gb,
    s_polynomial,
)
from bettibounds.linalg import rank_mod_p
from bettibounds.monomials import minimalize
from bettibounds.polyring import GREVLEX, Exponents, MonomialOrder, Packing, Poly, PolyRing, exp_gcd, exp_sub
from bettibounds.resolution import BettiTable


# ---------------------------------------------------------------------------
# exponent vectors and linear changes of coordinates
# ---------------------------------------------------------------------------

def exp_deg(e: Exponents) -> int:
    return sum(e)


def exp_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def mat_inv_mod(M: Sequence[Sequence[int]], p: int) -> list[list[int]] | None:
    """Inverse of a square matrix mod p, or None if singular."""
    n = len(M)
    aug = [[M[i][j] % p for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


def apply_linear_change(f: Poly, M: Sequence[Sequence[int]]) -> Poly:
    """Substitute x_j -> sum_i M[i][j] * x_i.

    M must be invertible mod p; degrees and homogeneity are preserved.
    """
    ring = f.ring
    n = ring.nvars
    if len(M) != n or any(len(row) != n for row in M):
        raise ValueError("matrix size does not match the ring")
    if mat_inv_mod(M, ring.char) is None:
        raise ValueError("singular change of coordinates")
    images = [ring.linear_form([M[i][j] for i in range(n)]) for j in range(n)]
    # cache powers of each image as needed
    powers: dict[tuple[int, int], Poly] = {}

    def image_power(j: int, k: int) -> Poly:
        key = (j, k)
        if key not in powers:
            powers[key] = ring.one() if k == 0 else image_power(j, k - 1) * images[j]
        return powers[key]

    out = ring.zero()
    for e, c in f.terms.items():
        term = Poly(ring, {(0,) * n: c}, _normalized=True)
        for j, k in enumerate(e):
            if k:
                term = term * image_power(j, k)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# monomial colon ideals and saturation
# ---------------------------------------------------------------------------

def colon_by_monomial(gens: Sequence[Exponents], u: Exponents) -> tuple[Exponents, ...]:
    """Minimal generators of (gens) : x^u."""
    return minimalize(exp_sub(g, exp_gcd(g, u)) for g in gens)


def intersect(gens1: Sequence[Exponents], gens2: Sequence[Exponents]) -> tuple[Exponents, ...]:
    """Minimal generators of the intersection of two monomial ideals."""
    return minimalize(exp_lcm(a, b) for a in gens1 for b in gens2)


def colon_by_ideal(gens: Sequence[Exponents], divisors: Sequence[Exponents]) -> tuple[Exponents, ...]:
    """(gens) : (divisors) for monomial data, via intersection of colons."""
    if not divisors:
        raise ValueError("colon by the zero ideal")
    out = colon_by_monomial(gens, divisors[0])
    for u in divisors[1:]:
        out = intersect(out, colon_by_monomial(gens, u))
    return out


def saturate_by_variable(gens: Sequence[Exponents], t: int) -> tuple[Exponents, ...]:
    """(gens) : x_t^infinity -- zero out the t-th exponent of each generator."""
    return minimalize(tuple(0 if i == t else x for i, x in enumerate(g)) for g in gens)


def saturate_irrelevant(gens: Sequence[Exponents], nvars: int) -> tuple[Exponents, ...]:
    """Saturation with respect to (x_1, ..., x_N): the intersection of the
    single-variable saturations of the original ideal."""
    gens = minimalize(gens)
    out = saturate_by_variable(gens, 0)
    for t in range(1, nvars):
        out = intersect(out, saturate_by_variable(gens, t))
    return minimalize(out)


# ---------------------------------------------------------------------------
# reference division and Buchberger: dict and heap, any input
# ---------------------------------------------------------------------------

class DictReducer:
    """Division by a growing divisor list, one term at a time: a heap of
    packed monomials in decreasing order and a dict of coefficients; each
    step subtracts a whole divisor tail.  It takes inhomogeneous input.
    Standard expression contract: every quotient term q satisfies
    in(q * g_t) <= in(f), and no monomial of the remainder is divisible by
    any in(g_t).  Ties between applicable divisors go to the lowest index.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder):
        self.ring = ring
        self.order = order
        self.p = ring.char
        self.pk = Packing(ring.nvars, _PACK_BITS)
        if order.packed_key is None:
            raise ValueError(f"monomial order {order!r} has no packed key")
        self.keyfn = order.packed_key(self.pk)
        # the bits of each field from ``growth`` up, guard bit included
        self.overflow = self.pk.ones * (self.pk.fmask ^ (self.pk.growth - 1))
        self.lms: list[int] = []
        self.tails: list[list[tuple[int, int]]] = []

    def pack_terms(self, terms) -> dict[int, int]:
        pack = self.pk.pack
        return {pack(e): c for e, c in terms.items()}

    def to_poly(self, terms: dict[int, int]) -> Poly:
        unpack = self.pk.unpack
        return Poly(self.ring, {unpack(m): c for m, c in terms.items()}, _normalized=True)

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

    def reduce(self, work: dict[int, int], want_quotients: bool = False, skip: int | None = None):
        """(quotient dicts or None, remainder dict) of the packed polynomial
        ``work``, which is consumed."""
        p, keyfn, guards, overflow = self.p, self.keyfn, self.pk.guards, self.overflow
        lms, tails = self.lms, self.tails
        nq = len(lms)
        heap = []
        for m in work:
            if m & overflow:
                raise ValueError("exponent growth reached 2^15 inside the reference reducer")
            heap.append((-keyfn(m), m))
        heapq.heapify(heap)
        rem: dict[int, int] = {}
        quots: list[dict[int, int]] | None = [dict() for _ in range(nq)] if want_quotients else None
        while heap:
            _, m = heapq.heappop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            mg = m | guards
            hit = next((t for t in range(nq) if t != skip and (mg - lms[t]) & guards == guards), -1)
            if hit < 0:
                rem[m] = c
                continue
            q = m - lms[hit]
            if quots is not None:
                quots[hit][q] = (quots[hit].get(q, 0) + c) % p
            for e, gc in tails[hit]:
                me = q + e
                cur = work.get(me)
                if cur is None:
                    if me & overflow:
                        raise ValueError("exponent growth reached 2^15 inside the reference reducer")
                    work[me] = (-c * gc) % p
                    heapq.heappush(heap, (-keyfn(me), me))
                else:
                    nc = (cur - c * gc) % p
                    if nc:
                        work[me] = nc
                    else:
                        del work[me]
        return quots, rem


def _dict_reducer(divisors: Sequence[Poly], order: MonomialOrder) -> DictReducer:
    red = DictReducer(divisors[0].ring, order)
    for g in divisors:
        red.add_monic(red.pack_terms(g.terms))
    return red


def divide(f: Poly, divisors: Sequence[Poly], order: MonomialOrder = GREVLEX) -> tuple[list[Poly], Poly]:
    """Division algorithm: f = sum q_t * g_t + r as a standard expression."""
    for g in divisors:
        if g.is_zero:
            raise ValueError("zero divisor polynomial")
        if g.leading_coeff(order) != 1:
            raise ValueError("divisors must be monic")
    if not divisors:
        return [], f
    red = _dict_reducer(divisors, order)
    quots, rem = red.reduce(red.pack_terms(f.terms), want_quotients=True)
    return [red.to_poly(qd) for qd in quots], red.to_poly(rem)


def normal_form(f: Poly, divisors: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of f on division by the (monic) divisors."""
    return divide(f, divisors, order)[1]


def reference_iteration(basis: Sequence[Poly], order: MonomialOrder = GREVLEX,
                        degree_cap: int | None = None) -> list[Poly]:
    """``groebner.buchberger_iteration`` with S-polynomials of ``Poly``s and
    dict-and-heap division by the list built so far."""
    polys = [g.monic(order) for g in basis if not g.is_zero]
    if degree_cap is not None:
        polys = [g for g in polys if g.degree() <= degree_cap]
    out = list(polys)
    for f, g in combinations(polys, 2):
        lcm = exp_lcm(f.leading_monomial(order), g.leading_monomial(order))
        if degree_cap is not None and exp_deg(lcm) > degree_cap:
            continue
        r = normal_form(s_polynomial(f, g, order), out, order)
        if r and r.monic(order) not in out:
            out.append(r.monic(order))
    return out


def reference_buchberger(polys: Sequence[Poly], order: MonomialOrder = GREVLEX) -> list[Poly]:
    """The reduced Groebner basis by plain Buchberger: every S-pair, first
    formed first, on one ``DictReducer``; then minimal leading monomials,
    each tail reduced by the other minimal elements, sorted by increasing
    leading monomial.  Any input, homogeneous or not."""
    G = list(dict.fromkeys(g.monic(order) for g in polys if not g.is_zero))
    if not G:
        return []
    red = _dict_reducer(G, order)
    pairs = deque(combinations(range(len(G)), 2))
    while pairs:
        i, j = pairs.popleft()
        _, rem = red.reduce(red.pack_terms(s_polynomial(G[i], G[j], order).terms))
        if rem:
            G.append(red.to_poly(rem).monic(order))
            red.add_monic(rem)
            pairs.extend((t, len(G) - 1) for t in range(len(G) - 1))
    minimal = DictReducer(red.ring, order)
    for t in sorted(range(len(G)), key=lambda t: red.keyfn(red.lms[t])):
        if not any(red.pk.divides(h, red.lms[t]) for h in minimal.lms):
            minimal.lms.append(red.lms[t])
            minimal.tails.append(red.tails[t])
    out = []
    for i, lm in enumerate(minimal.lms):
        _, work = minimal.reduce(dict(minimal.tails[i]), skip=i)
        work[lm] = 1
        out.append(minimal.to_poly(work))
    return out


# ---------------------------------------------------------------------------
# membership and dimensions
# ---------------------------------------------------------------------------

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


def quotient_hilbert_function(I: Ideal, d: int) -> int:
    """dim_k (S/I)_d, from the cached numerator of ``hilbert_numerator_of``."""
    if d < 0:
        return 0
    n = I.ring.nvars
    return sum(c * comb(d - j + n - 1, n - 1) for j, c in hilbert_numerator_of(I).items() if j <= d)


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
# colon ideals and saturation, through an elimination order
# ---------------------------------------------------------------------------

def _elim_packed_key(pk: Packing):
    # the first variable's exponent above the grevlex key, whose values
    # lie in (-2^shift, 2^(2 shift))
    shift, shift1 = pk.shift, pk.shift + 1
    fmask, top = pk.fmask, 2 * shift + 1

    def key(m: int) -> int:
        return ((m & fmask) << top) + ((m >> shift) << shift1) - m
    return key


_ELIM_GREVLEX = MonomialOrder("elim+grevlex", lambda e: (e[0],) + GREVLEX.key(e[1:]), _elim_packed_key)


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
        gens = intersect(I.monomial_exponents(), J.monomial_exponents())
        return Ideal.monomial(ring, gens)
    big = PolyRing(ring.nvars + 1, ring.char, ("_t",) + ring.names)
    polys = [_lift(f, big, 1) for f in I.gens]
    one_minus_t = Poly(big, {(0,) * big.nvars: 1, (1,) + (0,) * ring.nvars: -1})
    polys += [one_minus_t * _lift(g, big, 0) for g in J.gens]
    gb = reference_buchberger(polys, _elim_order(GREVLEX))
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
        return Ideal.monomial(ring, colon_by_monomial(I.monomial_exponents(), u))
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
        gens = colon_by_ideal(I.monomial_exponents(), J.monomial_exponents())
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
            gens = saturate_irrelevant(I.monomial_exponents(), I.ring.nvars)
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
# socle and filter-regularity
# ---------------------------------------------------------------------------

def socle_degrees(I: Ideal) -> list[int]:
    """Degrees (with multiplicity) of a basis of soc(S/I) = (I : m)/I.

    Empty exactly when depth(S/I) > 0.  For Artinian quotients the socle is
    read off kernels of the multiplication maps on normal-form bases; in
    general it comes from the colon ideal, comparing Hilbert functions of
    S/I and S/(I : m) degree by degree.
    """
    ring = I.ring
    if I.is_zero:
        return []
    if quotient_dimension(I) == 0:
        return _socle_artinian(I)
    m = irrelevant_ideal(ring)
    Q = ideal_quotient_ideal(I, m)
    if ideals_equal(Q, I):
        return []
    stop = max(g.degree() for g in Q.gens)
    out: list[int] = []
    d = 0
    while True:
        diff = quotient_hilbert_function(I, d) - quotient_hilbert_function(Q, d)
        if diff < 0:
            raise AssertionError("colon ideal smaller than the ideal")
        out.extend([d] * diff)
        if d >= stop and diff == 0:
            break
        d += 1
    return out


def _socle_artinian(I: Ideal) -> list[int]:
    qb = QuotientBasis(I)
    p = I.ring.char
    n = I.ring.nvars
    out: list[int] = []
    d = 0
    while qb.dim(d):
        h, hup = qb.dim(d), qb.dim(d + 1)
        if hup == 0:
            out.extend([d] * h)  # top degree: everything is killed by m
            d += 1
            continue
        # column u: the products x_t * u for all t, stacked
        cols: list[dict[int, int]] = [{} for _ in range(h)]
        for t in range(n):
            for u, col in enumerate(qb.mult_columns(t, d)):
                for vidx, c in col.items():
                    cols[u][t * hup + vidx] = c
        out.extend([d] * (h - rank_mod_p(cols, p)))
        d += 1
    return out


def filter_regular_test(ell: Poly, I: Ideal) -> tuple[bool, bool]:
    """(regular, filter_regular) for the linear form ell on S/I.

    Filter regular iff (I : ell) is contained in the saturation of I,
    equivalently the annihilator of ell in S/I has finite length; runs the
    literal colon/saturation computation.
    """
    if ell.is_zero or ell.degree() != 1:
        raise ValueError("need a nonzero linear form")
    Q = ideal_quotient(I, ell)
    if ideals_equal(Q, I):
        return True, True
    sat = saturation(I, irrelevant_ideal(I.ring))
    return False, contains_ideal(sat, Q)


# ---------------------------------------------------------------------------
# Taylor complex
# ---------------------------------------------------------------------------

_MAX_TAYLOR_GENS = 14


class TaylorComplex:
    """Subset-indexed free resolution of S/(u_1..u_r) for monomials u_i.

    Basis elements of F_i are the size-i subsets of the generators, placed in
    the multidegree of their lcm; the differential entry from subset L to
    L minus its s-th element (ascending order) carries sign (-1)^(s+1) and
    the monomial u_L / u_{L minus that element}.  d compose d = 0 is asserted
    exactly at construction.
    """

    def __init__(self, gens: Sequence[Exponents], nvars: int, char: int):
        if not gens:
            raise ValueError("need at least one monomial")
        if len(gens) > _MAX_TAYLOR_GENS:
            raise ValueError(f"too many generators ({len(gens)}) for a subset-indexed resolution")
        self.nvars = nvars
        self.char = char
        self.gens = tuple(tuple(g) for g in gens)
        r = len(self.gens)
        self.r = r
        zero = (0,) * nvars
        self.mdeg: dict[int, Exponents] = {0: zero}
        for mask in range(1, 1 << r):
            low = mask & -mask
            self.mdeg[mask] = exp_lcm(self.mdeg[mask ^ low], self.gens[low.bit_length() - 1])
        self.basis: list[list[int]] = [[] for _ in range(r + 1)]
        for mask in range(1 << r):
            self.basis[bin(mask).count("1")].append(mask)
        # diff[i]: (row_mask, col_mask) -> coefficient; the monomial part is
        # implicit (mdeg[col] - mdeg[row])
        self.diff: list[dict[tuple[int, int], int]] = [dict() for _ in range(r + 1)]
        for i in range(1, r + 1):
            d = self.diff[i]
            for mask in self.basis[i]:
                s = 0
                for t in range(r):
                    if mask >> t & 1:
                        s += 1
                        d[(mask ^ (1 << t), mask)] = 1 if s % 2 else char - 1
        self._assert_composition_zero()

    def rank(self, i: int) -> int:
        return len(self.basis[i])

    def differential_entry(self, i: int, row_mask: int, col_mask: int) -> tuple[int, Exponents] | None:
        """(coefficient, monomial exponents) of one entry of d_i, or None."""
        c = self.diff[i].get((row_mask, col_mask))
        if c is None:
            return None
        return c, exp_sub(self.mdeg[col_mask], self.mdeg[row_mask])

    def _assert_composition_zero(self) -> None:
        # entries between fixed (row, col) all carry the same monomial, so
        # only the coefficient sums need to vanish
        p = self.char
        for i in range(2, self.r + 1):
            by_col: dict[int, list[tuple[int, int]]] = {}
            for (row, mid), c in self.diff[i - 1].items():
                by_col.setdefault(mid, []).append((row, c))
            acc: dict[tuple[int, int], int] = {}
            for (mid, col), c1 in self.diff[i].items():
                for row, c2 in by_col.get(mid, ()):
                    key = (row, col)
                    acc[key] = (acc.get(key, 0) + c1 * c2) % p
            if any(v % p for v in acc.values()):
                raise AssertionError("Taylor differentials do not compose to zero")


def taylor_complex(monomials_in: Sequence, nvars: int | None = None, char: int = 32003) -> TaylorComplex:
    """Build the complex from monomial Polys, an Ideal, or raw exponent tuples."""
    if isinstance(monomials_in, Ideal):
        return TaylorComplex(monomials_in.monomial_exponents(), monomials_in.ring.nvars, monomials_in.ring.char)
    items = list(monomials_in)
    if items and isinstance(items[0], Poly):
        ring = items[0].ring
        exps = []
        for f in items:
            if not f.is_monomial():
                raise ValueError("Taylor complex needs monomial input")
            exps.append(next(iter(f.terms)))
        return TaylorComplex(exps, ring.nvars, ring.char)
    if nvars is None:
        raise ValueError("nvars required for raw exponent input")
    return TaylorComplex([tuple(e) for e in items], nvars, char)


def minimize_taylor(T: TaylorComplex) -> BettiTable:
    """Cancel unit entries of the differentials until none remain.

    An entry is a unit exactly when its row and column carry the same
    multidegree.  Cancelling the pair (a, b) replaces d_i by its Schur-type
    correction d[r,c] - d[r,b] d[a,b]^{-1} d[a,c] and simply deletes the b row
    of d_{i+1} and the a column of d_{i-1}; the corrected entries stay single
    monomials because all multidegrees are fixed by row and column.
    """
    p = T.char
    basis = [list(level) for level in T.basis]
    diff = [dict(d) for d in T.diff]
    mdeg = T.mdeg

    while True:
        found = None
        for i in range(1, T.r + 1):
            for (a, b), c in diff[i].items():
                if mdeg[a] == mdeg[b]:
                    found = (i, a, b, c)
                    break
            if found:
                break
        if not found:
            break
        i, a, b, c = found
        inv = pow(c, p - 2, p)
        col_b = {row: v for (row, cc), v in diff[i].items() if cc == b and row != a}
        row_a = {cc: v for (row, cc), v in diff[i].items() if row == a and cc != b}
        new_d = {(r, cc): v for (r, cc), v in diff[i].items() if r != a and cc != b}
        for r_, vb in col_b.items():
            for c_, va in row_a.items():
                nc = (new_d.get((r_, c_), 0) - vb * inv * va) % p
                if nc:
                    new_d[(r_, c_)] = nc
                else:
                    new_d.pop((r_, c_), None)
        diff[i] = new_d
        if i + 1 <= T.r:
            diff[i + 1] = {(r_, c_): v for (r_, c_), v in diff[i + 1].items() if r_ != b}
        if i - 1 >= 1:
            diff[i - 1] = {(r_, c_): v for (r_, c_), v in diff[i - 1].items() if c_ != a}
        basis[i].remove(b)
        basis[i - 1].remove(a)

    entries: dict[tuple[int, int], int] = {}
    for i, level in enumerate(basis):
        for mask in level:
            j = exp_deg(mdeg[mask])
            entries[(i, j)] = entries.get((i, j), 0) + 1
    return BettiTable(entries, T.nvars)
