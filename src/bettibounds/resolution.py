"""Graded Betti numbers of cyclic quotients S/I.

``koszul_betti`` computes Tor through the Koszul complex on the variables.
For monomial ideals the complex splits into multigraded strands supported on
subset lcms, each a tiny simplicial computation (``monomial_betti``).  A
general ideal is first cut down by verified-regular linear forms, which
leaves the table unchanged; the Z-graded pieces of what is left are realized
on normal-form bases, with degree caps from its initial ideal (upper
semicontinuity), and the finished table is validated against the Hilbert
series numerator.  The tests check the strands against an independent
engine, the minimized Taylor resolution (``tests/oracle.py``).
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations
from math import comb
from typing import Sequence

from . import monomials
from .groebner import (
    GBasis,
    Ideal,
    QuotientBasis,
    draw_certified_form,
    hilbert_numerator_of,
    initial_exponents,
    quotient_dimension,
    reduced_gb,
)
from .linalg import rank_mod_p
from .polyring import GREVLEX, Exponents, Packing, Poly, PolyRing


class IncompleteTableError(RuntimeError):
    """A Betti table failed its completeness/consistency validation."""


class BettiTable:
    """Graded Betti numbers beta_{i,j}(S/I), with beta_{0,0} = 1.

    ``complete_to`` is None for a full table; otherwise entries are only
    guaranteed for homological index i <= complete_to.
    """

    __slots__ = ("entries", "nvars", "complete_to")

    def __init__(self, entries: dict[tuple[int, int], int], nvars: int, complete_to: int | None = None):
        self.entries = {k: v for k, v in entries.items() if v}
        for (i, j), v in self.entries.items():
            if v < 0 or i < 0:
                raise ValueError("malformed Betti table")
        self.nvars = nvars
        self.complete_to = complete_to

    # -- access ---------------------------------------------------------------

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def is_complete(self) -> bool:
        return self.complete_to is None

    def require_complete(self) -> None:
        if not self.is_complete():
            raise IncompleteTableError(f"table only valid through homological index {self.complete_to}")

    def _check_index(self, i: int) -> None:
        if self.complete_to is not None and i > self.complete_to:
            raise IncompleteTableError(f"index {i} beyond computed range {self.complete_to}")

    # -- derived numbers ---------------------------------------------------------

    def pd(self) -> int:
        self.require_complete()
        return max((i for i, _ in self.entries), default=0)

    def t(self, i: int) -> int | None:
        """Largest j with beta_{i,j} nonzero, or None when the row vanishes."""
        self._check_index(i)
        js = [j for (ii, j) in self.entries if ii == i]
        return max(js) if js else None

    def reg(self) -> int:
        self.require_complete()
        return max(j - i for (i, j) in self.entries)

    def ts(self) -> list[int]:
        """t_0, ..., t_pd; every row of a minimal resolution is nonzero."""
        p = self.pd()
        out = []
        for i in range(p + 1):
            ti = self.t(i)
            if ti is None:
                raise IncompleteTableError(f"vanishing row {i} below pd {p}")
            out.append(ti)
        return out

    # -- the ideal's own table: beta_{i,j}(I) = beta_{i+1,j}(S/I) -----------------

    def ideal_reg(self) -> int:
        self.require_complete()
        return max(j - i for (i, j) in self.entries if i >= 1) + 1 if any(i >= 1 for i, _ in self.entries) else 0

    def mu(self) -> int:
        """Minimal number of generators of I."""
        self._check_index(1)
        return sum(v for (i, _), v in self.entries.items() if i == 1)

    def min_gens_up_to(self, j: int) -> int:
        """Number of minimal generators of I of degree at most j."""
        self._check_index(1)
        return sum(v for (i, jj), v in self.entries.items() if i == 1 and jj <= j)

    def max_gen_degree(self) -> int:
        t1 = self.t(1)
        return t1 if t1 is not None else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"BettiTable({self.entries})"


def format_betti(B: BettiTable) -> str:
    """Betti diagram with rows j-i and columns i."""
    if not B.entries:
        return "total: 1\n0: 1"
    imax = max(i for i, _ in B.entries)
    rows = sorted({j - i for i, j in B.entries})
    width = max(len(str(v)) for v in B.entries.values()) + 2
    lines = ["".join(f"{i:>{width}}" for i in range(imax + 1))]
    for r in rows:
        cells = []
        for i in range(imax + 1):
            v = B.beta(i, i + r)
            cells.append(f"{v if v else '.':>{width}}")
        lines.append("".join(cells) + f"   <- j-i = {r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Koszul homology, monomial strand fast path
# ---------------------------------------------------------------------------

@cache
def _subset_bitsets(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets over the 2^k subsets L of range(k), bit L standing for L: the
    subsets of each size, and the subsets that hold each element."""
    if not k:
        return (1,), ()
    sizes, has = _subset_bitsets(k - 1)
    half = 1 << (k - 1)
    sizes = tuple(s | t << half for s, t in zip(sizes + (0,), (0,) + sizes))
    return sizes, tuple(h | h << half for h in has) + ((1 << half) - 1 << half,)


def monomial_betti(gens: Sequence[Exponents], nvars: int, char: int) -> BettiTable:
    """Betti numbers of S/J for a monomial ideal J via multigraded strands.

    Tor is multigraded and can only be nonzero in multidegrees that are lcms
    of generator subsets.  In such a multidegree a the strand of the Koszul
    complex has one cell per alive subset L of supp(a), one with x^(a - e_L)
    outside J, and its boundary drops one element at a time.  The dead
    subsets form the upper Koszul simplicial complex K^a(J) (Miller &
    Sturmfels, Combinatorial Commutative Algebra, 2005, Thm 1.34): a
    generator g | x^a divides x^(a - e_L) exactly when L misses its tight
    set T_g = {t : g_t = a_t}.  So one divisibility pass over the generators
    per lcm gives a bitmask of T_g for each divisor g, and the dead subsets
    are the submasks of the complements supp(a) minus T_g, marked in a
    bitset over the 2^k subsets by one shift-or per element.  Any exponents
    work, not only 0 and 1.

    The alive family is closed upward, so for the support variable v that
    the most alive subsets avoid, L <-> L + {v} is an acyclic matching with
    unit coefficients (algebraic discrete Morse theory: Forman, Adv. Math.
    134, 1998; Joellenbeck & Welker, Mem. AMS 197, 2009).  An unmatched cell
    C holds v and C - {v} is dead, so every alive face of C is unmatched:
    the critical cells span a subcomplex with the homology of the strand,
    and no gradient paths are needed.  Its boundary columns are sparse
    vectors {row: +-1} over the critical cells, numbered by size in
    ascending mask order, and their ranks over F_p come from
    ``linalg.rank_mod_p``.

    Monomials are packed (``polyring.Packing``) with a field width taken
    from the largest exponent present, so the lcm closure is a SWAR max, and
    for a divisor g of a the guard bits of (a | guards) - g, less one in
    each field, mark supp(a) minus T_g in a single subtraction.

    Within a ``monomials.instance_scope`` each table is computed once per
    minimal generators, ``nvars`` and ``char``; every call gets its own copy.
    """
    gens = monomials.minimalize(gens)
    table = monomials.memoized(("betti", gens, nvars, char), lambda: _strand_table(gens, nvars, char))
    return BettiTable(table.entries, nvars)


def _strand_table(gens: tuple[Exponents, ...], nvars: int, char: int) -> BettiTable:
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    if not gens:
        return BettiTable(entries, nvars)
    if any(sum(g) == 0 for g in gens):
        raise ValueError("unit ideal")
    p = char
    pk = Packing.for_exponents(nvars, gens)
    packed = [pk.pack(g) for g in gens]
    guards, ones, emask = pk.guards, pk.ones, pk.emask
    field_guards = [1 << (pk.width * t + pk.width - 1) for t in range(nvars)]
    for a in monomials.lcm_closure(packed, pk):
        ag = a | guards
        # guard bits of the fields where a is nonzero, one per support variable
        nonzero = ((a & emask) | guards) - ones & guards
        supp = [bit for bit in field_guards if nonzero & bit]
        k = len(supp)
        # the complements supp(a) minus T_g as guard bits: (a | guards) - g
        # keeps every guard bit when g | a, and a field of it exceeds its
        # guard bit exactly where g_t < a_t
        frees = set()
        for g in packed:
            d = ag - g
            if d & guards == guards:
                frees.add((d & emask) - ones & guards)
        dead = 0
        for spread in frees:
            subs = 1
            for s, bit in enumerate(supp):
                if spread & bit:
                    subs |= subs << (1 << s)
            dead |= subs
        alive = (1 << (1 << k)) - 1 ^ dead
        sizes, has = _subset_bitsets(k)
        v = max(range(k), key=lambda t: (alive & ~has[t]).bit_count())
        crit = alive & has[v] & ~((alive & ~has[v]) << (1 << v))
        # rows[L] is L's position among the critical subsets of its size
        rows: dict[int, int] = {}
        levels: list[list[int]] = []
        for size in sizes:
            level, bits = [], crit & size
            while bits:
                low = bits & -bits
                rows[low.bit_length() - 1] = len(level)
                level.append(low.bit_length() - 1)
                bits ^= low
            levels.append(level)
        ranks = [0] * (k + 2)
        for i in range(1, k + 1):
            if not (levels[i] and levels[i - 1]):
                continue
            cols = []
            for mask in levels[i]:
                col = {}
                sign = 1
                rest = mask
                while rest:
                    low = rest & -rest
                    row = rows.get(mask ^ low)
                    if row is not None:
                        col[row] = sign
                    sign = -sign
                    rest ^= low
                cols.append(col)
            ranks[i] = rank_mod_p(cols, p)
        j = pk.deg(a)
        for i in range(1, k + 1):
            b = len(levels[i]) - ranks[i] - ranks[i + 1]
            if b:
                entries[(i, j)] = entries.get((i, j), 0) + b
    table = BettiTable(entries, nvars)
    _validate_euler(table, monomials.hilbert_numerator(gens, nvars))
    return table


def _validate_euler(B: BettiTable, numerator: dict[int, int]) -> None:
    """Check sum_i (-1)^i beta_{i,j} against the Hilbert series numerator."""
    js = {j for _, j in B.entries} | set(numerator)
    for j in js:
        lhs = sum((-1) ** i * v for (i, jj), v in B.entries.items() if jj == j)
        if lhs != numerator.get(j, 0):
            raise IncompleteTableError(
                f"Euler characteristic mismatch in degree {j}: {lhs} != {numerator.get(j, 0)}"
            )


def lift_section_table(B: BettiTable, forms: int, nvars: int) -> BettiTable:
    """The table over S of a module whose table over S/(l_1, ..., l_r) is B.

    Exact for any r = ``forms`` linearly independent linear forms, regular on
    the module or not: the minimal resolution over the small ring tensored
    with the Koszul complex on the forms stays minimal, so
    beta^S_{i,j} = sum_b C(r, b) * beta_{i-b, j-b}.  A partial B gives a
    table partial at the same homological index.
    """
    entries: dict[tuple[int, int], int] = {}
    for (i, j), v in B.entries.items():
        for b in range(forms + 1):
            entries[(i + b, j + b)] = entries.get((i + b, j + b), 0) + comb(forms, b) * v
    return BettiTable(entries, nvars, complete_to=B.complete_to)


# ---------------------------------------------------------------------------
# Koszul homology, general homogeneous ideals
# ---------------------------------------------------------------------------

def _last_variable_cut(I: Ideal) -> Ideal | None:
    """The image of I in S/(x_N) when x_N is regular on S/I, else None.

    For grevlex and homogeneous I, in(I + (x_N)) = in(I) + (x_N) and
    in(I : x_N) = in(I) : x_N (Bayer & Stillman, Invent. Math. 87, 1987;
    Eisenbud, Commutative Algebra, Prop. 15.12).  So x_N is regular on S/I
    exactly when it divides no leading monomial of the reduced grevlex basis,
    and then that basis with x_N set to 0 is the reduced grevlex basis of the
    image, which is cached on it: the cut needs no new basis.
    """
    ring = I.ring
    gb = reduced_gb(I, GREVLEX)
    if any(lm[-1] for lm in gb.leading_monomials()):
        return None
    small = PolyRing(ring.nvars - 1, ring.char, ring.names[:-1])
    elements = [Poly(small, {e[:-1]: c for e, c in g.terms.items() if not e[-1]}, _normalized=True)
                for g in gb.elements]
    image = Ideal(small, elements)
    image._cache[("gb", GREVLEX)] = GBasis(image.gens, GREVLEX)
    return image


def _regular_reduce(I: Ideal, seed: int, max_cuts: int | None = None) -> tuple[Ideal, int]:
    """Cut S/I by certified regular linear forms as long as they exist.

    Each cut leaves every graded Betti number unchanged.  It is x_N when
    ``_last_variable_cut`` shows it regular; otherwise a random form
    certified through Hilbert series numerators.  The count returned is a
    lower bound for depth(S/I) that is sharp with overwhelming probability.
    Three failed certificates in a row signal exhausted depth (each
    certificate is exact; a random non-generic draw has probability
    O(deg/p)).  A nonzero Artinian quotient has depth 0, so the cutting stops
    there without a draw.
    """
    rng = random.Random(0x5EC71 ^ seed)
    cur = I
    cuts = 0
    while cur.ring.nvars > 1 and (max_cuts is None or cuts < max_cuts) and quotient_dimension(cur) > 0:
        image = _last_variable_cut(cur)
        if image is None:
            drawn = draw_certified_form(cur, rng, 3, need_regular=True)
            if drawn is None:
                break
            image = drawn[2]
        cur = image
        cuts += 1
    return cur, cuts


def koszul_betti(
    I: Ideal,
    *,
    max_i: int | None = None,
    max_cuts: int | None = None,
    seed: int = 0,
) -> BettiTable:
    """beta_{i,j}(S/I) through ranks of the graded Koszul differentials.

    A monomial ideal goes straight to ``monomial_betti``.  Otherwise the
    quotient is first cut by at most ``max_cuts`` certified-regular linear
    forms (no limit when None; 0 skips the cutting), which leaves the table
    unchanged; a cut that reaches a monomial ideal also ends in
    ``monomial_betti``.  For the rest, the largest j scanned at each
    homological index is read off the table of S/in(J), which bounds the
    true table entrywise by upper semicontinuity.  ``max_i`` restricts the
    computation to homological indices <= max_i (the table is then marked
    partial).  Completed tables are validated against the Hilbert series
    numerator; failure raises IncompleteTableError.
    """
    ring = I.ring
    p = ring.char
    if I.is_zero:
        return BettiTable({(0, 0): 1}, ring.nvars)
    if any(g.degree() == 0 for g in I.gens):
        raise ValueError("unit ideal has no Betti table")
    nvars0 = ring.nvars
    # monomial input never reaches _regular_reduce: a drawn cut would turn
    # it into a non-monomial ideal and trade the strands for Koszul ranks
    J = I if I.is_monomial else _regular_reduce(I, seed, max_cuts=max_cuts)[0]
    if J.is_monomial:
        B = monomial_betti(J.monomial_exponents(), J.ring.nvars, p)
        if max_i is not None and max_i < B.pd():
            return BettiTable({k: v for k, v in B.entries.items() if k[0] <= max_i}, nvars0, complete_to=max_i)
        return BettiTable(B.entries, nvars0)

    in_gens = initial_exponents(J, GREVLEX)
    caps_table = monomial_betti(in_gens, J.ring.nvars, p)
    imax = caps_table.pd()
    caps: dict[int, int] = {}
    for i in range(1, imax + 1):
        ti = caps_table.t(i)
        caps[i] = ti if ti is not None else i
    i_top = imax if max_i is None else min(max_i, imax)

    qb = QuotientBasis(J)
    n = J.ring.nvars
    rank_cache: dict[tuple[int, int], int] = {}

    def koszul_rank(i: int, j: int) -> int:
        """Rank of d_i : (Lambda^i tensor S/I)_j -> (Lambda^{i-1} tensor S/I)_j."""
        key = (i, j)
        if key in rank_cache:
            return rank_cache[key]
        if i < 1 or i > n:
            rank_cache[key] = 0
            return 0
        lo = qb.std(j - i)
        hi = qb.std(j - i + 1)
        if not lo or not hi:
            rank_cache[key] = 0
            return 0
        cols_subsets = list(combinations(range(n), i))
        rows_subsets = {S: idx for idx, S in enumerate(combinations(range(n), i - 1))}
        hlo, hhi = len(lo), len(hi)
        if len(rows_subsets) * hhi * len(cols_subsets) * hlo > 40_000_000:
            raise RuntimeError(f"Koszul stratum (i={i}, j={j}) too large")
        mult = [qb.mult_columns(t, j - i) for t in range(n)]
        cols = []
        for S in cols_subsets:
            for u in range(hlo):
                col = {}
                # the targets S minus one element are distinct, so no entry
                # is written twice
                for s, t in enumerate(S):
                    sign = 1 if s % 2 == 0 else -1
                    base = rows_subsets[S[:s] + S[s + 1:]] * hhi
                    for vidx, c in mult[t][u].items():
                        col[base + vidx] = sign * c % p
                cols.append(col)
        r = rank_mod_p(cols, p)
        rank_cache[key] = r
        return r

    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for i in range(1, i_top + 1):
        for j in range(i, caps[i] + 1):
            dim_ij = comb(n, i) * qb.dim(j - i)
            if dim_ij == 0:
                continue
            b = dim_ij - koszul_rank(i, j) - koszul_rank(i + 1, j)
            if b < 0:
                raise AssertionError("negative Betti number; rank computation broken")
            if b:
                entries[(i, j)] = b

    complete = max_i is None or max_i >= imax
    table = BettiTable(entries, nvars0, complete_to=None if complete else i_top)
    if complete:
        _validate_euler(table, hilbert_numerator_of(J))
    return table

