"""Module-theoretic invariants of S/I: socle, alpha, fractional regularity,
filter-regular and regular linear forms, and generic sections.

"Sufficiently general" is operationalized by drawing random coefficients over
the (large) prime field and certifying the draw: filter-regularity is checked
exactly through Hilbert series.  Certified failures retry up to a fixed
budget and then raise ``GenericityError`` rather than silently returning
garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groebner import (
    Ideal,
    QuotientBasis,
    contains_ideal,
    draw_certified_form,
    form_regularity_with_image,
    ideal_quotient,
    ideal_quotient_ideal,
    ideals_equal,
    irrelevant_ideal,
    quotient_dimension,
    quotient_hilbert_function,
    saturation,
)
from .linalg import rank_mod_p
from .polyring import Poly
from .resolution import BettiTable, koszul_betti

RETRY_BUDGET = 8


class GenericityError(RuntimeError):
    """Random draws repeatedly failed their genericity certificate."""


# ---------------------------------------------------------------------------
# numbers read off a Betti table
# ---------------------------------------------------------------------------

def alpha_of(B: BettiTable) -> int:
    """min{ j - p : beta_{p,j} != 0 } with p = pd(S/I)."""
    B.require_complete()
    p = B.pd()
    js = [j for (i, j) in B.entries if i == p]
    return min(js) - p


def frac_reg(B: BettiTable, r: int) -> int:
    """sup of t_i - i over homological indices i <= ceil(pd / r)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    B.require_complete()
    top = -(-B.pd() // r)
    best = 0
    for i in range(top + 1):
        ti = B.t(i)
        if ti is not None:
            best = max(best, ti - i)
    return best


# ---------------------------------------------------------------------------
# socle
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


# ---------------------------------------------------------------------------
# filter-regularity and generic sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterVerdict:
    filter_regular: bool
    regular: bool


def filter_regular_test(ell: Poly, I: Ideal, method: str = "hilbert") -> FilterVerdict:
    """Is the linear form ell filter regular for S/I?

    True iff (I : ell) is contained in the saturation of I, equivalently the
    annihilator of ell in S/I has finite length.  The default certificate
    compares Hilbert series numerators; method="colon" runs the literal
    colon/saturation computation instead.
    """
    if ell.is_zero or ell.degree() != 1:
        raise ValueError("need a nonzero linear form")
    if method == "hilbert":
        regular, filt, _ = form_regularity_with_image(I, ell)
        return FilterVerdict(filter_regular=filt, regular=regular)
    if method != "colon":
        raise ValueError(f"unknown method {method!r}")
    Q = ideal_quotient(I, ell)
    regular = ideals_equal(Q, I)
    if regular:
        return FilterVerdict(True, True)
    sat = saturation(I, irrelevant_ideal(I.ring))
    return FilterVerdict(filter_regular=contains_ideal(sat, Q), regular=False)


@dataclass
class SectionResult:
    ideal: Ideal
    forms: list[Poly]
    regular_flags: list[bool]
    substituted: Ideal | None = None
    absorbed: int = 0


def generic_section(I: Ideal, count: int, seed: int = 0) -> SectionResult:
    """I + (l_1, ..., l_count) for verified filter-regular random linear forms.

    Each form is certified filter regular on the successive quotient and
    flagged as honestly regular or not; deterministic for a fixed seed.

    The successive quotients are tracked in substituted rings (one variable
    eliminated per form), which keeps the certificates cheap; ``substituted``
    is the image of the section ideal there and ``absorbed`` counts the
    eliminated forms.  Each returned form lives in the original ring and is
    supported on the variables surviving at the time it was drawn, so its
    image downstairs is exactly the form that was certified.
    """
    ring = I.ring
    if count < 0 or count > ring.nvars:
        raise ValueError("section size must be between 0 and the number of variables")
    rng = random.Random(0x5EC ^ (seed * 2654435761 % 2**31))
    forms: list[Poly] = []
    flags: list[bool] = []
    big = I
    small = I
    surviving = list(range(ring.nvars))
    absorbed = 0
    for _ in range(count):
        drawn = draw_certified_form(small, rng, RETRY_BUDGET, need_regular=False)
        if drawn is None:
            raise GenericityError("no filter-regular linear form found within the retry budget")
        coeffs, regular, image = drawn
        big_coeffs = [0] * ring.nvars
        for idx, cc in zip(surviving, coeffs):
            big_coeffs[idx] = cc
        ell_big = ring.linear_form(big_coeffs)
        forms.append(ell_big)
        flags.append(regular)
        big = Ideal(ring, list(big.gens) + [ell_big])
        if image is not None:
            k = max(i for i, cc in enumerate(coeffs) if cc)  # pivot used by the substitution
            small = image
            surviving.pop(k)
            absorbed += 1
        else:
            small = Ideal(small.ring, list(small.gens) + [small.ring.linear_form(coeffs)])
    return SectionResult(ideal=big, forms=forms, regular_flags=flags, substituted=small, absorbed=absorbed)


def find_regular_form(I: Ideal, seed: int = 0) -> tuple[Poly, Ideal | None] | None:
    """A verified-regular random linear form on S/I and the image of I in
    S/(form) (see ``substitute_linear_form``), or None if none is found."""
    rng = random.Random(0x4E6 ^ (seed * 2654435761 % 2**31))
    drawn = draw_certified_form(I, rng, RETRY_BUDGET, need_regular=True)
    if drawn is None:
        return None
    coeffs, _, image = drawn
    return I.ring.linear_form(coeffs), image


# ---------------------------------------------------------------------------
# the combined bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantBundle:
    pd: int
    depth: int
    reg: int
    alpha: int
    t: tuple[int, ...]
    socle_degrees: tuple[int, ...]
    num_min_gens: int
    max_gen_degree: int

    def as_dict(self) -> dict:
        return {
            "pd": self.pd,
            "depth": self.depth,
            "reg": self.reg,
            "alpha": self.alpha,
            "t": list(self.t),
            "socle_degrees": list(self.socle_degrees),
            "num_min_gens": self.num_min_gens,
            "max_gen_degree": self.max_gen_degree,
        }


def invariant_bundle(I: Ideal, seed: int = 0, table: BettiTable | None = None) -> InvariantBundle:
    """All scalar invariants of S/I in one pass; depth is N - pd."""
    if table is None:
        table = koszul_betti(I, seed=seed)
    pd = table.pd()
    depth = I.ring.nvars - pd
    socle = tuple(socle_degrees(I)) if depth == 0 and not I.is_zero else ()
    return InvariantBundle(
        pd=pd,
        depth=depth,
        reg=table.reg(),
        alpha=alpha_of(table),
        t=tuple(table.ts()),
        socle_degrees=socle,
        num_min_gens=table.mu(),
        max_gen_degree=table.max_gen_degree(),
    )
