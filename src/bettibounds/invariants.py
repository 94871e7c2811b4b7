"""Module-theoretic invariants of S/I: alpha, fractional regularity and
socle degrees, read off a Betti table; regular and filter-regular linear
forms, and generic sections.

"Sufficiently general" is operationalized by drawing random coefficients over
the (large) prime field and certifying the draw: filter-regularity is checked
exactly through Hilbert series.  Certified failures retry up to a fixed
budget and then raise ``GenericityError`` rather than silently returning
garbage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groebner import Ideal, draw_certified_form
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


def socle_of(B: BettiTable) -> tuple[int, ...]:
    """Degrees of a basis of soc(S/I), ascending, with multiplicity.

    Over N variables H_N(x; S/I) = soc(S/I)(-N), so beta_{N,j} counts the
    socle elements of degree j - N.  The socle is empty exactly when
    depth(S/I) > 0, that is when pd < N.
    """
    B.require_complete()
    N = B.nvars
    return tuple(j - N for (i, j), v in B.items() if i == N for _ in range(v))


# ---------------------------------------------------------------------------
# generic sections and regular forms
# ---------------------------------------------------------------------------

@dataclass
class SectionResult:
    forms: list[Poly]
    regular_flags: list[bool]
    substituted: Ideal | None = None
    absorbed: int = 0


def generic_section(I: Ideal, count: int, seed: int = 0) -> SectionResult:
    """Random linear forms l_1, ..., l_count cutting S/I, each verified filter
    regular on the successive quotient.

    Each form is flagged as honestly regular or not; deterministic for a
    fixed seed.  The section ideal I + (l_1, ..., l_count) is not built:
    the successive quotients are tracked in substituted rings (one variable
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
        if image is not None:
            k = max(i for i, cc in enumerate(coeffs) if cc)  # pivot used by the substitution
            small = image
            surviving.pop(k)
            absorbed += 1
        else:
            small = Ideal(small.ring, list(small.gens) + [small.ring.linear_form(coeffs)])
    return SectionResult(forms=forms, regular_flags=flags, substituted=small, absorbed=absorbed)


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
    """All scalar invariants of S/I, each read off one Betti table; depth is
    N - pd, and the socle comes from the column i = N (``socle_of``)."""
    if table is None:
        table = koszul_betti(I, seed=seed)
    pd = table.pd()
    return InvariantBundle(
        pd=pd,
        depth=I.ring.nvars - pd,
        reg=table.reg(),
        alpha=alpha_of(table),
        t=tuple(table.ts()),
        socle_degrees=socle_of(table),
        num_min_gens=table.mu(),
        max_gen_degree=table.max_gen_degree(),
    )
