"""Theorem checks: every stated inequality is re-verified on concrete ideals.

Each check computes its left-hand side from an actual Betti table and its
right-hand side in exact integer arithmetic (kept symbolic when the tower of
exponents no longer fits in memory, with comparisons still exact), and emits
a BoundReport.  All statements are theorems, so a "fail" verdict is treated
as an implementation bug; reports therefore carry enough witness data
(tables, seeds, basis sizes) to replay the instance.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

# reports carry exact big-integer right-hand sides; lift the int->str guard
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 400_000))

from . import monomials
from .groebner import (
    Ideal,
    initial_exponents,
    quotient_dimension,
    truncated_initial_generators,
)
from .invariants import (
    GenericityError,
    alpha_of,
    find_regular_form,
    frac_reg,
    generic_section,
)
from .polyring import GREVLEX, LEX, MonomialOrder, Poly, PolyRing
from .resolution import BettiTable, koszul_betti, lift_section_table, monomial_betti

PASS = "pass"
FAIL = "fail"
SKIP = "hypotheses_not_met"
ERROR = "error"  # the instance raised; run_corpus records it and goes on


# ---------------------------------------------------------------------------
# exact bound values
# ---------------------------------------------------------------------------

_MATERIALIZE_BITS = 2_000_000
_REPORT_BITS = 65_536


class Bound:
    """A nonnegative bound ``scale * base ** exponent`` held exactly.

    The exponent may itself be a Bound (nested towers).  Values materialize
    to plain integers whenever they fit comfortably; comparisons against
    machine-size left-hand sides stay exact either way, because a symbolic
    value is only kept when it provably exceeds 2^(2^60).
    """

    __slots__ = ("value", "scale", "base", "exponent")

    def __init__(self, value=None, scale=1, base=None, exponent=None):
        self.value = value
        self.scale = scale
        self.base = base
        self.exponent = exponent

    @classmethod
    def of(cls, v: int) -> "Bound":
        return cls(value=int(v))

    @classmethod
    def power(cls, base: int, exponent, scale: int = 1) -> "Bound":
        """scale * base**exponent with an int or Bound exponent."""
        if base < 0 or scale < 0:
            raise ValueError("bounds are nonnegative")
        if isinstance(exponent, Bound) and exponent.value is not None:
            exponent = exponent.value
        if isinstance(exponent, int):
            if base <= 1:
                return cls(value=scale * base**min(exponent, 1) if exponent else scale)
            bits = exponent * math.log2(base) if exponent < 2**40 else float("inf")
            if bits <= _MATERIALIZE_BITS:
                return cls(value=scale * base**exponent)
            return cls(scale=scale, base=base, exponent=exponent)
        if base <= 1:
            raise ValueError("symbolic exponent needs base >= 2")
        return cls(scale=scale, base=base, exponent=exponent)

    def minus_small(self, k: int) -> "Bound":
        """self - k when exact; otherwise a provable lower bound for self - k.

        Lower bounds are the safe direction here: bounds only ever appear as
        right-hand sides, so underestimating can never certify a spurious
        pass.  For a symbolic scale*base^E, dropping E by one works since
        k <= scale*base^(E-1)*(base-1) for the astronomical E involved.
        """
        if self.value is not None:
            if self.value < k:
                raise ValueError("bound would go negative")
            return Bound.of(self.value - k)
        if isinstance(self.exponent, int):
            return Bound(scale=self.scale, base=self.base, exponent=self.exponent - 1)
        return Bound(scale=self.scale, base=self.base, exponent=self.exponent.minus_small(1))

    def geq(self, lhs: int) -> bool:
        """Exact test: does this bound dominate the integer lhs?"""
        if lhs <= 0:
            return True
        if self.value is not None:
            return self.value >= lhs
        # scale >= 1 would only help; ignore it and use base**exponent >= 2**exponent
        need = lhs.bit_length()  # base**need >= 2**need > lhs for base >= 2
        if isinstance(self.exponent, int):
            if self.exponent >= need:
                return True
            return self.scale * self.base**self.exponent >= lhs
        return self.exponent.geq(need)

    def log2(self) -> float | None:
        """Approximate log2 for display; None when it overflows a float."""
        if self.value is not None:
            if self.value <= 0:
                return None
            bl = self.value.bit_length()
            if bl <= 960:
                return math.log2(self.value)
            return float(bl - 53) + math.log2(self.value >> (bl - 53))
        exp = self.exponent if isinstance(self.exponent, int) else self.exponent.log2()
        if exp is None:
            return None
        try:
            if isinstance(self.exponent, int):
                return math.log2(self.scale) + self.exponent * math.log2(self.base)
            # exponent itself is ~2**exp; beyond floats almost surely
            return float("inf")
        except OverflowError:
            return float("inf")

    def desc(self) -> str:
        def int_desc(v: int) -> str:
            return str(v) if v.bit_length() <= 132 else f"~2^{v.bit_length() - 1}"

        if self.value is not None:
            return int_desc(self.value)
        expdesc = int_desc(self.exponent) if isinstance(self.exponent, int) else self.exponent.desc()
        prefix = f"{self.scale}*" if self.scale != 1 else ""
        return f"{prefix}{self.base}^({expdesc})"

    def json_value(self) -> int | None:
        if self.value is not None and self.value.bit_length() <= _REPORT_BITS:
            return self.value
        return None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    check: str
    instance: str
    params: dict
    lhs: int | None
    rhs: Bound | None
    verdict: str
    witness: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        rhs_log2 = self.rhs.log2() if self.rhs is not None else None
        if rhs_log2 is not None and not math.isfinite(rhs_log2):
            rhs_log2 = None
        return {
            "check": self.check,
            "instance": self.instance,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs.json_value() if self.rhs is not None else None,
            "rhs_desc": self.rhs.desc() if self.rhs is not None else None,
            "rhs_log2": rhs_log2,
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _verdict(lhs: int, rhs: Bound, *also: bool) -> str:
    """Pass when rhs dominates lhs and every side condition in ``also`` holds."""
    return PASS if rhs.geq(lhs) and all(also) else FAIL


def _betti_witness(table: BettiTable) -> list[list[int]]:
    return [[i, j, v] for (i, j), v in table.items()]


# ---------------------------------------------------------------------------
# shared per-ideal context
# ---------------------------------------------------------------------------

class CheckContext:
    """Caches the expensive invariants of one ideal across several checks."""

    def __init__(self, I: Ideal, seed: int = 0, instance: str = "adhoc"):
        self.ideal = I
        self.seed = seed
        self.instance = instance
        self._table: BettiTable | None = None
        self._sections: dict[int, tuple] = {}

    @property
    def table(self) -> BettiTable:
        if self._table is None:
            self._table = koszul_betti(self.ideal, seed=self.seed)
        return self._table

    @property
    def pd(self) -> int:
        return self.table.pd()

    @property
    def reg(self) -> int:
        return self.table.reg()

    @property
    def alpha(self) -> int:
        return alpha_of(self.table)

    @property
    def depth(self) -> int:
        return self.ideal.ring.nvars - self.pd

    @property
    def mu(self) -> int:
        return self.table.mu()

    @property
    def max_gen_degree(self) -> int:
        return self.table.max_gen_degree()


def _ctx(I: Ideal, ctx: CheckContext | None, seed: int = 0) -> CheckContext:
    """The context a check runs in, once I is known to be neither zero nor the unit ideal."""
    if I.is_zero:
        raise ValueError("the zero ideal is out of range for this check")
    if any(g.degree() == 0 for g in I.gens):
        raise ValueError("the unit ideal is out of range for this check")
    return ctx if ctx is not None else CheckContext(I, seed=seed)


def _report(
    check: str,
    c: CheckContext,
    params: dict,
    lhs: int | None,
    rhs: Bound | None,
    verdict: str,
    witness: dict | None = None,
    notes: str = "",
) -> BoundReport:
    """A report on the context's instance; ``params`` gain "N", the number of variables."""
    return BoundReport(check, c.instance, {"N": c.ideal.ring.nvars, **params}, lhs, rhs, verdict, witness or {}, notes)


def _skip(check: str, c: CheckContext, notes: str, params: dict) -> BoundReport:
    """The report of a check whose hypotheses the context's ideal does not meet."""
    return _report(check, c, params, None, None, SKIP, notes=notes)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_thm_lc(I: Ideal, ctx: CheckContext | None = None) -> BoundReport:
    """pd(S/I) <= mu^(2^alpha); re-checked with the count of minimal
    generators of degree <= alpha+1 in place of mu, and with the raw input
    generator count."""
    c = _ctx(I, ctx)
    mu, alpha, pd = c.mu, c.alpha, c.pd
    rhs = Bound.power(mu, 2**alpha)
    mu_small = c.table.min_gens_up_to(alpha + 1)
    raw = len(I.gens)
    verdict = _verdict(pd, rhs, Bound.power(mu_small, 2**alpha).geq(pd), Bound.power(raw, 2**alpha).geq(pd))
    return _report(
        "thm_lc", c, {"mu": mu, "alpha": alpha, "mu_low_degree": mu_small, "mu_raw": raw}, pd, rhs, verdict,
        {"betti": _betti_witness(c.table)},
        "also checked with generators of degree <= alpha+1 and with the raw generator count",
    )


def check_thm_prime(
    I: Ideal,
    h: int | None = None,
    user_asserts_unmixed_radical: bool = False,
    ctx: CheckContext | None = None,
) -> BoundReport:
    """pd(S/I) <= (h^(2^(alpha+3)-3))^(2^alpha) for unmixed radical ideals,
    plus the ingredient bound on generators of degree <= alpha+1."""
    c = _ctx(I, ctx)
    if not user_asserts_unmixed_radical:
        raise ValueError("the unmixed-radical hypothesis must be asserted by the caller")
    if h is None:
        h = I.ring.nvars - quotient_dimension(I)
    alpha, pd = c.alpha, c.pd
    rhs = Bound.power(h, (2 ** (alpha + 3) - 3) * 2**alpha)
    beta0_low = c.table.min_gens_up_to(alpha + 1)
    verdict = _verdict(pd, rhs, Bound.power(h, 2 ** (alpha + 3) - 3).geq(beta0_low))
    return _report(
        "thm_prime", c, {"h": h, "alpha": alpha}, pd, rhs, verdict,
        {"betti": _betti_witness(c.table), "beta0_low": beta0_low},
        "ingredient bound beta_{0,<=alpha+1}(I) <= h^(2^(alpha+3)-3) also enforced",
    )


def _window_skip(check: str, c: CheckContext) -> BoundReport | None:
    """The skip report of a regularity bound, which needs mu >= 2 and all
    minimal generator degrees in [2, D]; None when both hold."""
    dmin = min(j for (i, j) in c.table.entries if i == 1)
    if c.mu >= 2 and dmin >= 2:
        return None
    return _skip(check, c, "needs mu >= 2 and generator degrees in [2, D]",
                 {"mu": c.mu, "min_gen_degree": dmin, "D": c.max_gen_degree})


def _reg_tower(base: int, pd_bound: Bound) -> Bound:
    """base^(2^(pd_bound-2)), the regularity bound on top of a pd bound."""
    return Bound.power(base, Bound.power(2, pd_bound.minus_small(2)))


def check_coroll_reg(I: Ideal, ctx: CheckContext | None = None) -> BoundReport:
    """reg(I) <= D^(2^(mu^(2^alpha)-2)) when mu >= 2 and all minimal
    generator degrees lie in [2, D]."""
    c = _ctx(I, ctx)
    if (skip := _window_skip("coroll_reg", c)) is not None:
        return skip
    mu, alpha, D = c.mu, c.alpha, c.max_gen_degree
    rhs = _reg_tower(D, Bound.power(mu, 2**alpha))
    lhs = c.table.ideal_reg()
    return _report("coroll_reg", c, {"mu": mu, "alpha": alpha, "D": D}, lhs, rhs, _verdict(lhs, rhs),
                   {"betti": _betti_witness(c.table)})


def check_coroll_pd_reg(I: Ideal, ctx: CheckContext | None = None) -> BoundReport:
    """pd(S/I) <= mu^(2^reg(S/I)); the chain alpha <= reg used by its proof
    is asserted as well."""
    c = _ctx(I, ctx)
    mu, reg, pd = c.mu, c.reg, c.pd
    rhs = Bound.power(mu, 2**reg)
    return _report("coroll_pd_reg", c, {"mu": mu, "reg": reg, "alpha": c.alpha}, pd, rhs,
                   _verdict(pd, rhs, c.alpha <= reg), {"betti": _betti_witness(c.table)},
                   "alpha(S/I) <= reg(S/I) asserted")


def _syz_gamma(I: Ideal, c: CheckContext, seed: int) -> tuple[int | None, int, dict]:
    """(C, gamma, witness) for one seed of the hyperplane-section check.

    C = t_2 of S/(I + section forms) over S.  The table is computed in the
    substituted ring and lifted back over S by ``lift_section_table`` across
    the absorbed forms.
    """
    cached = c._sections.get(seed)
    if cached is not None:
        return cached
    r = c.depth
    section = generic_section(I, min(r + 1, I.ring.nvars), seed=seed)
    # the section quotient has depth 0 by construction: skip reduction tries
    table = koszul_betti(section.substituted, max_i=2, max_cuts=0, seed=seed)
    C = lift_section_table(table, section.absorbed, I.ring.nvars).t(2)
    D = c.max_gen_degree
    gamma = max(C, D) if C is not None else D
    witness = {
        "section_forms": len(section.forms),
        "regular_flags": section.regular_flags,
        "absorbed": section.absorbed,
        "t2_section": C,
    }
    c._sections[seed] = (C, gamma, witness)
    return C, gamma, witness


def _two_seed_section(I: Ideal, c: CheckContext, seed: int) -> tuple[int | None, int, list[dict], bool, str]:
    """The section data of the two seeds derived from ``seed``: C and gamma
    of the first, both witnesses, whether the two agree on C (a disagreement
    fails the check) and the note saying so."""
    runs = [_syz_gamma(I, c, seed=seed * 2 + k + 1) for k in (0, 1)]
    agree = runs[0][0] == runs[1][0]
    notes = "two-seed agreement on the section data" if agree else "seed disagreement on t_2 of the section"
    return runs[0][0], runs[0][1], [w for _, _, w in runs], agree, notes


def check_thm_syz(I: Ideal, seed: int = 0, ctx: CheckContext | None = None) -> BoundReport:
    """pd(S/I) <= mu^(2^(gamma-1)) with gamma = max{C, D} and C bounding the
    second syzygies of a generic (depth+1)-fold hyperplane section.

    Run twice with independent seeds; both verdicts and both gamma values are
    reported, and the two runs must agree."""
    c = _ctx(I, ctx, seed)
    mu, pd = c.mu, c.pd
    C, gamma, witnesses, agree, notes = _two_seed_section(I, c, seed)
    rhs = Bound.power(mu, 2 ** max(gamma - 1, 0))
    return _report(
        "thm_syz", c, {"mu": mu, "D": c.max_gen_degree, "depth": c.depth, "C": C, "gamma": gamma},
        pd, rhs, _verdict(pd, rhs, agree), {"runs": witnesses, "betti": _betti_witness(c.table)}, notes,
    )


def check_coroll_syz_reg(I: Ideal, seed: int = 0, ctx: CheckContext | None = None) -> BoundReport:
    """reg(I) <= D^(2^(mu^(2^(gamma-1))-2)) under the same section data,
    for mu >= 2 and generator degrees in [2, D]."""
    c = _ctx(I, ctx, seed)
    if (skip := _window_skip("coroll_syz_reg", c)) is not None:
        return skip
    mu, D = c.mu, c.max_gen_degree
    C, gamma, witnesses, agree, notes = _two_seed_section(I, c, seed)
    rhs = _reg_tower(D, Bound.power(mu, 2 ** max(gamma - 1, 0)))
    lhs = c.table.ideal_reg()
    return _report("coroll_syz_reg", c, {"mu": mu, "D": D, "C": C, "gamma": gamma}, lhs, rhs,
                   _verdict(lhs, rhs, agree), witnesses[0], notes)


def check_thm_jason(I: Ideal, r_values: Sequence[int] = (1, 2, 3, 4), ctx: CheckContext | None = None) -> list[BoundReport]:
    """For each r: with delta = reg_{1/r}(S/I), pd(S/I) <= r * mu^(2^delta),
    and for mu >= 2 also reg(I) <= (delta+1)^(2^(r*mu^(2^delta)-2))."""
    c = _ctx(I, ctx)
    mu, pd = c.mu, c.pd
    out = []
    for r in r_values:
        delta = frac_reg(c.table, r)
        params = {"mu": mu, "r": r, "delta": delta}
        rhs = Bound.power(mu, 2**delta, scale=r)
        out.append(_report("thm_jason", c, params, pd, rhs, _verdict(pd, rhs), {"betti": _betti_witness(c.table)}))
        if mu < 2:
            out.append(_skip("coroll_jason", c, "needs mu >= 2", {"mu": mu, "r": r}))
            continue
        rhs2 = _reg_tower(delta + 1, rhs)
        lhs2 = c.table.ideal_reg()
        out.append(_report("coroll_jason", c, params, lhs2, rhs2, _verdict(lhs2, rhs2)))
    return out


def check_lemma_reduction(I: Ideal, seed: int = 0, ctx: CheckContext | None = None) -> BoundReport:
    """alpha is unchanged by one verified-regular generic linear section."""
    c = _ctx(I, ctx, seed)
    if c.depth <= 0:
        return _skip("lemma_reduction", c, "needs depth(S/I) > 0", {"depth": c.depth})
    alphas = []
    tables = []
    for k in (0, 1):
        found = find_regular_form(I, seed=seed + 977 * k)
        if found is None:
            raise GenericityError("no regular linear form found within the retry budget")
        # S/(I + ell) over S, lifted from the certified image in N - 1 variables
        small = koszul_betti(found[1], max_cuts=c.depth - 1, seed=seed + k + 1)
        table2 = lift_section_table(small, 1, I.ring.nvars)
        alphas.append(alpha_of(table2))
        tables.append(table2)
    a1 = c.alpha
    return _report(
        "lemma_reduction", c,
        {"depth": c.depth, "alpha": a1, "alpha_section": alphas[0], "alpha_section_seed2": alphas[1]},
        alphas[0], Bound.of(a1), PASS if alphas == [a1, a1] else FAIL,
        {"betti": _betti_witness(c.table), "betti_section": _betti_witness(tables[0])},
        "equality check, two independent seeds",
    )


def check_remark_deg(
    I: Ideal,
    delta: int,
    order: MonomialOrder = GREVLEX,
    ctx: CheckContext | None = None,
) -> BoundReport:
    """After delta-1 faithful iterations the truncated leading monomials
    generate in(I) through degree delta, and the output size of degree <=
    delta stays within mu^(2^(delta-1)) (interreduction disabled)."""
    c = _ctx(I, ctx)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    trunc = truncated_initial_generators(I, order, delta)
    full_lms = initial_exponents(I, order)

    def through_delta(gens: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
        return tuple(m for m in gens if sum(m) <= delta)

    # two monomial ideals agree through degree delta exactly when their
    # minimal generators of degree <= delta are the same (minimalize sorts them)
    generates = through_delta(monomials.minimalize(trunc.leading_monomials())) == through_delta(full_lms)
    mu = sum(1 for g in I.gens if g.degree() <= delta)
    count = sum(1 for g in trunc.elements if g.degree() <= delta)
    rhs = Bound.power(mu, 2 ** (delta - 1))
    return _report(
        "remark_deg", c, {"delta": delta, "order": order.name, "mu_low": mu}, count, rhs,
        _verdict(count, rhs, generates),
        {"truncated_size": len(trunc.elements), "initial_ideal_size": len(full_lms),
         "generates_through_delta": generates},
        "faithful iterations (no product criterion, no interreduction)",
    )


def _lex_is_cheap(I: Ideal) -> bool:
    """Lex Groebner bases of dense ideals blow up quickly; only go there for
    genuinely small instances (monomial ideals are order-independent)."""
    if I.is_monomial:
        return False
    n = I.ring.nvars
    D = max((g.degree() for g in I.gens), default=0)
    return n <= 2 or (n == 3 and D <= 2 and len(I.gens) <= 4)


def check_semicontinuity_and_taylor(I: Ideal, ctx: CheckContext | None = None) -> BoundReport:
    """beta_{i,j}(S/I) <= beta_{i,j}(S/in(I)) entrywise (grevlex, plus lex on
    small instances), and for monomial input the Taylor bound
    beta_i <= C(r, i) over the raw generator count r."""
    c = _ctx(I, ctx)
    table = c.table
    orders = [GREVLEX]
    if _lex_is_cheap(I):
        orders.append(LEX)
    ok = True
    compared = {}
    for order in orders:
        # in(I) = I for every order when I is monomial
        in_table = table if I.is_monomial else monomial_betti(
            initial_exponents(I, order), I.ring.nvars, I.ring.char
        )
        compared[order.name] = _betti_witness(in_table)
        ok = ok and all(v <= in_table.beta(i, j) for (i, j), v in table.entries.items())
    if I.is_monomial:
        r = len(I.gens)
        ok = ok and all(sum(v for (ii, _), v in table.entries.items() if ii == i) <= math.comb(r, i)
                        for i in range(table.pd() + 1))
    return _report("semicontinuity_and_taylor", c, {"orders": [o.name for o in orders], "monomial": I.is_monomial},
                   None, None, PASS if ok else FAIL,
                   {"betti": _betti_witness(table), "initial_tables": compared})


def check_mccullough(I: Ideal, ctx: CheckContext | None = None) -> BoundReport:
    """Optional: reg(S/I) <= sum_{i<=c} t_i + (prod_{i<=c} t_i)/(c-1)! with
    c = ceil(N/2), evaluated when the resolution reaches index c."""
    c = _ctx(I, ctx)
    half = -(-I.ring.nvars // 2)
    if c.pd < half:
        return _skip("mccullough", c, "resolution shorter than ceil(N/2); t_i undefined beyond pd",
                     {"c": half, "pd": c.pd})
    ts = c.table.ts()
    total = sum(ts[1:half + 1])
    prod = 1
    for i in range(1, half + 1):
        prod *= ts[i]
    rhs_frac = Fraction(total) + Fraction(prod, math.factorial(half - 1))
    lhs = c.reg
    return _report("mccullough", c, {"c": half, "t": ts[1:half + 1]}, lhs, Bound.of(math.ceil(rhs_frac)),
                   PASS if Fraction(lhs) <= rhs_frac else FAIL, notes=f"exact rational rhs {rhs_frac}")


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

FAMILIES = (
    "random-homogeneous",
    "random-monomial",
    "borel",
    "edge-ideal",
    "complete-intersection",
)

_CI_VOLUME_BUDGET = 324


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    nvars: int
    ngens: int
    max_degree: int
    seed: int
    prime: int = 32003

    def label(self) -> str:
        return f"{self.family}/N{self.nvars}g{self.ngens}D{self.max_degree}s{self.seed}"


def _random_monomial(rng: random.Random, n: int, d: int) -> tuple[int, ...]:
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _dense_form(rng: random.Random, ring: PolyRing, d: int) -> Poly:
    while True:
        terms = {}
        for m in monomials.of_degree(ring.nvars, d):
            cc = rng.randrange(ring.char)
            if cc:
                terms[m] = cc
        if terms:
            return Poly(ring, terms, _normalized=True)


def _clamped_degrees(rng: random.Random, count: int, dmax: int, nvars: int, dmin: int = 2) -> list[int]:
    degs = sorted((rng.randint(dmin, max(dmin, dmax)) for _ in range(count)), reverse=True)
    # keep the Artinian volume of the dense families at desk scale
    while True:
        vol = 1
        for d in degs[:min(count, nvars)]:
            vol *= d
        if vol <= _CI_VOLUME_BUDGET or all(d <= 2 for d in degs):
            return degs
        for i, d in enumerate(degs):
            if d > 2:
                degs[i] = d - 1
                break
        degs.sort(reverse=True)


def _strongly_stable_closure(seeds: Iterable[tuple[int, ...]], n: int) -> tuple[tuple[int, ...], ...]:
    closure = set(seeds)
    frontier = list(closure)
    while frontier:
        u = frontier.pop()
        for j in range(n):
            if u[j] == 0:
                continue
            for i in range(j):
                v = list(u)
                v[j] -= 1
                v[i] += 1
                tv = tuple(v)
                if tv not in closure:
                    closure.add(tv)
                    frontier.append(tv)
    return monomials.minimalize(closure)


def _edge_ideal_meta(edges: list[tuple[int, int]], n: int) -> dict:
    covers = []
    supports = [frozenset(e) for e in edges]
    for mask in range(1 << n):
        T = {i for i in range(n) if mask >> i & 1}
        if all(s & T for s in supports):
            covers.append(T)
    minimal = [T for T in covers if not any(S < T for S in covers)]
    sizes = {len(T) for T in minimal}
    return {"unmixed_radical": len(sizes) == 1, "height": min(sizes) if sizes else 0}


def generate_instance(spec: InstanceSpec) -> tuple[Ideal, dict]:
    """Reproducible ideal from the named family, plus metadata."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.nvars < 1 or spec.ngens < 1 or spec.max_degree < 1:
        raise ValueError("inconsistent instance spec")
    rng = random.Random(spec.seed)
    ring = PolyRing(spec.nvars, spec.prime)
    meta: dict = {"family": spec.family}

    if spec.family == "random-monomial":
        exps = set()
        guard = 0
        while len(exps) < spec.ngens:
            exps.add(_random_monomial(rng, spec.nvars, rng.randint(1, spec.max_degree)))
            guard += 1
            if guard > 200:
                break
        return Ideal.monomial(ring, sorted(exps)), meta

    if spec.family == "borel":
        for _ in range(50):
            seeds = {_random_monomial(rng, spec.nvars, rng.randint(1, spec.max_degree))
                     for _ in range(rng.randint(1, 2))}
            gens = _strongly_stable_closure(seeds, spec.nvars)
            if 1 <= len(gens) <= max(spec.ngens, 6):
                meta["strongly_stable"] = True
                return Ideal.monomial(ring, gens), meta
        gens = _strongly_stable_closure({(spec.max_degree,) + (0,) * (spec.nvars - 1)}, spec.nvars)
        meta["strongly_stable"] = True
        return Ideal.monomial(ring, gens), meta

    if spec.family == "edge-ideal":
        if spec.nvars < 2:
            raise ValueError("edge ideals need at least two variables")
        pool = [(i, j) for i in range(spec.nvars) for j in range(i + 1, spec.nvars)]
        rng.shuffle(pool)
        edges = sorted(pool[:min(spec.ngens, len(pool))])
        exps = []
        for i, j in edges:
            e = [0] * spec.nvars
            e[i] = e[j] = 1
            exps.append(tuple(e))
        meta.update(_edge_ideal_meta(edges, spec.nvars))
        return Ideal.monomial(ring, exps), meta

    if spec.family == "complete-intersection":
        c = min(spec.ngens, spec.nvars, 4)
        degs = _clamped_degrees(rng, c, spec.max_degree, spec.nvars)
        for _ in range(8):
            gens = [_dense_form(rng, ring, d) for d in degs]
            I = Ideal(ring, gens)
            if quotient_dimension(I) == spec.nvars - c:
                meta["ci_degrees"] = degs
                return I, meta
        raise GenericityError("could not draw a regular sequence of dense forms")

    # random-homogeneous
    lowcut = 1 if rng.random() < 0.15 else 2
    degs = _clamped_degrees(rng, spec.ngens, spec.max_degree, spec.nvars, dmin=lowcut)
    gens = [_dense_form(rng, ring, d) for d in degs]
    return Ideal(ring, gens), meta


# ---------------------------------------------------------------------------
# suites and the corpus runner
# ---------------------------------------------------------------------------

# The suite, in report order: check name -> the reports that check adds for
# one ideal, given its context, its file metadata and the r values of the
# syzygy-fraction sweep.  Each entry calls its check through the module-level
# name, so a wrapper installed on ``verifier.check_<name>`` sees every call.
CHECKS: dict[str, Callable[[CheckContext, dict, Sequence[int]], list[BoundReport]]] = {
    "thm_lc": lambda c, meta, rs: [check_thm_lc(c.ideal, c)],
    "thm_prime": lambda c, meta, rs: [
        check_thm_prime(c.ideal, h=meta.get("height"), user_asserts_unmixed_radical=True, ctx=c)
    ] if meta.get("unmixed_radical") else [],
    "coroll_reg": lambda c, meta, rs: [check_coroll_reg(c.ideal, c)],
    "coroll_pd_reg": lambda c, meta, rs: [check_coroll_pd_reg(c.ideal, c)],
    "thm_syz": lambda c, meta, rs: [check_thm_syz(c.ideal, seed=c.seed, ctx=c)],
    "coroll_syz_reg": lambda c, meta, rs: [check_coroll_syz_reg(c.ideal, seed=c.seed, ctx=c)],
    "thm_jason": lambda c, meta, rs: check_thm_jason(c.ideal, rs, c),
    "lemma_reduction": lambda c, meta, rs: [check_lemma_reduction(c.ideal, seed=c.seed, ctx=c)],
    "remark_deg": lambda c, meta, rs: [
        check_remark_deg(c.ideal, delta, order, c)
        for delta, order in ((2, GREVLEX), (3, GREVLEX)) + (((2, LEX),) if _lex_is_cheap(c.ideal) else ())
    ],
    "semicontinuity_and_taylor": lambda c, meta, rs: [check_semicontinuity_and_taylor(c.ideal, c)],
    "mccullough": lambda c, meta, rs: [check_mccullough(c.ideal, c)],
}


def run_all_checks(
    I: Ideal,
    seed: int = 0,
    instance: str = "adhoc",
    meta: dict | None = None,
    r_values: Sequence[int] = (1, 2, 3, 4),
) -> list[BoundReport]:
    """Every applicable check on one ideal, in the order of ``CHECKS``, in
    one ``monomials.instance_scope``."""
    with monomials.instance_scope():
        ctx = CheckContext(I, seed=seed, instance=instance)
        return [r for run in CHECKS.values() for r in run(ctx, meta or {}, r_values)]


# the corpus draws N, the generator count and the degree bound up to these
_CORPUS_NVARS_MAX = 6
_CORPUS_NGENS_MAX = 6
_CORPUS_DMAX = 4


def corpus_specs(size: int, seed: int, prime: int = 32003) -> list[InstanceSpec]:
    """A deterministic spread of instance specs across the five random families."""
    weights = {
        "random-monomial": 0.26,
        "borel": 0.18,
        "edge-ideal": 0.20,
        "complete-intersection": 0.18,
        "random-homogeneous": 0.18,
    }
    rng = random.Random(seed)
    specs = []
    fams = list(weights)
    cum = []
    acc = 0.0
    for f in fams:
        acc += weights[f]
        cum.append(acc)
    for idx in range(size):
        u = rng.random()
        fam = next(f for f, cutoff in zip(fams, cum) if u <= cutoff)
        n = rng.randint(2, _CORPUS_NVARS_MAX)
        g = rng.randint(2 if fam != "random-monomial" else 1, _CORPUS_NGENS_MAX)
        d = rng.randint(2, _CORPUS_DMAX)
        specs.append(InstanceSpec(fam, n, g, d, seed=seed * 1_000_003 + idx, prime=prime))
    return specs


def run_corpus(
    size: int = 500,
    seed: int = 0,
    jsonl_path: str | None = None,
    tsv_path: str | None = None,
    r_values: Sequence[int] = (1, 2, 3, 4),
    prime: int = 32003,
    progress: Callable[[int, int], None] | None = None,
) -> dict:
    """Generate a corpus, run the whole suite, optionally write reports.

    An instance whose generation or checks raise gets one report with check
    and verdict "error", the exception as its notes and the replay spec as
    its params; the run goes on with the next instance.  Returns a summary
    dict with pass/fail/skip/error counts; determinism contract: identical
    arguments produce byte-identical report files.
    """
    PolyRing(1, prime)  # a bad prime is bad input to the whole run, not an instance error
    specs = corpus_specs(size, seed, prime=prime)
    reports: list[BoundReport] = []
    for k, spec in enumerate(specs):
        try:
            I, meta = generate_instance(spec)
            if I.is_zero:
                continue
            reports.extend(run_all_checks(I, seed=spec.seed, instance=spec.label(), meta=meta, r_values=r_values))
        except Exception as exc:  # one bad instance must not abort the corpus
            reports.append(BoundReport(
                check="error", instance=spec.label(), params=asdict(spec), lhs=None, rhs=None,
                verdict=ERROR, notes=f"{type(exc).__name__}: {exc}",
            ))
        if progress:
            progress(k + 1, len(specs))
    reports.sort(key=lambda r: (r.instance, r.check, json.dumps(r.params, sort_keys=True)))
    if jsonl_path:
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(r.to_json() + "\n")
    if tsv_path:
        with open(tsv_path, "w", encoding="utf-8") as fh:
            fh.write("instance\tcheck\tlhs\trhs_log2\tverdict\n")
            for r in reports:
                lg = r.rhs.log2() if r.rhs is not None else None
                lg_s = f"{lg:.6g}" if lg is not None and math.isfinite(lg) else ("inf" if lg is not None else "")
                fh.write(f"{r.instance}\t{r.check}\t{r.lhs if r.lhs is not None else ''}\t{lg_s}\t{r.verdict}\n")
    summary = {
        "instances": len(specs),
        "reports": len(reports),
        "pass": sum(r.verdict == PASS for r in reports),
        "fail": sum(r.verdict == FAIL for r in reports),
        "hypotheses_not_met": sum(r.verdict == SKIP for r in reports),
        "error": sum(r.verdict == ERROR for r in reports),
    }
    return summary
