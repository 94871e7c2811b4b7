"""Cross-module invariants on a small seeded corpus.

These are the structural identities the two Betti engines, the socle, and
the section machinery must satisfy simultaneously; each failure indicts an
implementation bug, not the mathematics.
"""

import random
from math import comb

import pytest

from bettibounds.groebner import (
    Ideal,
    form_regularity_with_image,
    initial_exponents,
    quotient_dimension,
)
from bettibounds.invariants import alpha_of, socle_of
from bettibounds.polyring import GREVLEX, LEX, PolyRing
from bettibounds.resolution import _regular_reduce, koszul_betti, monomial_betti
from bettibounds.verifier import InstanceSpec, generate_instance
from oracle import apply_linear_change, ideal_quotient, mat_inv_mod, minimize_taylor, socle_degrees, taylor_complex

FAMILIES = ("random-homogeneous", "random-monomial", "borel", "edge-ideal", "complete-intersection")


def _mini_corpus(count=20, seed=31):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        fam = FAMILIES[k % len(FAMILIES)]
        spec = InstanceSpec(fam, rng.randint(2, 4), rng.randint(1, 4), rng.randint(2, 3),
                            seed=seed * 10_000 + k)
        I, meta = generate_instance(spec)
        if not I.is_zero:
            out.append((spec, I, meta))
    return out


CORPUS = _mini_corpus()


@pytest.mark.parametrize("spec,I,meta", CORPUS, ids=[s.label() for s, _, _ in CORPUS])
def test_depth_matches_regular_sequence_length(spec, I, meta):
    B = koszul_betti(I, seed=spec.seed)
    depth = I.ring.nvars - B.pd()
    assert _regular_reduce(I, seed=spec.seed)[1] == depth


@pytest.mark.parametrize("spec,I,meta", CORPUS, ids=[s.label() for s, _, _ in CORPUS])
def test_min_socle_degree_equals_alpha_when_depth_zero(spec, I, meta):
    B = koszul_betti(I, seed=spec.seed)
    degs = socle_degrees(I)
    assert degs == list(socle_of(B))
    if I.ring.nvars - B.pd() != 0:
        assert degs == []
        return
    assert degs, "depth zero must give a nonzero socle"
    assert min(degs) == alpha_of(B)


@pytest.mark.parametrize("spec,I,meta", CORPUS, ids=[s.label() for s, _, _ in CORPUS])
def test_semicontinuity_entrywise(spec, I, meta):
    B = koszul_betti(I, seed=spec.seed)
    for order in (GREVLEX, LEX) if I.ring.nvars <= 3 else (GREVLEX,):
        Bin = monomial_betti(initial_exponents(I, order), I.ring.nvars, I.ring.char)
        for (i, j), v in B.entries.items():
            assert v <= Bin.beta(i, j)


@pytest.mark.parametrize("spec,I,meta", [c for c in CORPUS if c[1].is_monomial],
                         ids=[s.label() for s, i, _ in CORPUS if i.is_monomial])
def test_taylor_binomial_bound(spec, I, meta):
    B = koszul_betti(I, seed=spec.seed)
    r = len(I.gens)
    for i in range(B.pd() + 1):
        bi = sum(v for (ii, _), v in B.entries.items() if ii == i)
        assert bi <= comb(r, i)
    assert B.pd() <= r


def test_alpha_invariant_under_regular_section():
    # every depth >= 1 instance keeps alpha under one verified-regular form
    from bettibounds.invariants import find_regular_form

    for spec, I, meta in CORPUS:
        B = koszul_betti(I, seed=spec.seed)
        if I.ring.nvars - B.pd() < 1:
            continue
        found = find_regular_form(I, seed=spec.seed)
        assert found is not None
        ell = found[0]
        J = Ideal(I.ring, list(I.gens) + [ell])
        assert alpha_of(koszul_betti(J, seed=spec.seed)) == alpha_of(B)


def test_filter_regular_failure_rate_small():
    rng = random.Random(77)
    total = bad = 0
    for spec, I, meta in CORPUS[:10]:
        for _ in range(20):
            coeffs = [rng.randrange(I.ring.char) for _ in range(I.ring.nvars)]
            if not any(coeffs):
                continue
            total += 1
            if not form_regularity_with_image(I, I.ring.linear_form(coeffs))[1]:
                bad += 1
    assert total > 150
    assert bad / total < 0.01


def test_tor_sequence_degree_inequality_generic_coordinates():
    # t_1(S/(I:x_N)) + 1 <= max{t_2(S/(I+(x_N))), t_1(S/I)} in generic coords
    rng = random.Random(13)
    R3 = PolyRing(3, 32003, ("x", "y", "z"))
    for spec, I0, meta in CORPUS[:8]:
        if I0.ring.nvars != 3 or quotient_dimension(I0) < 1:
            continue
        while True:
            M = [[rng.randrange(32003) for _ in range(3)] for _ in range(3)]
            if mat_inv_mod(M, 32003) is not None:
                break
        I = Ideal(I0.ring, [apply_linear_change(g, M) for g in I0.gens])
        xN = I.ring.variable(I.ring.nvars - 1)
        colon = ideal_quotient(I, xN)
        if colon.is_zero or any(g.degree() == 0 for g in colon.gens):
            continue
        t1_colon = koszul_betti(colon, max_i=1).t(1)
        plus = Ideal(I.ring, list(I.gens) + [xN])
        t2_plus = koszul_betti(plus, max_i=2, max_cuts=0).t(2)
        t1_I = koszul_betti(I, max_i=1).t(1)
        bound = max(v for v in (t2_plus, t1_I) if v is not None)
        assert t1_colon + 1 <= bound


def test_strand_and_taylor_engines_agree_on_corpus_monomials():
    for spec, I, meta in CORPUS:
        if not I.is_monomial or len(I.gens) > 10:
            continue
        A = minimize_taylor(taylor_complex(list(I.gens)))
        B = monomial_betti(I.monomial_exponents(), I.ring.nvars, I.ring.char)
        assert A.entries == B.entries
