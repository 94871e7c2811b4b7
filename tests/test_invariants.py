import pytest

from bettibounds.groebner import Ideal, form_regularity_with_image
from bettibounds.invariants import (
    GenericityError,
    alpha_of,
    frac_reg,
    generic_section,
    invariant_bundle,
)
from bettibounds.polyring import PolyRing
from bettibounds.resolution import _regular_reduce, koszul_betti
from oracle import (
    filter_regular_test, ideal_quotient_ideal, ideals_equal, irrelevant_ideal, minimize_taylor,
    quotient_hilbert_function, socle_degrees, taylor_complex,
)

R2 = PolyRing(2, 32003, ("x", "y"))
R3 = PolyRing(3, 32003, ("x", "y", "z"))
R4 = PolyRing(4, 32003, ("x", "y", "z", "w"))
X, Y = R2.variables()


def test_alpha_examples():
    assert alpha_of(koszul_betti(Ideal(R2, [X * X, Y * Y]))) == 2
    B = minimize_taylor(taylor_complex([X * X, X * Y, Y * Y]))
    assert alpha_of(B) == 1
    assert alpha_of(koszul_betti(Ideal(R2, [X]))) == 0


def test_socle_examples():
    assert socle_degrees(Ideal(R2, [X * X, X * Y, Y * Y])) == [1, 1]
    assert socle_degrees(Ideal(R2, [X * X, Y * Y])) == [2]
    assert socle_degrees(Ideal(R2, [X])) == []


def test_socle_nonartinian_depth_zero():
    x, y, z = R3.variables()
    # (x^2, xy): depth 0 but dimension 2; socle of S/I sits in degree 1 (x)
    I = Ideal(R3, [x * x, x * y, x * z])
    # S/I = k[y,z] + x*k: x is annihilated by x, y, z: socle {x} in degree 1
    assert socle_degrees(I) == [1]


def test_socle_routes_agree():
    # Artinian kernel route vs the colon route
    I = Ideal(R2, [X ** 3, X * Y, Y * Y])
    degs = socle_degrees(I)
    Q = ideal_quotient_ideal(I, irrelevant_ideal(R2))
    colon_route = []
    for d in range(0, 8):
        diff = quotient_hilbert_function(I, d) - quotient_hilbert_function(Q, d)
        colon_route.extend([d] * diff)
    assert degs == colon_route


def test_frac_reg_examples():
    B = koszul_betti(Ideal(R2, [X * X, Y * Y]))
    assert frac_reg(B, 1) == B.reg() == 2
    assert frac_reg(B, 2) == 1
    B3 = minimize_taylor(taylor_complex([X * X, X * Y, Y * Y]))
    assert frac_reg(B3, 2) == 1
    with pytest.raises(ValueError):
        frac_reg(B, 0)


def test_filter_regular_examples():
    I = Ideal(R2, [X * X, X * Y])
    regular, filter_regular, _ = form_regularity_with_image(I, Y)
    assert filter_regular and not regular
    assert form_regularity_with_image(Ideal(R2, [X]), X)[1] is False
    with pytest.raises(ValueError):
        form_regularity_with_image(I, X * X)


def test_filter_regular_methods_agree():
    import random

    rng = random.Random(4)
    ideals = [
        Ideal(R2, [X * X, X * Y]),
        Ideal(R2, [X]),
        Ideal(R2, [X * X + Y * Y, X * Y]),
        Ideal(R3, [R3.variable(0) * R3.variable(1)]),
    ]
    for I in ideals:
        for _ in range(4):
            coeffs = [rng.randrange(32003) for _ in range(I.ring.nvars)]
            if not any(coeffs):
                continue
            ell = I.ring.linear_form(coeffs)
            assert form_regularity_with_image(I, ell)[:2] == filter_regular_test(ell, I)


def test_generic_section_examples():
    I = Ideal(R2, [X * X])
    s = generic_section(I, 0, seed=1)
    assert ideals_equal(Ideal(R2, list(I.gens) + s.forms), I)

    # three squares in four variables: depth 1, one regular generic form,
    # alpha agrees before and after
    x, y, z, w = R4.variables()
    I = Ideal(R4, [x * x, y * y, z * z])
    B = koszul_betti(I)
    assert R4.nvars - B.pd() == 1  # depth 1
    s = generic_section(I, 1, seed=3)
    assert s.regular_flags == [True]
    assert alpha_of(koszul_betti(Ideal(R4, list(I.gens) + s.forms))) == alpha_of(B) == 3


def test_generic_section_two_seeds_agree():
    x, y, z, w = R4.variables()
    I = Ideal(R4, [x * x, y * y, z * z])
    b1 = invariant_bundle(Ideal(R4, list(I.gens) + generic_section(I, 1, seed=5).forms))
    b2 = invariant_bundle(Ideal(R4, list(I.gens) + generic_section(I, 1, seed=11).forms))
    assert b1 == b2


def test_generic_section_count_validation():
    with pytest.raises(ValueError):
        generic_section(Ideal(R2, [X]), 3)


def test_invariant_bundle_consistency():
    I = Ideal(R2, [X * X, X * Y, Y * Y])
    b = invariant_bundle(I)
    assert b.pd == 2 and b.depth == 0 and b.reg == 1 and b.alpha == 1
    assert b.socle_degrees == (1, 1)
    assert b.num_min_gens == 3 and b.max_gen_degree == 2
    assert min(b.socle_degrees) == b.alpha
    # depth 0 without being Artinian: the socle of S/(x^2, xy, xz) is x
    x, y, z = R3.variables()
    b = invariant_bundle(Ideal(R3, [x * x, x * y, x * z]))
    assert b.depth == 0 and b.socle_degrees == (1,) and b.alpha == 1


def test_depth_cross_check_regular_sequences():
    cases = [
        Ideal(R2, [X * X, Y * Y]),   # depth 0
        Ideal(R3, [R3.variable(0) ** 2]),  # depth 2
        Ideal(R4, [R4.variable(0) * R4.variable(1)]),  # depth 3
    ]
    for I in cases:
        B = koszul_betti(I)
        depth = I.ring.nvars - B.pd()
        assert _regular_reduce(I, seed=2)[1] == depth
