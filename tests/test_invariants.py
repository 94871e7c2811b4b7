import pytest

from bettibounds.groebner import Ideal, ideals_equal
from bettibounds.invariants import (
    GenericityError,
    alpha_of,
    filter_regular_test,
    frac_reg,
    generic_section,
    invariant_bundle,
    socle_degrees,
)
from bettibounds.polyring import PolyRing
from bettibounds.resolution import _regular_reduce, koszul_betti, minimize_taylor, taylor_complex

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
    from bettibounds.groebner import ideal_quotient_ideal, irrelevant_ideal, quotient_hilbert_function

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
    v = filter_regular_test(Y, I)
    assert v.filter_regular and not v.regular
    v = filter_regular_test(X, Ideal(R2, [X]))
    assert not v.filter_regular
    with pytest.raises(ValueError):
        filter_regular_test(X * X, I)


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
            a = filter_regular_test(ell, I, method="hilbert")
            b = filter_regular_test(ell, I, method="colon")
            assert a == b


def test_generic_section_examples():
    I = Ideal(R2, [X * X])
    s = generic_section(I, 0, seed=1)
    assert ideals_equal(s.ideal, I)

    # three squares in four variables: depth 1, one regular generic form,
    # alpha agrees before and after
    x, y, z, w = R4.variables()
    I = Ideal(R4, [x * x, y * y, z * z])
    B = koszul_betti(I)
    assert R4.nvars - B.pd() == 1  # depth 1
    s = generic_section(I, 1, seed=3)
    assert s.regular_flags == [True]
    assert alpha_of(koszul_betti(s.ideal)) == alpha_of(B) == 3


def test_generic_section_two_seeds_agree():
    x, y, z, w = R4.variables()
    I = Ideal(R4, [x * x, y * y, z * z])
    b1 = invariant_bundle(generic_section(I, 1, seed=5).ideal)
    b2 = invariant_bundle(generic_section(I, 1, seed=11).ideal)
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
