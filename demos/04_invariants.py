"""Socle degrees, alpha, fractional regularity, generic sections.

Run:  python demos/04_invariants.py
"""

from bettibounds import (
    Ideal,
    PolyRing,
    alpha_of,
    filter_regular_test,
    format_poly,
    frac_reg,
    generic_section,
    invariant_bundle,
    koszul_betti,
    socle_degrees,
)

R4 = PolyRing(4, 32003, ("x", "y", "z", "w"))
x, y, z, w = R4.variables()

I = Ideal(R4, [x * x, y * y, z * z])
bundle = invariant_bundle(I)
print("I = (x^2, y^2, z^2) in four variables")
print("invariants:", bundle.as_dict())

# alpha can be read from the end of the resolution, or from the socle once
# the quotient has depth zero; a regular section connects the two
section = generic_section(I, 1, seed=3)
print("\none generic linear form, regular:", section.regular_flags[0])
J = section.ideal
print("alpha before:", bundle.alpha, "after:", alpha_of(koszul_betti(J)))
print("socle degrees of the section:", socle_degrees(J))

# fractional regularity interpolates between reg (r=1) and generator data
B = koszul_betti(I)
print("\nreg_{1/r} for r = 1..4:", [frac_reg(B, r) for r in (1, 2, 3, 4)])

# filter-regularity of a random linear form is certified exactly
ell = R4.linear_form([1, 2, 3, 4])
print("\nfilter test for", format_poly(ell), "->", filter_regular_test(ell, I))
