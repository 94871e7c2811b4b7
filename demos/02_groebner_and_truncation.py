"""Groebner bases, the literal one-round iteration and degree truncation.

Run:  python demos/02_groebner_and_truncation.py
"""

from bettibounds import (
    GREVLEX,
    Ideal,
    PolyRing,
    buchberger_iteration,
    format_poly,
    groebner_basis,
    s_polynomial,
    truncated_initial_generators,
)

ring = PolyRing(2, 32003, ("x", "y"))
x, y = ring.variables()

I = Ideal(ring, [x * x + y * y, x * y])
print("I = (x^2 + y^2, x*y)")

s = s_polynomial(x * x + y * y, x * y, GREVLEX)
print("S-polynomial of the generators:", format_poly(s))

one_round = buchberger_iteration(list(I.gens), GREVLEX)
print("after one iteration:", [format_poly(g) for g in one_round])

gb = groebner_basis(I)
print("reduced Groebner basis:", [format_poly(g) for g in gb.elements])

# the truncated run only needs delta - 1 rounds to see in(I) through degree delta
tr = truncated_initial_generators(I, GREVLEX, 3)
print("leading monomials through degree 3:", sorted(tr.leading_monomials()))
