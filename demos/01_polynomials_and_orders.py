"""Polynomials over a prime field and monomial orders.

Run:  python demos/01_polynomials_and_orders.py
"""

from bettibounds import GREVLEX, LEX, PolyRing, format_poly

ring = PolyRing(3, 32003, ("x", "y", "z"))
x, y, z = ring.variables()

f = x * x + 3 * x * y - z * z
print("f =", format_poly(f))
print("deg f =", f.degree(), "| homogeneous:", f.is_homogeneous())

# grevlex vs lex disagree on which term leads
g = x * y * y + x * x * z
print("\ng =", format_poly(g))
print("leading monomial, grevlex:", g.leading_monomial(GREVLEX))
print("leading monomial, lex:    ", g.leading_monomial(LEX))

# within degree 2: x^2 > xy > y^2 > xz > yz > z^2 in grevlex
degree2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
print("\ngrevlex order on degree 2:", sorted(degree2, key=GREVLEX.key, reverse=True))
