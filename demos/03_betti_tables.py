"""Graded Betti numbers through Koszul homology: monomial strands, and the
table of a general ideal below the table of its initial ideal.

Run:  python demos/03_betti_tables.py
"""

from bettibounds import (
    Ideal,
    PolyRing,
    format_betti,
    koszul_betti,
    monomial_betti,
)

ring = PolyRing(2, 32003, ("x", "y"))
x, y = ring.variables()

# a monomial ideal: the Koszul complex splits into multigraded strands
A = monomial_betti(((2, 0), (1, 1), (0, 2)), 2, 32003)
print("Koszul strands:", A.entries)
assert koszul_betti(Ideal(ring, [x * x, x * y, y * y])) == A

print("\nBetti diagram of S/(x^2, x*y, y^2):")
print(format_betti(A))
print(f"pd = {A.pd()}, reg = {A.reg()}, t = {A.ts()}")

# a general ideal: the table sits below the table of its initial ideal
I = Ideal(ring, [x * x + y * y, x * y])
G = koszul_betti(I)
print("\nS/(x^2+y^2, x*y):", G.entries)
IN = monomial_betti(((2, 0), (1, 1), (0, 3)), 2, 32003)
print("S/in(I):         ", IN.entries)
for key, v in G.entries.items():
    assert v <= IN.beta(*key)
print("entrywise semicontinuity holds; the bound is strict at",
      sorted(k for k, v in IN.entries.items() if v > G.beta(*k)))
