"""Sparse polynomial arithmetic over a prime field, with the standard grading.

A monomial is a dense tuple of nonnegative exponents, one entry per variable;
inside the engine's loops it is packed into one integer (``Packing``).  A
polynomial maps monomials to nonzero coefficients in F_p.  The ambient ring
fixes the number of variables and the characteristic; every variable has
degree one.  All values are immutable after construction and every operation
returns a fresh object, so they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub
from typing import Callable, Iterable, Mapping, Sequence

Exponents = tuple[int, ...]

# exclusive bound on the characteristic: it keeps trial division in is_prime
# near 2 ms (ranks over F_p use Python ints and need no bound)
MAX_CHAR = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# exponent-vector helpers
# ---------------------------------------------------------------------------

def exp_deg(e: Exponents) -> int:
    return sum(e)


def exp_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def exp_sub(a: Exponents, b: Exponents) -> Exponents:
    """a / b as exponent vectors; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def exp_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial with exponents a divides the one with b."""
    return all(map(le, a, b))


def exp_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def exp_gcd(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(min, a, b))


class Packing:
    """The engine's monomial encoding: an exponent vector packed into one int.

    Variable i (from 0) sits in the field of ``width`` bits at bit i * width,
    so the exponents are stored in reversed order (x_N in the highest field),
    and the total degree sits above every field, from bit ``shift`` up.  The
    encoding is additive: x^a * x^b packs to P(a) + P(b), and x^a / x^b to
    P(a) - P(b) when x^b divides x^a.

    ``pack`` accepts exponents below 2^bits.  Each field has room for values
    below ``growth`` = 2^(bits + 2), which callers that multiply monomials
    check with ``overflow``; the top bit of a field is a guard bit that no
    packed monomial sets, and a field is wide enough to hold the sum of two
    values below ``growth`` and the degree of a monomial whose fields are
    all below ``growth``.  Divisibility,
    lcm and the grevlex key are then a few operations on the whole integer
    (SWAR: per-field arithmetic on one wide integer):

    * x^a | x^b iff ((P(b) | guards) - P(a)) keeps every guard bit;
    * lcm: the guard bits of (P(a) | guards) - P(b) mark the fields where
      a_i >= b_i, which select a_i or b_i; the degree of the lcm, the sum of
      its fields, is the top field of its exponent part times
      (1 + 2^width + 2^(2 width) + ...);
    * grevlex: compare (degree, -e_N, ..., -e_1), that is the integer
      2 * (degree << shift) - P (``groebner._packed_key_fn``).
    """

    __slots__ = ("nvars", "bits", "width", "shift", "fmask", "emask", "guards", "ones", "overflow")

    def __init__(self, nvars: int, bits: int):
        growth = 1 << (bits + 2)
        width = max(bits + 3, (nvars * (growth - 1)).bit_length())
        self.nvars = nvars
        self.bits = bits
        self.width = width
        self.shift = nvars * width
        self.fmask = (1 << width) - 1
        self.emask = (1 << self.shift) - 1
        self.ones = sum(1 << (width * i) for i in range(nvars))
        self.guards = self.ones << (width - 1)
        # the bits of each field from ``growth`` up, guard bit included
        self.overflow = self.ones * (((1 << width) - 1) ^ (growth - 1))

    @classmethod
    def for_exponents(cls, nvars: int, exps: Iterable[Exponents]) -> "Packing":
        """The packing whose field width follows the largest exponent present."""
        return cls(nvars, max((max(e, default=0) for e in exps), default=0).bit_length())

    def pack(self, e: Exponents) -> int:
        v = 0
        width = self.width
        limit = 1 << self.bits
        for i, x in enumerate(e):
            if x >= limit:
                raise ValueError(f"exponent {x} is out of range: packed monomials here need exponents below 2^{self.bits}")
            v |= x << (width * i)
        return v | (sum(e) << self.shift)

    def unpack(self, m: int) -> Exponents:
        width, fmask = self.width, self.fmask
        return tuple((m >> (width * i)) & fmask for i in range(self.nvars))

    def deg(self, m: int) -> int:
        return m >> self.shift

    def divides(self, a: int, b: int) -> bool:
        """True when the monomial packed as a divides the one packed as b."""
        guards = self.guards
        return ((b | guards) - a) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        d = ((a | self.guards) - b) & self.guards
        pick = (d << 1) - (d >> (self.width - 1))
        e = (b ^ ((a ^ b) & pick)) & self.emask
        return ((((e * self.ones) >> (self.shift - self.width)) & self.fmask) << self.shift) | e


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """A total order on exponent vectors refining divisibility.

    ``key`` maps an exponent vector to a flat integer tuple; bigger key means
    bigger monomial.  Keys of vectors of equal length are always comparable.
    """

    def __init__(self, name: str, key: Callable[[Exponents], tuple[int, ...]]):
        self.name = name
        self._key = key

    def key(self, exps: Exponents) -> tuple[int, ...]:
        return self._key(exps)

    def compare(self, a: Exponents, b: Exponents) -> int:
        """-1, 0 or 1 according to a < b, a == b, a > b."""
        if len(a) != len(b):
            raise ValueError("exponent vectors live in different rings")
        ka, kb = self._key(a), self._key(b)
        return (ka > kb) - (ka < kb)

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name!r})"


def _grevlex_key(e: Exponents) -> tuple[int, ...]:
    # higher total degree wins; ties: smaller last nonzero entry of the
    # difference wins, i.e. compare negated exponents from the back
    return (sum(e),) + tuple(-x for x in reversed(e))


def _lex_key(e: Exponents) -> tuple[int, ...]:
    return e


GREVLEX = MonomialOrder("grevlex", _grevlex_key)
LEX = MonomialOrder("lex", _lex_key)

ORDERS: dict[str, MonomialOrder] = {"grevlex": GREVLEX, "lex": LEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}; use one of {sorted(ORDERS)}")


# ---------------------------------------------------------------------------
# rings and polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyRing:
    """F_p[x_1, ..., x_N] with deg(x_i) = 1 for every i."""

    nvars: int
    char: int = 32003
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        if self.char >= MAX_CHAR:
            raise ValueError(f"characteristic must be below 2^31, got {self.char}")
        if self.char <= 2 or not is_prime(self.char):
            raise ValueError(f"characteristic must be an odd prime, got {self.char}")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i + 1}" for i in range(self.nvars)))
        elif len(self.names) != self.nvars:
            raise ValueError("one name per variable required")

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {}, _normalized=True)

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: 1}, _normalized=True)

    def variable(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): 1}, _normalized=True)

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Poly":
        return Poly(self, {tuple(exps): coeff})

    def from_terms(self, terms: Mapping[Exponents, int]) -> "Poly":
        return Poly(self, terms)

    def linear_form(self, coeffs: Sequence[int]) -> "Poly":
        if len(coeffs) != self.nvars:
            raise ValueError("one coefficient per variable required")
        terms = {}
        for i, c in enumerate(coeffs):
            if c % self.char:
                e = [0] * self.nvars
                e[i] = 1
                terms[tuple(e)] = c % self.char
        return Poly(self, terms, _normalized=True)

    def variables(self) -> list["Poly"]:
        return [self.variable(i) for i in range(self.nvars)]


class Poly:
    """A sparse polynomial: dict from exponent tuple to nonzero coeff mod p.

    A Poly is never changed after construction, so it caches its hash and its
    leading monomial under the last order asked for, keyed by the identity of
    the order object (orders are built on the fly and may share a name).
    """

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, int], *, _normalized: bool = False):
        if not _normalized:
            p = ring.char
            clean: dict[Exponents, int] = {}
            for e, c in terms.items():
                te = tuple(e)
                if len(te) != ring.nvars:
                    raise ValueError("exponent vector has wrong length")
                if any(x < 0 for x in te):
                    raise ValueError("negative exponent")
                c = (clean.get(te, 0) + c) % p
                if c:
                    clean[te] = c
                else:
                    clean.pop(te, None)
            terms = clean
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._lead: tuple[MonomialOrder, Exponents] | None = None

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- leading data --------------------------------------------------------

    def leading_monomial(self, order: MonomialOrder) -> Exponents:
        lead = self._lead
        if lead is not None and lead[0] is order:
            return lead[1]
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        lm = max(self.terms, key=order.key)
        self._lead = (order, lm)
        return lm

    def leading_coeff(self, order: MonomialOrder) -> int:
        return self.terms[self.leading_monomial(order)]

    def leading_term(self, order: MonomialOrder) -> tuple[int, Exponents]:
        """(coefficient, exponents) of the order-largest term."""
        m = self.leading_monomial(order)
        return self.terms[m], m

    def monic(self, order: MonomialOrder) -> "Poly":
        if not self.terms:
            raise ValueError("cannot rescale the zero polynomial")
        c = self.terms[self.leading_monomial(order)]
        if c == 1:
            return self
        inv = pow(c, self.ring.char - 2, self.ring.char)
        return self.scale(inv)

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        p = self.ring.char
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = (out.get(e, 0) + c) % p
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Poly(self.ring, out, _normalized=True)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        p = self.ring.char
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = (out.get(e, 0) - c) % p
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Poly(self.ring, out, _normalized=True)

    def __neg__(self) -> "Poly":
        p = self.ring.char
        return Poly(self.ring, {e: p - c for e, c in self.terms.items()}, _normalized=True)

    def scale(self, c: int) -> "Poly":
        p = self.ring.char
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Poly(self.ring, {e: (v * c) % p for e, v in self.terms.items()}, _normalized=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        p = self.ring.char
        out: dict[Exponents, int] = {}
        # iterate over the shorter operand outside for fewer dict rebuilds
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                nc = (out.get(e, 0) + ca * cb) % p
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return Poly(self.ring, out, _normalized=True)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def mul_term(self, coeff: int, exps: Exponents) -> "Poly":
        """Multiply by the single term coeff * x^exps."""
        p = self.ring.char
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        out = {}
        for e, c in self.terms.items():
            out[tuple(x + y for x, y in zip(e, exps))] = (c * coeff) % p
        return Poly(self.ring, out, _normalized=True)

    # -- hashing / comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring.nvars, self.ring.char, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def format_poly(f: Poly, order: MonomialOrder = GREVLEX) -> str:
    """Render with explicit '*' and '^', terms in descending order.

    Coefficients are balanced around zero (e.g. -1 instead of p-1) so that the
    text stays readable; parsing it back lands on the same polynomial.
    """
    if not f.terms:
        return "0"
    p = f.ring.char
    names = f.ring.names
    parts: list[str] = []
    for e in sorted(f.terms, key=order.key, reverse=True):
        c = f.terms[e]
        if c > p // 2:
            sign, c = "-", p - c
        else:
            sign = "+"
        factors = [f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k]
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(c)] + factors)
        parts.append((sign, body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# linear changes of coordinates
# ---------------------------------------------------------------------------

def mat_inv_mod(M: Sequence[Sequence[int]], p: int) -> list[list[int]] | None:
    """Inverse of a square matrix mod p, or None if singular."""
    n = len(M)
    aug = [[M[i][j] % p for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], p - 2, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[row])]
        row += 1
    return [r[n:] for r in aug]


def apply_linear_change(f: Poly, M: Sequence[Sequence[int]]) -> Poly:
    """Substitute x_j -> sum_i M[i][j] * x_i.

    M must be invertible mod p; degrees and homogeneity are preserved.
    """
    ring = f.ring
    n = ring.nvars
    if len(M) != n or any(len(row) != n for row in M):
        raise ValueError("matrix size does not match the ring")
    if mat_inv_mod(M, ring.char) is None:
        raise ValueError("singular change of coordinates")
    images = [ring.linear_form([M[i][j] for i in range(n)]) for j in range(n)]
    # cache powers of each image as needed
    powers: dict[tuple[int, int], Poly] = {}

    def image_power(j: int, k: int) -> Poly:
        key = (j, k)
        if key not in powers:
            powers[key] = ring.one() if k == 0 else image_power(j, k - 1) * images[j]
        return powers[key]

    out = ring.zero()
    for e, c in f.terms.items():
        term = Poly(ring, {(0,) * n: c}, _normalized=True)
        for j, k in enumerate(e):
            if k:
                term = term * image_power(j, k)
        out = out + term
    return out
