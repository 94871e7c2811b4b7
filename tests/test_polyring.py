import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettibounds.polyring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Packing,
    Poly,
    PolyRing,
    exp_divides,
    format_poly,
    order_by_name,
)
from oracle import _elim_order, apply_linear_change, exp_deg, exp_lcm, exp_mul, mat_inv_mod

R2 = PolyRing(2, 32003, ("x", "y"))
R3 = PolyRing(3, 32003, ("x", "y", "z"))
X, Y = R2.variables()


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing(0, 32003)
    with pytest.raises(ValueError):
        PolyRing(2, 4)  # not prime
    with pytest.raises(ValueError):
        PolyRing(2, 2)  # p > 2 required
    with pytest.raises(ValueError):
        PolyRing(2, 7, ("x",))


def test_characteristic_of_2_31_or_more_is_refused():
    # the refusal keeps trial division in is_prime fast; below the bound
    # ranks stay exact near p, e.g. for the rank-1 matrix
    # [[p-1, p-2], [p-2, p-4]]
    from bettibounds.linalg import rank_mod_p

    with pytest.raises(ValueError, match=r"2\^31"):
        PolyRing(2, 4294967311)
    p = 2**31 - 1
    assert PolyRing(2, p).char == p
    assert rank_mod_p([{0: p - 1, 1: p - 2}, {0: p - 2, 1: p - 4}], p) == 1


def test_leading_monomial_cache_follows_the_order_object():
    # the custom order shares grevlex's name but not its key
    orders = [GREVLEX, LEX, _elim_order(GREVLEX), MonomialOrder("grevlex", lambda e: e)]
    f = R3.from_terms({(2, 0, 2): 1, (2, 1, 0): 2, (0, 1, 2): 3, (1, 1, 1): 4})
    leads = []
    for order in orders * 3:
        lm = f.leading_monomial(order)
        assert lm == max(f.terms, key=order.key)
        leads.append(lm)
    # consecutive queries disagree, so a stale cache entry would show
    assert leads[:4] == [(2, 0, 2), (2, 1, 0), (2, 0, 2), (2, 1, 0)]


def test_compare_grevlex_degree2_tiebreak():
    # x^2 > x*y within degree 2
    assert GREVLEX.compare((2, 0), (1, 1)) == 1


def test_compare_reflexive():
    assert GREVLEX.compare((1, 2), (1, 2)) == 0
    assert LEX.compare((1, 2), (1, 2)) == 0


def test_compare_xz_vs_y2_grevlex():
    # exponent oracle: difference (1,-2,1) has positive last nonzero entry,
    # so x*z is the smaller monomial
    xz, y2 = (1, 0, 1), (0, 2, 0)
    assert GREVLEX.compare(xz, y2) == -1
    assert GREVLEX.compare(y2, xz) == 1


def test_compare_mismatched_lengths():
    with pytest.raises(ValueError):
        GREVLEX.compare((1, 0), (1, 0, 0))


def test_leading_term_examples():
    f = X * X + X * Y
    assert f.leading_monomial(GREVLEX) == (2, 0)
    g = Y.scale(3)
    assert g.leading_term(GREVLEX) == (3, (0, 1))
    h = X * Y + Y * Y + X * X
    assert h.leading_monomial(LEX) == (2, 0)


def test_leading_term_zero_raises():
    with pytest.raises(ValueError):
        R2.zero().leading_monomial(GREVLEX)


def test_arith_examples():
    p5 = PolyRing(2, 5, ("x", "y"))
    x, y = p5.variables()
    assert (x + y) + (-x + y) == y.scale(2)
    assert x.scale(3).monic(GREVLEX) == x  # 3 * 2 = 6 = 1 mod 5
    assert (x + y) * (x - y) == x * x - y * y


def test_monic_zero_raises():
    with pytest.raises(ValueError):
        R2.zero().monic(GREVLEX)


def test_linear_change_examples():
    f = R2.variable(0)
    ident = [[1, 0], [0, 1]]
    assert apply_linear_change(f, ident) == f
    swap = [[0, 1], [1, 0]]
    assert apply_linear_change(f, swap) == R2.variable(1)
    # x1 -> x1 + x2, x2 -> x2 sends x1*x2 to x1*x2 + x2^2
    M = [[1, 0], [1, 1]]
    f = X * Y
    assert apply_linear_change(f, M) == X * Y + Y * Y


def test_linear_change_singular():
    with pytest.raises(ValueError):
        apply_linear_change(X, [[1, 1], [1, 1]])


def test_order_by_name():
    assert order_by_name("lex") is LEX
    with pytest.raises(ValueError):
        order_by_name("deglex")


def test_format_poly_balanced_coeffs():
    f = X.scale(-1) * X
    assert format_poly(f) == "-x^2"
    assert format_poly(R2.zero()) == "0"


exps2 = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=200)
@given(exps2, exps2, exps2)
def test_order_transitivity(a, b, c):
    for order in (GREVLEX, LEX):
        if order.compare(a, b) < 0 and order.compare(b, c) < 0:
            assert order.compare(a, c) < 0


def _random_poly(rng, ring, degree, homogeneous=True):
    import itertools

    terms = {}
    for e in itertools.product(range(degree + 1), repeat=ring.nvars):
        if homogeneous and sum(e) != degree:
            continue
        if sum(e) <= degree and rng.randrange(3) == 0:
            terms[e] = rng.randrange(1, ring.char)
    return Poly(ring, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
def test_multiplication_respects_grading(seed, d1, d2):
    import random

    rng = random.Random(seed)
    f = _random_poly(rng, R2, d1)
    g = _random_poly(rng, R2, d2)
    if f.is_zero or g.is_zero:
        return
    prod = f * g
    assert prod.is_homogeneous()
    assert prod.degree() == d1 + d2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_linear_change_roundtrip(seed):
    import random

    rng = random.Random(seed)
    while True:
        M = [[rng.randrange(32003) for _ in range(3)] for _ in range(3)]
        Minv = mat_inv_mod(M, 32003)
        if Minv is not None:
            break
    f = _random_poly(rng, R3, rng.randint(1, 3))
    assert apply_linear_change(apply_linear_change(f, M), Minv) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_leading_term_multiplicative(seed):
    import random

    rng = random.Random(seed)
    f = _random_poly(rng, R3, rng.randint(1, 3), homogeneous=False)
    g = _random_poly(rng, R3, rng.randint(1, 3), homogeneous=False)
    if f.is_zero or g.is_zero:
        return
    for order in (GREVLEX, LEX):
        cf, mf = f.leading_term(order)
        cg, mg = g.leading_term(order)
        cp, mp = (f * g).leading_term(order)
        assert mp == tuple(a + b for a, b in zip(mf, mg))
        assert cp == (cf * cg) % 32003


# ---------------------------------------------------------------------------
# the packed monomial encoding
# ---------------------------------------------------------------------------

@st.composite
def _exponent_pairs(draw, top: int):
    """Two exponent vectors of one length in 1..12, entries up to ``top``;
    the second is often a multiple of the first, so that divisibility holds
    in about half the cases."""
    n = draw(st.integers(1, 12))
    vec = st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)
    a = draw(vec)
    if draw(st.booleans()):
        b = tuple(min(x + y, top) for x, y in zip(a, draw(vec)))
    else:
        b = draw(vec)
    return a, b


def _check_packed_helpers(pk: Packing, a, b) -> None:
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    assert pk.deg(pa) == exp_deg(a)
    assert pk.divides(pa, pb) == exp_divides(a, b)
    assert pk.divides(pb, pa) == exp_divides(b, a)
    assert pk.lcm(pa, pb) == pk.pack(exp_lcm(a, b))
    # additive: the product packs to the sum, within the growth bound
    assert not (pa + pb) & pk.overflow
    assert pk.unpack(pa + pb) == exp_mul(a, b) and pk.deg(pa + pb) == exp_deg(a) + exp_deg(b)


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs((1 << 13) - 1))
@example(((8191,) * 12, (8190,) * 11 + (8191,)))  # a degree near 98,000 needs fields wider than 16 bits
def test_packed_helpers_match_tuple_helpers(case):
    # the packing of Groebner work: exponents below 2^13
    a, b = case
    _check_packed_helpers(Packing(len(a), 13), a, b)


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs((1 << 40) - 1))
@example((((1 << 40) - 1,) * 12, (1 << 39,) * 12))
def test_packed_helpers_match_tuple_helpers_with_large_exponents(case):
    # the monomial layer takes its field width from the largest exponent
    a, b = case
    _check_packed_helpers(Packing.for_exponents(len(a), [a, b]), a, b)


def test_packing_refuses_exponents_beyond_its_bits():
    pk = Packing(3, 13)
    assert pk.unpack(pk.pack((0, 8191, 0))) == (0, 8191, 0)
    with pytest.raises(ValueError, match=r"2\^13"):
        pk.pack((0, 8192, 0))
    assert Packing.for_exponents(3, [(20000, 1, 0), (0, 3, 40000)]).bits == 16
