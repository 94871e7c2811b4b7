import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettibounds import groebner
from bettibounds.groebner import (
    _ELIM_GREVLEX,
    _PACK_BITS,
    Ideal,
    _buchberger,
    _elim_order,
    _lift,
    _packed_key_fn,
    buchberger_iteration,
    contains_poly,
    divide,
    form_regularity_with_image,
    groebner_basis,
    homogeneous_component_dim,
    ideal_quotient,
    ideal_quotient_ideal,
    ideal_intersection,
    ideals_equal,
    initial_exponents,
    irrelevant_ideal,
    normal_form,
    quotient_hilbert_function,
    reduced_gb,
    s_polynomial,
    saturation,
    substitute_linear_form,
    truncated_initial_generators,
)
from bettibounds.polyring import (
    GREVLEX,
    LEX,
    Packing,
    Poly,
    PolyRing,
    apply_linear_change,
    exp_mul,
    format_poly,
    mat_inv_mod,
)
from bettibounds.verifier import InstanceSpec, generate_instance

R2 = PolyRing(2, 32003, ("x", "y"))
R3 = PolyRing(3, 32003, ("x", "y", "z"))
X, Y = R2.variables()


def test_ideal_validation():
    with pytest.raises(ValueError):
        Ideal(R2, [X + X * X])  # inhomogeneous
    I = Ideal(R2, [X.scale(7), R2.zero()])
    assert I.gens == (X,)  # monic, zero dropped


def test_s_polynomial_examples():
    f, g = X * X, X * Y
    assert s_polynomial(f, g, GREVLEX).is_zero
    f = X * X + Y * Y
    s = s_polynomial(f, X * Y, GREVLEX)
    assert s == Y * Y * Y
    assert s_polynomial(f, f, GREVLEX).is_zero
    with pytest.raises(ValueError):
        s_polynomial(R2.zero(), f, GREVLEX)
    with pytest.raises(ValueError):
        s_polynomial(f.scale(2), f, GREVLEX)  # not monic


def test_divide_examples():
    qs, r = divide(X * X * Y, [X * X], GREVLEX)
    assert qs[0] == Y and r.is_zero
    qs, r = divide(X * X + Y * Y, [X], GREVLEX)
    assert r == Y * Y
    f = X * Y * Y + Y * Y * Y
    qs, r = divide(f, [X * Y + Y * Y], GREVLEX)
    assert qs[0] == Y and r.is_zero


def test_divide_standard_expression_postconditions():
    rng = random.Random(11)
    for _ in range(25):
        fterms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            fterms[e] = rng.randrange(1, 32003)
        from bettibounds.polyring import Poly

        f = Poly(R3, fterms)
        divisors = [
            (R3.variable(0) * R3.variable(0) + R3.variable(1) * R3.variable(2)).monic(GREVLEX),
            (R3.variable(1) * R3.variable(1)).monic(GREVLEX),
        ]
        qs, r = divide(f, divisors, GREVLEX)
        # reconstruction
        total = r
        for q, g in zip(qs, divisors):
            total = total + q * g
        assert total == f
        # leading bounds and remainder support
        if not f.is_zero:
            fk = GREVLEX.key(f.leading_monomial(GREVLEX))
            for q, g in zip(qs, divisors):
                if not q.is_zero:
                    assert GREVLEX.key((q * g).leading_monomial(GREVLEX)) <= fk
        lms = [g.leading_monomial(GREVLEX) for g in divisors]
        for m in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)


def test_buchberger_iteration_examples():
    out = buchberger_iteration([X * X, Y * Y], GREVLEX)
    assert out == [X * X, Y * Y]
    out = buchberger_iteration([X * X + Y * Y, X * Y], GREVLEX)
    assert set(out) == {X * X + Y * Y, X * Y, Y * Y * Y}


def test_buchberger_iteration_size_bound():
    rng = random.Random(5)
    from bettibounds.polyring import Poly

    for _ in range(10):
        mu = rng.randint(1, 5)
        polys = []
        for _ in range(mu):
            d = rng.randint(1, 3)
            terms = {}
            for e in _monos(2, d):
                c = rng.randrange(32003)
                if c:
                    terms[e] = c
            if terms:
                polys.append(Poly(R2, terms).monic(GREVLEX))
        out = buchberger_iteration(polys, GREVLEX)
        n = len(polys)
        assert len(out) <= n * (n - 1) // 2 + n <= max(n * n, 1)


def _monos(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _monos(n - 1, d - first):
            yield (first,) + rest


def test_truncated_initial_generators_examples():
    I = Ideal(R2, [X * X, Y * Y])
    tr = truncated_initial_generators(I, GREVLEX, 3)
    assert set(tr.leading_monomials()) == {(2, 0), (0, 2)}
    assert len(tr.elements) <= 2 ** 4

    I = Ideal(R2, [X * X + Y * Y, X * Y])
    tr = truncated_initial_generators(I, GREVLEX, 3)
    assert set(tr.leading_monomials()) == {(2, 0), (1, 1), (0, 3)}

    # delta = 1 does zero iterations and keeps only the linear generators
    I = Ideal(R2, [X, Y * Y])
    tr = truncated_initial_generators(I, GREVLEX, 1)
    assert tr.elements == (X,)
    with pytest.raises(ValueError):
        truncated_initial_generators(I, GREVLEX, 0)


def test_truncation_matches_full_gb_through_delta():
    from bettibounds import monomials as M
    from bettibounds.verifier import InstanceSpec, generate_instance

    specs = [InstanceSpec("random-homogeneous", 3, 3, 3, seed=900 + k) for k in range(6)]
    # degrees 1, 1, 2, 2, 2: the two dense linear forms share their leading monomial
    specs.append(InstanceSpec("random-homogeneous", 5, 5, 3, seed=1))
    for spec in specs:
        I, _ = generate_instance(spec)
        full = initial_exponents(I, GREVLEX)
        for delta in (1, 2, 3):
            tl = truncated_initial_generators(I, GREVLEX, delta).leading_monomials()
            for d in range(delta + 1):
                for m in _monos(I.ring.nvars, d):
                    assert M.member(m, tl) == M.member(m, full)


def test_groebner_basis_examples():
    I = Ideal(R2, [X * X, Y * Y])
    gb = groebner_basis(I)
    assert set(gb.elements) == {X * X, Y * Y}
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    gb = groebner_basis(I)
    assert set(gb.elements) == {X * X + Y * Y, X * Y, Y * Y * Y}
    # criterion off gives the same reduced basis
    gb2 = groebner_basis(I, use_criterion=False)
    assert gb.elements == gb2.elements


@st.composite
def _homogeneous_polys(draw, ring):
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 3))
        monos = list(_monos(ring.nvars, d))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(1, ring.char - 1), min_size=len(support), max_size=len(support)))
        polys.append(Poly(ring, dict(zip(support, coeffs))))
    return polys


R3_SMALL = PolyRing(3, 101, ("x", "y", "z"))
R4_SMALL = PolyRing(4, 101, ("t", "x", "y", "z"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gebauer_moeller_update_keeps_reduced_basis(data):
    # the update drops pairs only; the reduced basis equals the one from every S-pair
    polys = data.draw(_homogeneous_polys(R3_SMALL))
    for order in (GREVLEX, LEX):
        assert _buchberger(polys, order, True) == _buchberger(polys, order, False)
    # ideal_intersection's input and order: t*I + (1 - t)*J in elim+grevlex
    split = data.draw(st.integers(0, len(polys)))
    one_minus_t = Poly(R4_SMALL, {(0, 0, 0, 0): 1, (1, 0, 0, 0): -1})
    lifted = [_lift(f, R4_SMALL, 1) for f in polys[:split]]
    lifted += [one_minus_t * _lift(g, R4_SMALL, 0) for g in polys[split:]]
    elim = _elim_order(GREVLEX)
    assert _buchberger(lifted, elim, True) == _buchberger(lifted, elim, False)


# sha256 of each reduced basis printed one element a line, taken before the
# Buchberger loop moved onto packed monomials
_BASIS_DIGESTS = {
    "random-homogeneous/N6g5D3s2024006197": "888741e6a2c7471c22f0ec77bb30912b84d4dd7a8ab13065e078bbb503d18a5b",
    "complete-intersection/N5g5D4s2024006550": "f53b5927ed3465108c1e7566e21288cccfb59c2d0d6804490ce08bee4801f729",
    "complete-intersection/N6g6D3s2024006449": "fc5912a777a8a3a2988494b7009bd5df3cef57f033326a365f0e830cc6507cfe",
}


@pytest.mark.parametrize("spec,reductions,size", [
    (InstanceSpec("random-homogeneous", 6, 5, 3, seed=2024006197), 268, 76),
    (InstanceSpec("complete-intersection", 5, 5, 4, seed=2024006550), 126, 47),
    (InstanceSpec("complete-intersection", 6, 6, 3, seed=2024006449), 75, 29),
], ids=lambda v: v.label() if isinstance(v, InstanceSpec) else None)
def test_groebner_basis_s_polynomial_count_is_pinned(spec, reductions, size, monkeypatch):
    # instances of the seed-2024 corpus; the product criterion alone forms
    # 2,652, 1,076 and 391 S-polynomials for the same bases.  The loop forms
    # its S-pairs on packed terms through ``_s_pair``, which is counted.
    I, _ = generate_instance(spec)
    calls = []
    orig = groebner._s_pair

    def counting(red, i, j, lcm):
        calls.append(1)
        return orig(red, i, j, lcm)

    monkeypatch.setattr(groebner, "_s_pair", counting)
    gb = groebner_basis(I)
    assert len(gb) == size
    assert len(calls) == reductions
    text = "\n".join(format_poly(g) for g in gb)
    assert hashlib.sha256(text.encode()).hexdigest() == _BASIS_DIGESTS[spec.label()]


def test_gebauer_moeller_drops_a_pending_pair(monkeypatch):
    # xy - z^2 arrives third: its leading monomial xy divides the pending
    # lcm x^2y^2 of the first two, and lcm(x^2y, xy) = x^2y and
    # lcm(xy^2, xy) = xy^2 both differ from it, so that pair is dropped
    x, y, z = R3.variables()
    polys = [x * x * y - z * z * z, x * y * y - z * z * z, x * y - z * z]
    calls = []
    orig = groebner._s_pair

    def counting(red, i, j, lcm):
        calls.append((i, j))
        return orig(red, i, j, lcm)

    monkeypatch.setattr(groebner, "_s_pair", counting)
    gb = _buchberger(polys, GREVLEX, True)
    assert (0, 1) not in calls
    assert len(calls) == 4
    assert gb == _buchberger(polys, GREVLEX, False)


def test_groebner_fixpoint_oracle():
    # iterating the literal procedure stabilizes on the same initial ideal
    for gens in ([X * X + Y * Y, X * Y], [X * X * X + Y * Y * Y, X * Y], [X + Y]):
        I = Ideal(R2, gens)
        cur = [g for g in I.gens]
        for _ in range(12):
            nxt = buchberger_iteration(cur, GREVLEX)
            if set(nxt) == set(cur):
                break
            cur = nxt
        else:
            pytest.fail("no fixpoint reached")
        from bettibounds import monomials as M

        lms_fix = M.minimalize([g.leading_monomial(GREVLEX) for g in cur])
        assert lms_fix == initial_exponents(I, GREVLEX)


def test_hilbert_function_preservation():
    # dim (S/I)_d agrees with the staircase of in(I) for d <= 8
    rng = random.Random(17)
    from bettibounds.verifier import InstanceSpec, generate_instance
    from math import comb

    for k in range(4):
        spec = InstanceSpec("random-homogeneous", 3, 2, 3, seed=300 + k)
        I, _ = generate_instance(spec)
        for d in range(9):
            lhs = comb(d + 2, 2) - homogeneous_component_dim(I, d)
            assert lhs == quotient_hilbert_function(I, d)


def test_ideal_quotient_examples():
    I = Ideal(R2, [X * X])
    assert ideals_equal(ideal_quotient(I, X), Ideal(R2, [X]))
    I = Ideal(R2, [X * X, X * Y])
    assert ideals_equal(ideal_quotient(I, X), Ideal(R2, [X, Y]))
    assert ideals_equal(ideal_quotient(I, R2.one()), I)


def test_ideal_quotient_general_poly():
    # non-monomial data goes through the elimination route
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    Q = ideal_quotient(I, X + Y)
    for g in Q.gens:
        assert contains_poly(I, g * (X + Y))
    # colon can only grow the ideal
    for g in I.gens:
        assert contains_poly(Q, g)


def test_quotient_by_ideal_and_socle_input():
    I = Ideal(R2, [X * X, X * Y, Y * Y])
    m = irrelevant_ideal(R2)
    Q = ideal_quotient_ideal(I, m)
    assert ideals_equal(Q, Ideal(R2, [X, Y]))


def test_saturation_examples():
    I = Ideal(R2, [X * X, X * Y])
    m = irrelevant_ideal(R2)
    assert ideals_equal(saturation(I, m), Ideal(R2, [X]))
    one = Ideal(R2, [R2.one()])
    assert ideals_equal(saturation(I, one), I)
    J = Ideal(R2, [X])
    assert ideals_equal(saturation(J, m), J)


def test_saturation_general_route_agrees_with_monomial_fast_path():
    I = Ideal(R2, [X * X, X * Y])
    m = irrelevant_ideal(R2)
    # force the general loop by using generators 2x, 3y (non-unit leading data
    # is normalized away, so perturb with an extra generator instead)
    J = Ideal(R2, [X + Y, X - Y])  # equals m after reduction
    assert ideals_equal(saturation(I, J), saturation(I, m))


def test_intersection():
    A = Ideal(R2, [X])
    B = Ideal(R2, [Y])
    assert ideals_equal(ideal_intersection(A, B), Ideal(R2, [X * Y]))


def test_initial_of_colon_is_colon_of_initial_generic():
    # in_grevlex(I : x_N) = in_grevlex(I) : x_N after generic coordinates
    rng = random.Random(23)
    from bettibounds import monomials as M

    I0 = Ideal(R3, [R3.variable(0) ** 2, R3.variable(0) * R3.variable(1)])
    for trial in range(3):
        while True:
            Mx = [[rng.randrange(32003) for _ in range(3)] for _ in range(3)]
            if mat_inv_mod(Mx, 32003) is not None:
                break
        I = Ideal(R3, [apply_linear_change(g, Mx) for g in I0.gens])
        xN = R3.variable(2)
        lhs = initial_exponents(ideal_quotient(I, xN))
        rhs = M.colon_by_monomial(initial_exponents(I), (0, 0, 1))
        assert set(lhs) == set(rhs)


def test_substitute_and_regularity():
    # y is regular on S/(x^2); x is not
    I = Ideal(R2, [X * X])
    assert form_regularity_with_image(I, Y)[:2] == (True, True)
    regular, filt, _ = form_regularity_with_image(I, X)
    assert not regular
    I1 = Ideal(PolyRing(1, 32003), [PolyRing(1, 32003).variable(0) ** 2])
    assert form_regularity_with_image(I1, PolyRing(1, 32003).variable(0))[1] is True

    J = substitute_linear_form(Ideal(R2, [X * X + Y * Y]), Y)
    assert J.ring.nvars == 1
    assert J.gens[0].degree() == 2


def _evaluate(f: Poly, point, p: int) -> int:
    total = 0
    for e, c in f.terms.items():
        for a, x in zip(point, e):
            c = c * pow(a, x, p) % p
        total += c
    return total % p


def test_substitution_agrees_with_evaluation():
    # image(g) at a point of F_p^(N-1) is g at the same point with x_k set
    # to the form's solution; images are monic, so up to one scalar per g
    from bettibounds.verifier import corpus_specs

    rng = random.Random(14)
    forms = 0
    for spec in corpus_specs(30, 2024)[::3]:
        I, _ = generate_instance(spec)
        ring, n, p = I.ring, I.ring.nvars, I.ring.char
        for _ in range(3):
            coeffs = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
            if not any(coeffs):
                continue
            k = max(i for i, c in enumerate(coeffs) if c)
            ell = ring.linear_form(coeffs)
            images = []
            for g in I.gens:
                image = substitute_linear_form(Ideal(ring, [g]), ell).gens
                images.extend(image)
                scale = None
                for _ in range(6):
                    rest = [rng.randrange(p) for _ in range(n - 1)]
                    solved = -pow(coeffs[k], p - 2, p) * sum(c * a for c, a in zip(coeffs[:k] + coeffs[k + 1:], rest)) % p
                    lhs = _evaluate(g, rest[:k] + [solved] + rest[k:], p)
                    rhs = _evaluate(image[0], rest, p) if image else 0
                    if scale is None and rhs:
                        scale = lhs * pow(rhs, p - 2, p) % p
                    assert lhs == (scale or 0) * rhs % p
            assert substitute_linear_form(I, ell).gens == tuple(images)
            forms += 1
    assert forms >= 25


def test_reduced_gb_is_cached_and_canonical():
    I = Ideal(R2, [X * Y, X * X + Y * Y])
    g1 = reduced_gb(I)
    g2 = reduced_gb(I)
    assert g1 is g2
    J = Ideal(R2, [X * X + Y * Y, X * Y, Y * Y * Y])
    assert ideals_equal(I, J)


def test_normal_form_membership():
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    gb = reduced_gb(I)
    assert normal_form(Y * Y * Y, list(gb.elements), GREVLEX).is_zero
    assert not normal_form(X, list(gb.elements), GREVLEX).is_zero


def test_lex_order_gb():
    I = Ideal(R2, [X * Y + Y * Y + X * X])
    gb = groebner_basis(I, LEX)
    assert gb.elements[0].leading_monomial(LEX) == (2, 0)


# ---------------------------------------------------------------------------
# inputs the packed reducer refuses
# ---------------------------------------------------------------------------

def test_exponent_beyond_packed_range_is_refused():
    (x,) = PolyRing(1, 32003, ("x",)).variables()
    I = Ideal(x.ring, [x ** 8191])
    assert len(groebner_basis(I)) == 1
    with pytest.raises(ValueError, match=r"2\^13"):
        groebner_basis(Ideal(x.ring, [x ** 8192]))


def test_order_without_packed_key_is_refused():
    from bettibounds.polyring import MonomialOrder

    deglex = MonomialOrder("deglex", lambda e: (sum(e),) + tuple(e))
    x, y, z = R3.variables()
    with pytest.raises(ValueError, match="no packed key"):
        groebner_basis(Ideal(R3, [x * y - z * z, y * y]), deglex)


def test_order_named_like_a_packed_one_is_refused():
    from bettibounds.polyring import MonomialOrder

    # grevlex's name with lex's key: reducing with grevlex's packed key gave
    # -y^3 for the normal form of the divisor itself
    impostor = MonomialOrder("grevlex", LEX.key)
    f = X * X + Y * Y * Y
    assert normal_form(f, [f], LEX).is_zero
    with pytest.raises(ValueError, match="no packed key"):
        normal_form(f, [f], impostor)


def test_reduced_gb_cache_is_keyed_by_the_order_object():
    from bettibounds.polyring import MonomialOrder

    x, y, z = R3.variables()
    I = Ideal(R3, [x * x - y * z, x * y - z * z])
    grevlex_gb = reduced_gb(I, GREVLEX)
    lex_gb = reduced_gb(I, LEX)
    assert lex_gb.elements != grevlex_gb.elements
    assert reduced_gb(I, GREVLEX) is grevlex_gb and reduced_gb(I, LEX) is lex_gb
    # an order that only shares grevlex's name gets no cached grevlex basis
    with pytest.raises(ValueError, match="no packed key"):
        reduced_gb(I, MonomialOrder("grevlex", LEX.key))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_order_keys_match_tuple_keys(data):
    n = data.draw(st.integers(1, 12))
    entry = st.one_of(st.integers(0, 3), st.integers(0, (1 << _PACK_BITS) - 1))
    vec = st.lists(entry, min_size=n, max_size=n).map(tuple)
    a, c, d = data.draw(vec), data.draw(vec), data.draw(vec)
    # a permutation of a has its degree, so the tie-breaks come up
    b = tuple(data.draw(st.permutations(a))) if data.draw(st.booleans()) else data.draw(vec)
    pk = Packing(n, _PACK_BITS)
    P = pk.pack
    # input monomials, and products of two as the reducer forms them
    cases = [(a, P(a), b, P(b)),
             (exp_mul(a, c), P(a) + P(c), exp_mul(b, d), P(b) + P(d)),
             (a, P(a), exp_mul(a, c), P(a) + P(c))]
    for order in (GREVLEX, LEX, _ELIM_GREVLEX):
        key = _packed_key_fn(order, pk)
        for u, pu, v, pv in cases:
            ku, kv = key(pu), key(pv)
            assert (ku > kv) - (ku < kv) == order.compare(u, v)
