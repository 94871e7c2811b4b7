import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettibounds.groebner import Ideal, hilbert_numerator_of, reduced_gb
from bettibounds.polyring import GREVLEX, PolyRing
from bettibounds.resolution import (
    BettiTable,
    IncompleteTableError,
    derived_invariants,
    format_betti,
    koszul_betti,
    lift_section_table,
    minimize_taylor,
    monomial_betti,
    taylor_complex,
    truncate_ideal,
)
from bettibounds.verifier import InstanceSpec, generate_instance

R2 = PolyRing(2, 32003, ("x", "y"))
R3 = PolyRing(3, 32003, ("x", "y", "z"))
X, Y = R2.variables()


# ---------------------------------------------------------------------------
# Taylor complex structure
# ---------------------------------------------------------------------------

def test_taylor_ranks_and_differential_xy_yz():
    T = taylor_complex([(1, 1, 0), (0, 1, 1)], nvars=3)
    assert [T.rank(i) for i in range(3)] == [1, 2, 1]
    # d_2(e_{12}) = x * e_2 - z * e_1 with u_12 = xyz (signs: +1 then -1 along
    # ascending positions)
    c1 = T.differential_entry(2, 0b10, 0b11)  # drop generator 1 -> row {2}
    c2 = T.differential_entry(2, 0b01, 0b11)  # drop generator 2 -> row {1}
    assert c1 == (1, (1, 0, 0))  # +x
    assert c2 == (32002, (0, 0, 1))  # -z


def test_taylor_koszul_two_variables():
    T = taylor_complex([(1, 0), (0, 1)], nvars=2)
    assert T.differential_entry(2, 0b10, 0b11) == (1, (1, 0))  # +x * e_2
    assert T.differential_entry(2, 0b01, 0b11) == (32002, (0, 1))  # -y * e_1


def test_taylor_rank_vector_binomials():
    rng = random.Random(2)
    for _ in range(5):
        r = rng.randint(1, 5)
        gens = set()
        while len(gens) < r:
            gens.add(tuple(rng.randint(0, 3) for _ in range(3)))
        gens = [g for g in gens if sum(g) > 0]
        if not gens:
            continue
        T = taylor_complex(gens, nvars=3)
        for i in range(len(gens) + 1):
            assert T.rank(i) == comb(len(gens), i)


def test_taylor_gen_limit():
    with pytest.raises(ValueError):
        taylor_complex([(i, 1) for i in range(20)], nvars=2)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_minimize_taylor_examples():
    B = minimize_taylor(taylor_complex([X * X, X * Y, Y * Y]))
    assert B.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    pd, reg, ts = derived_invariants(B)
    assert pd == 2 and reg == 1

    B = minimize_taylor(taylor_complex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], nvars=3))
    assert B.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}

    # non-minimal generators cancel: x^3 is inside (x^2)
    B = minimize_taylor(taylor_complex([(2,), (3,)], nvars=1))
    assert B.entries == {(0, 0): 1, (1, 2): 1}


def test_minimize_agrees_with_strand_koszul():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 4)
        r = rng.randint(1, 5)
        gens = set()
        for _ in range(r):
            e = [0] * n
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(n)] += 1
            gens.add(tuple(e))
        gens = sorted(g for g in gens if sum(g) > 0)
        if not gens:
            continue
        A = minimize_taylor(taylor_complex(gens, nvars=n))
        B = monomial_betti(gens, n, 32003)
        assert A.entries == B.entries, (gens, A.entries, B.entries)


@st.composite
def _monomial_gens(draw):
    n = draw(st.integers(3, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=6))
    return n, gens


@settings(max_examples=80, deadline=None)
@given(_monomial_gens())
def test_strands_match_minimized_taylor_with_higher_exponents(case):
    # exponents up to 4 give tight coordinates with a_t >= 2, which
    # squarefree inputs such as edge ideals never reach
    n, gens = case
    A = minimize_taylor(taylor_complex(gens, nvars=n))
    B = monomial_betti(gens, n, 32003)
    assert A.entries == B.entries, (gens, A.entries, B.entries)


def _edge_graph(k):
    # graph k of the edge-ideal generator: 9-11 vertices, 14-22 edges
    g = random.Random(9000 + k)
    n = g.randint(9, 11)
    m = g.randint(14, 22)
    return n, sorted(g.sample(list(combinations(range(n), 2)), m))


@pytest.mark.parametrize("k,table", [
    (1, {(1, 2): 18, (2, 3): 51, (2, 4): 8, (3, 4): 60, (3, 5): 35, (4, 5): 34, (4, 6): 59,
         (5, 6): 9, (5, 7): 48, (6, 7): 1, (6, 8): 19, (7, 9): 3}),
    (6, {(1, 2): 20, (2, 3): 60, (2, 4): 8, (3, 4): 74, (3, 5): 40, (4, 5): 44, (4, 6): 74,
         (5, 6): 14, (5, 7): 62, (6, 7): 2, (6, 8): 25, (7, 9): 4}),
    (10, {(1, 2): 17, (2, 3): 47, (2, 4): 4, (3, 4): 53, (3, 5): 19, (4, 5): 28, (4, 6): 32,
          (5, 6): 7, (5, 7): 24, (6, 7): 1, (6, 8): 8, (7, 9): 1}),
    (21, {(1, 2): 17, (2, 3): 46, (2, 4): 6, (3, 4): 49, (3, 5): 27, (4, 5): 21, (4, 6): 47,
          (5, 6): 2, (5, 7): 38, (6, 8): 14, (7, 9): 2}),
    (22, {(1, 2): 19, (2, 3): 58, (2, 4): 3, (3, 4): 76, (3, 5): 16, (4, 5): 50, (4, 6): 31,
          (5, 6): 16, (5, 7): 28, (6, 7): 2, (6, 8): 12, (7, 9): 2}),
])
def test_edge_ideal_strand_tables_are_pinned(k, table):
    n, edges = _edge_graph(k)
    assert n == 9
    gens = [tuple(1 if t in e else 0 for t in range(n)) for e in edges]
    assert monomial_betti(gens, n, 32003).entries == {(0, 0): 1, **table}


# ---------------------------------------------------------------------------
# Koszul homology
# ---------------------------------------------------------------------------

def test_koszul_regular_sequence():
    B = koszul_betti(Ideal(R2, [X * X, Y * Y]))
    assert B.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_koszul_agrees_with_taylor_on_monomials():
    I = Ideal(R2, [X * X, X * Y, Y * Y])
    assert koszul_betti(I).entries == minimize_taylor(taylor_complex(list(I.gens))).entries


def test_koszul_semicontinuity_strict_example():
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    B = koszul_betti(I)
    assert B.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    Bin = monomial_betti(((2, 0), (1, 1), (0, 3)), 2, 32003)
    # entrywise bound, strict somewhere
    for key, v in B.entries.items():
        assert v <= Bin.beta(*key)
    assert sum(Bin.entries.values()) > sum(B.entries.values())


def test_koszul_no_reduction_matches():
    for seed in range(3):
        spec = InstanceSpec("random-homogeneous", 3, 3, 3, seed=1000 + seed)
        I, _ = generate_instance(spec)
        a = koszul_betti(I, seed=seed)
        b = koszul_betti(I, reduce_regular=False, seed=seed)
        assert a.entries == b.entries


def test_koszul_partial_table():
    I = Ideal(R2, [X * X, Y * Y])
    B = koszul_betti(I, max_i=1)
    assert B.beta(1, 2) == 2
    with pytest.raises(IncompleteTableError):
        B.pd()
    with pytest.raises(IncompleteTableError):
        B.t(2)


def test_koszul_caps_too_small_detected():
    # undersized caps hide the top corner of the table; the Hilbert-series
    # consistency check catches it (monomial inputs bypass caps entirely)
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    with pytest.raises(IncompleteTableError):
        koszul_betti(I, degree_caps={1: 2, 2: 2})


def test_koszul_zero_and_unit():
    B = koszul_betti(Ideal(R2, []))
    assert B.entries == {(0, 0): 1}
    assert derived_invariants(B) == (0, 0, [0])
    with pytest.raises(ValueError):
        koszul_betti(Ideal(R2, [R2.one()]))


def test_koszul_factor_identity_for_adjoined_form():
    # beta^S(S/(I + l)) equals the small-ring table lifted across the
    # absorbed regular form
    from bettibounds.groebner import form_regularity_with_image, substitute_linear_form

    rng = random.Random(5)
    for seed in range(3):
        spec = InstanceSpec("random-homogeneous", 3, 2, 2, seed=1300 + seed)
        I, _ = generate_instance(spec)
        coeffs = [rng.randrange(1, 32003) for _ in range(3)]
        ell = I.ring.linear_form(coeffs)
        if not form_regularity_with_image(I, ell)[0]:
            continue
        J = Ideal(I.ring, list(I.gens) + [ell])
        direct = koszul_betti(J, reduce_regular=False)
        small = koszul_betti(substitute_linear_form(I, ell))
        assert lift_section_table(small, 1, 3).entries == direct.entries


# ---------------------------------------------------------------------------
# derived invariants and truncation
# ---------------------------------------------------------------------------

def test_derived_invariants_examples():
    B = koszul_betti(Ideal(R2, [X * X, Y * Y]))
    pd, reg, ts = derived_invariants(B)
    assert (pd, reg) == (2, 2)
    assert ts == [0, 2, 4]
    assert B.ideal_reg() == reg + 1  # beta_{i,j}(I) = beta_{i+1,j}(S/I)

    B = koszul_betti(Ideal(R2, [X]))
    assert derived_invariants(B) == (1, 0, [0, 1])


def test_truncate_ideal_examples():
    from bettibounds.groebner import ideals_equal

    J = Ideal(R2, [X * X, Y ** 5])
    assert ideals_equal(truncate_ideal(J, 3), Ideal(R2, [X * X]))
    assert ideals_equal(truncate_ideal(J, 5), J)
    J = Ideal(R2, [X ** 3, X * X * Y, Y ** 4])
    assert ideals_equal(truncate_ideal(J, 3), Ideal(R2, [X ** 3, X * X * Y]))
    # general (non-monomial) truncation through the capped iteration
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    assert ideals_equal(truncate_ideal(I, 2), I)
    K = Ideal(R2, [X, Y ** 3])
    assert ideals_equal(truncate_ideal(K, 1), Ideal(R2, [X]))


def test_euler_characteristic_matches_numerator():
    for seed in range(4):
        spec = InstanceSpec("random-homogeneous", 3, 3, 3, seed=1400 + seed)
        I, _ = generate_instance(spec)
        B = koszul_betti(I)
        K = hilbert_numerator_of(I)
        js = {j for _, j in B.entries} | set(K)
        for j in js:
            assert sum((-1) ** i * v for (i, jj), v in B.entries.items() if jj == j) == K.get(j, 0)


def test_format_betti_smoke():
    B = koszul_betti(Ideal(R2, [X * X, Y * Y]))
    out = format_betti(B)
    assert "j-i" in out and "1" in out


def test_regular_reduce_draws_nothing_on_an_artinian_quotient(monkeypatch):
    from bettibounds import groebner
    from bettibounds.groebner import quotient_dimension

    x, y, z = R3.variables()
    I = Ideal(R3, [x * x + y * z, y * y + x * z, z * z + x * y])
    assert quotient_dimension(I) == 0
    calls = []
    real = groebner.substitute_linear_form
    monkeypatch.setattr(groebner, "substitute_linear_form", lambda *a: calls.append(1) or real(*a))
    table = koszul_betti(I, seed=3)
    assert calls == []
    assert table.entries == {(0, 0): 1, (1, 2): 3, (2, 4): 3, (3, 6): 1}
