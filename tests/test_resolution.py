import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bettibounds import linalg, monomials
from bettibounds import resolution
from bettibounds.groebner import Ideal, hilbert_numerator_of, reduced_gb, substitute_linear_form
from bettibounds.polyring import GREVLEX, Packing, Poly, PolyRing, apply_linear_change, exp_lcm, mat_inv_mod
from bettibounds.resolution import (
    BettiTable,
    IncompleteTableError,
    format_betti,
    koszul_betti,
    lift_section_table,
    _last_variable_cut,
    _regular_reduce,
    minimize_taylor,
    monomial_betti,
    taylor_complex,
)
from bettibounds.verifier import InstanceSpec, corpus_specs, generate_instance

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
    assert B.pd() == 2 and B.reg() == 1

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


def _tuple_lcm_closure(gens):
    # the join closure on exponent tuples, as computed before packing
    closure = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                j = exp_lcm(a, g)
                if j not in closure:
                    closure.add(j)
                    nxt.append(j)
        frontier = nxt
    return closure


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, (1 << 30) - 1)), min_size=n, max_size=n).map(tuple),
    min_size=1, max_size=6)))
def test_packed_lcm_closure_matches_tuple_closure(gens):
    gens = monomials.minimalize(gens)
    pk = Packing.for_exponents(len(gens[0]), gens)
    closure = monomials.lcm_closure([pk.pack(g) for g in gens], pk)
    assert {pk.unpack(m) for m in closure} == _tuple_lcm_closure(gens)
    assert all(pk.deg(m) == sum(pk.unpack(m)) for m in closure)


def test_lcm_closure_limit_raises():
    gens = [tuple(int(i == t) for i in range(6)) for t in range(6)]
    pk = Packing.for_exponents(6, gens)
    packed = [pk.pack(g) for g in gens]
    assert len(monomials.lcm_closure(packed, pk)) == 63
    with pytest.raises(RuntimeError, match="lcm closure too large"):
        monomials.lcm_closure(packed, pk, limit=62)


def test_large_exponent_strand_table_is_pinned():
    # fields 20 bits wide: a fixed 16-bit packing would overflow here
    gens = [(20000, 1, 0), (0, 3, 40000), (1, 0, 1)]
    B = monomial_betti(gens, 3, 32003)
    assert B.entries == {(0, 0): 1, (1, 2): 1, (1, 20001): 1, (1, 40003): 1, (2, 20002): 1, (2, 40004): 1}
    assert (B.pd(), B.reg()) == (2, 40002)
    assert koszul_betti(Ideal.monomial(R3, gens)) == B


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


def _edge_gens(n, edges):
    return [tuple(1 if t in e else 0 for t in range(n)) for e in edges]


def test_twelve_vertex_strand_tables_are_pinned():
    # strands with up to 12 coordinates, beyond the 9-vertex graphs above
    cycle = [(i, (i + 1) % 12) for i in range(12)]
    assert monomial_betti(_edge_gens(12, cycle), 12, 32003).entries == {
        (0, 0): 1, (1, 2): 12, (2, 3): 12, (2, 4): 42, (3, 5): 84, (3, 6): 40, (4, 6): 42,
        (4, 7): 120, (4, 8): 3, (5, 8): 120, (5, 9): 12, (6, 9): 40, (6, 10): 18, (7, 11): 12,
        (8, 12): 2,
    }
    g = random.Random(12024)
    edges = sorted(g.sample(list(combinations(range(12), 2)), 24))
    assert monomial_betti(_edge_gens(12, edges), 12, 32003).entries == {
        (0, 0): 1, (1, 2): 24, (2, 3): 76, (2, 4): 37, (3, 4): 107, (3, 5): 179, (3, 6): 4,
        (4, 5): 95, (4, 6): 347, (4, 7): 18, (5, 6): 63, (5, 7): 363, (5, 8): 32, (6, 7): 29,
        (6, 8): 229, (6, 9): 28, (7, 8): 8, (7, 9): 89, (7, 10): 12, (8, 9): 1, (8, 10): 20,
        (8, 11): 2, (9, 11): 2,
    }


def _full_strand_betti(gens, nvars, p):
    # every strand on all of its alive subsets L (x^(a - e_L) outside J), no
    # Morse matching: the dead subsets are the submasks of supp(a) minus the
    # tight set of each divisor g of x^a
    gens = monomials.minimalize(gens)
    entries = {(0, 0): 1}
    for a in _tuple_lcm_closure(gens):
        supp = [t for t in range(nvars) if a[t]]
        k = len(supp)
        dead = set()
        for g in gens:
            if all(g[t] <= a[t] for t in range(nvars)):
                free = sum(1 << s for s, t in enumerate(supp) if g[t] < a[t])
                dead.update(L for L in range(1 << k) if L & free == L)
        levels = [[L for L in range(1 << k) if L.bit_count() == i and L not in dead] for i in range(k + 1)]
        index = {L: r for level in levels for r, L in enumerate(level)}
        ranks = [0] * (k + 2)
        for i in range(1, k + 1):
            cols = []
            for L in levels[i]:
                elements = [s for s in range(k) if L >> s & 1]
                cols.append({index[L ^ 1 << s]: (-1) ** pos for pos, s in enumerate(elements)
                             if L ^ 1 << s in index})
            ranks[i] = linalg.rank_mod_p(cols, p)
        for i in range(1, k + 1):
            b = len(levels[i]) - ranks[i] - ranks[i + 1]
            if b:
                entries[(i, sum(a))] = entries.get((i, sum(a)), 0) + b
    return entries


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=10))))
def test_critical_cell_strands_match_the_full_alive_complex(case):
    # up to 8 support variables per strand, where the Taylor oracle is slow
    n, gens = case
    assert monomial_betti(gens, n, 32003).entries == _full_strand_betti(gens, n, 32003), gens


@pytest.mark.parametrize("n,gens", [
    # pure powers: every tight set is a singleton
    (4, [(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3)]),
    (8, [tuple(1 + s % 3 if t == s else 0 for t in range(8)) for s in range(8)]),
    # symmetric ideals: at the full lcm every variable is avoided equally often
    (3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    (4, [tuple(int(t in e) for t in range(4)) for e in combinations(range(4), 2)]),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]),
    (6, [tuple(int(t == s) for t in range(6)) for s in range(6)]),
])
def test_critical_cell_strands_on_singleton_tight_sets_and_ties(n, gens):
    assert monomial_betti(gens, n, 32003).entries == _full_strand_betti(gens, n, 32003)


# ---------------------------------------------------------------------------
# Koszul homology
# ---------------------------------------------------------------------------

# the ring sizes and generator degrees of the benchmark's dense ideals; their
# Koszul ranks go up to a 76 x 114 matrix
DENSE_SHAPES = ((5, (4, 3, 2, 2)), (6, (2, 2, 2, 2)), (4, (4, 4, 3, 2)), (5, (2, 2, 2, 2, 2, 2)))
DENSE_TABLES = (
    {(1, 2): 2, (1, 3): 1, (1, 4): 1, (2, 4): 1, (2, 5): 2, (2, 6): 2, (2, 7): 1, (3, 7): 1,
     (3, 8): 1, (3, 9): 2, (4, 11): 1},
    {(1, 2): 4, (2, 4): 6, (3, 6): 4, (4, 8): 1},
    {(1, 2): 1, (1, 3): 1, (1, 4): 2, (2, 5): 1, (2, 6): 2, (2, 7): 2, (2, 8): 1, (3, 9): 2,
     (3, 10): 1, (3, 11): 1, (4, 13): 1},
    {(1, 2): 6, (2, 4): 20, (3, 5): 16, (3, 6): 10, (4, 7): 16, (5, 8): 5},
)


def test_dense_koszul_tables_are_pinned():
    # every coefficient drawn from random.Random(7), monomials in descending
    # lex order, as the benchmark writes its dense ideals
    rng = random.Random(7)
    for (n, degrees), table in zip(DENSE_SHAPES, DENSE_TABLES):
        ring = PolyRing(n, 32003)
        gens = [Poly(ring, {m: rng.randrange(1, 32003) for m in reversed(list(monomials.of_degree(n, d)))})
                for d in degrees]
        assert koszul_betti(Ideal(ring, gens), seed=7).entries == {(0, 0): 1, **table}


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
        b = koszul_betti(I, max_cuts=0, seed=seed)
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
    # caps too small would hide the top corner of the table; the
    # Hilbert-series consistency check catches the missing entry
    I = Ideal(R2, [X * X + Y * Y, X * Y])
    B = koszul_betti(I)
    assert B.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    del B.entries[(2, 4)]
    with pytest.raises(IncompleteTableError):
        resolution._validate_euler(B, hilbert_numerator_of(I))


def test_koszul_zero_and_unit():
    B = koszul_betti(Ideal(R2, []))
    assert B.entries == {(0, 0): 1}
    assert (B.pd(), B.reg(), B.ts()) == (0, 0, [0])
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
        direct = koszul_betti(J, max_cuts=0)
        small = koszul_betti(substitute_linear_form(I, ell))
        assert lift_section_table(small, 1, 3).entries == direct.entries


def test_koszul_table_invariant_under_coordinate_change():
    # the table depends on the ideal, not on the coordinates: g.I has the
    # table of I for every invertible g, with and without regular cuts
    rng = random.Random(2024)
    seen = 0
    for spec in corpus_specs(80, 2024):
        if spec.nvars > 4:
            continue
        I, _ = generate_instance(spec)
        if I.is_monomial:
            continue
        p = I.ring.char
        while True:
            g = [[rng.randrange(p) for _ in range(spec.nvars)] for _ in range(spec.nvars)]
            if mat_inv_mod(g, p) is not None:
                break
        moved = Ideal(I.ring, [apply_linear_change(f, g) for f in I.gens])
        for max_cuts in (None, 0):
            assert koszul_betti(moved, max_cuts=max_cuts, seed=spec.seed) == \
                koszul_betti(I, max_cuts=max_cuts, seed=spec.seed), spec.label()
        seen += 1
    assert seen >= 15


# ---------------------------------------------------------------------------
# derived invariants
# ---------------------------------------------------------------------------

def test_derived_invariants_examples():
    B = koszul_betti(Ideal(R2, [X * X, Y * Y]))
    assert (B.pd(), B.reg()) == (2, 2)
    assert B.ts() == [0, 2, 4]
    assert B.ideal_reg() == B.reg() + 1  # beta_{i,j}(I) = beta_{i+1,j}(S/I)

    B = koszul_betti(Ideal(R2, [X]))
    assert (B.pd(), B.reg(), B.ts()) == (1, 0, [0, 1])


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


def _random_homogeneous_ideal(rng, ring, ngens):
    gens = []
    for _ in range(ngens):
        d = rng.randint(1, 3)
        monos = [e for e in _monos(ring.nvars, d)]
        support = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        gens.append(Poly(ring, {e: rng.randrange(1, ring.char) for e in support}))
    return Ideal(ring, gens)


def _monos(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _monos(n - 1, d - first):
            yield (first,) + rest


def test_last_variable_cut_restricts_the_reduced_basis():
    # Bayer-Stillman: when x_N divides no leading monomial, the reduced
    # basis with x_N = 0 is the reduced basis of the image
    rng = random.Random(1987)
    cuts = 0
    for trial in range(60):
        ring = PolyRing(rng.randint(2, 4), 101)
        I = _random_homogeneous_ideal(rng, ring, rng.randint(1, ring.nvars))
        image = _last_variable_cut(I)
        lms = reduced_gb(I, GREVLEX).leading_monomials()
        if image is None:
            assert any(lm[-1] for lm in lms)
            continue
        cuts += 1
        expected = reduced_gb(substitute_linear_form(I, ring.variable(ring.nvars - 1)), GREVLEX)
        assert reduced_gb(image, GREVLEX).elements == expected.elements
    assert cuts >= 20


def test_regular_reduce_draws_when_the_last_variable_is_a_zero_divisor(monkeypatch):
    # x*z is a minimal generator of in(I), so z is a zero divisor on S/I and
    # the first cut takes a random draw
    x, y, z = R3.variables()
    I = Ideal(R3, [x * z, x * y + y * y])
    assert _last_variable_cut(I) is None
    drawn = []
    real = resolution.draw_certified_form
    monkeypatch.setattr(resolution, "draw_certified_form", lambda J, *a, **k: drawn.append(J) or real(J, *a, **k))
    _, cuts = _regular_reduce(I, seed=5)
    assert drawn and drawn[0] is I
    assert cuts == 1
    assert koszul_betti(I, seed=5) == koszul_betti(I, max_cuts=0)


# ---------------------------------------------------------------------------
# per-instance memo of monomial tables and Hilbert numerators
# ---------------------------------------------------------------------------

def _count_closures(monkeypatch) -> list:
    calls = []
    real = monomials.lcm_closure
    monkeypatch.setattr(monomials, "lcm_closure", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _count_numerators(monkeypatch) -> list:
    calls = []
    real = monomials._hilbert_numerator
    monkeypatch.setattr(monomials, "_hilbert_numerator", lambda *a: calls.append(1) or real(*a))
    return calls


def test_instance_scope_reuses_permuted_and_redundant_generators(monkeypatch):
    closures = _count_closures(monkeypatch)
    numerators = _count_numerators(monkeypatch)
    gens = [(2, 0, 0), (1, 1, 0), (0, 1, 1)]
    same_ideal = [(0, 1, 1), (2, 1, 0), (1, 1, 0), (2, 0, 0), (0, 1, 1)]
    with monomials.instance_scope():
        B = monomial_betti(gens, 3, 32003)
        assert monomial_betti(same_ideal, 3, 32003) == B
        K = monomials.hilbert_numerator(same_ideal, 3)
        assert monomials.hilbert_numerator(gens, 3) == K
    assert len(closures) == 1
    # the table's Euler check asked for the numerator first
    assert len(numerators) == 1


def test_nothing_is_kept_outside_or_after_a_scope(monkeypatch):
    closures = _count_closures(monkeypatch)
    numerators = _count_numerators(monkeypatch)
    gens = [(2, 0, 0), (1, 1, 0), (0, 1, 1)]
    monomial_betti(gens, 3, 32003)
    monomial_betti(gens, 3, 32003)
    assert len(closures) == 2
    with monomials.instance_scope():
        monomial_betti(gens, 3, 32003)
        with monomials.instance_scope():  # a nested scope starts empty
            monomial_betti(gens, 3, 32003)
        monomial_betti(gens, 3, 32003)
    assert len(closures) == 4
    monomial_betti(gens, 3, 32003)
    monomials.hilbert_numerator(gens, 3)
    assert len(closures) == 5
    assert len(numerators) == 6


def test_each_characteristic_gets_its_own_table(monkeypatch):
    # the Stanley-Reisner ideal of the six-vertex real projective plane has
    # a table that depends on the field: two extra entries in characteristic 2
    facets = {frozenset(map(int, s)) for s in "124 126 135 136 145 234 235 256 346 456".split()}
    gens = [tuple(int(v in t) for v in range(1, 7))
            for t in combinations(range(1, 7), 3) if frozenset(t) not in facets]
    closures = _count_closures(monkeypatch)
    with monomials.instance_scope():
        odd = monomial_betti(gens, 6, 32003)
        two = monomial_betti(gens, 6, 2)
        assert monomial_betti(gens, 6, 32003) == odd
        assert monomial_betti(gens, 6, 2) == two
    assert len(closures) == 2
    assert two.entries == {**odd.entries, (3, 6): 1, (4, 6): 1}


def test_callers_cannot_corrupt_the_memo():
    gens = [(2, 0, 0), (1, 1, 0), (0, 1, 1)]
    expected_K = monomials.hilbert_numerator(gens, 3)
    expected_B = monomial_betti(gens, 3, 32003)
    with monomials.instance_scope():
        K = monomials.hilbert_numerator(gens, 3)
        K[0] = 99
        K.pop(2, None)
        B = monomial_betti(gens, 3, 32003)
        B.entries.clear()
        assert monomials.hilbert_numerator(gens, 3) == expected_K
        assert monomial_betti(gens, 3, 32003).entries == expected_B.entries
