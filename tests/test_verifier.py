import json

import pytest

from bettibounds.groebner import Ideal, ideals_equal
from bettibounds.polyring import GREVLEX, LEX, PolyRing
from bettibounds.verifier import (
    ERROR,
    FAIL,
    PASS,
    SKIP,
    Bound,
    CheckContext,
    InstanceSpec,
    check_coroll_pd_reg,
    check_coroll_reg,
    check_coroll_syz_reg,
    check_lemma_reduction,
    check_mccullough,
    check_remark_deg,
    check_semicontinuity_and_taylor,
    check_thm_jason,
    check_thm_lc,
    check_thm_prime,
    check_thm_syz,
    corpus_specs,
    generate_instance,
    run_all_checks,
    run_corpus,
)

R2 = PolyRing(2, 32003, ("x", "y"))
R3 = PolyRing(3, 32003, ("x", "y", "z"))
X, Y = R2.variables()

I_M2 = Ideal(R2, [X * X, X * Y, Y * Y])
I_CI = Ideal(R2, [X * X, Y * Y])
I_X = Ideal(R2, [X])


# ---------------------------------------------------------------------------
# exact bound values
# ---------------------------------------------------------------------------

def test_bound_exact_and_symbolic():
    b = Bound.power(3, 2)
    assert b.is_exact() and b.value == 9 and b.geq(9) and not b.geq(10)
    t = Bound.power(6, 2 ** 20)  # 6^(2^20): materializes (about 2.7e6 bits? no: 2^20*2.58 bits)
    # either exact or symbolic, comparisons must hold regardless
    assert t.geq(10 ** 9)
    huge = Bound.power(2, Bound.power(6, 2 ** 30))
    assert huge.geq(2 ** 64)
    assert huge.json_value() is None
    assert "6^(" in huge.desc() or "2^(" in huge.desc()


def test_bound_minus_small():
    assert Bound.power(2, 5).minus_small(2).value == 30
    sym = Bound.power(6, 2 ** 25)
    low = sym.minus_small(2)
    assert low.geq(2 ** 64)
    with pytest.raises(ValueError):
        Bound.of(1).minus_small(2)


def test_bound_towers_match_expected_values():
    assert Bound.power(2, 2 ** 2).value == 16
    assert Bound.power(3, 2 ** 1).value == 9
    assert Bound.power(1, 2 ** 10).value == 1
    assert Bound.power(0, 4).value == 0
    assert Bound.power(0, 0).value == 1
    assert Bound.power(2, 2 ** 14).log2() == pytest.approx(16384.0)


# ---------------------------------------------------------------------------
# individual checks on the worked examples
# ---------------------------------------------------------------------------

def test_thm_lc_examples():
    r = check_thm_lc(I_M2)
    assert (r.params["mu"], r.params["alpha"], r.lhs) == (3, 1, 2)
    assert r.rhs.value == 9 and r.verdict == PASS
    r = check_thm_lc(I_CI)
    assert (r.params["mu"], r.params["alpha"], r.lhs) == (2, 2, 2)
    assert r.rhs.value == 16 and r.verdict == PASS
    r = check_thm_lc(I_X)
    assert r.lhs == 1 and r.rhs.value == 1 and r.verdict == PASS


def test_thm_prime_examples():
    x, y, z = R3.variables()
    I = Ideal(R3, [x * y, x * z, y * z])
    r = check_thm_prime(I, h=2, user_asserts_unmixed_radical=True)
    assert r.verdict == PASS
    r = check_thm_prime(I_X, user_asserts_unmixed_radical=True)
    assert r.params["h"] == 1 and r.lhs == 1 and r.rhs.value == 1 and r.verdict == PASS
    with pytest.raises(ValueError):
        check_thm_prime(I_X)


def test_thm_prime_on_generic_complete_intersection():
    spec = InstanceSpec("complete-intersection", 4, 2, 2, seed=42)
    I, meta = generate_instance(spec)
    r = check_thm_prime(I, user_asserts_unmixed_radical=True)
    assert r.params["h"] == 2
    assert r.verdict == PASS


def test_coroll_reg_examples():
    r = check_coroll_reg(I_CI)
    assert r.lhs == 3  # reg(I) = reg(S/I) + 1
    assert r.verdict == PASS
    assert r.rhs.log2() == pytest.approx(2 ** 14)
    r = check_coroll_reg(I_M2)
    assert r.lhs == 2 and r.verdict == PASS
    r = check_coroll_reg(Ideal(R2, [X, Y * Y]))
    assert r.verdict == SKIP


def test_coroll_pd_reg_examples():
    r = check_coroll_pd_reg(I_CI)
    assert r.lhs == 2 and r.rhs.value == 16 and r.verdict == PASS
    r = check_coroll_pd_reg(I_M2)
    assert r.params["reg"] == 1 and r.rhs.value == 9 and r.verdict == PASS
    r = check_coroll_pd_reg(I_X)
    assert r.lhs == 1 and r.rhs.value == 1 and r.verdict == PASS


def test_thm_syz_examples():
    I = Ideal(R2, [X * X, X * Y])
    r = check_thm_syz(I, seed=0)
    assert r.verdict == PASS
    assert "two-seed agreement" in r.notes

    r = check_thm_syz(I_CI, seed=1)
    assert r.verdict == PASS

    R1 = PolyRing(1, 32003, ("x",))
    r = check_thm_syz(Ideal(R1, [R1.variable(0)]), seed=0)
    assert r.lhs == 1 and r.verdict == PASS


def test_syz_section_t2_matches_direct_computation():
    # the substituted-ring route must equal t_2 computed directly over S
    from bettibounds.invariants import generic_section
    from bettibounds.resolution import koszul_betti
    from bettibounds.verifier import _syz_gamma

    for seed in range(3):
        spec = InstanceSpec("random-homogeneous", 3, 2, 2, seed=2000 + seed)
        I, _ = generate_instance(spec)
        ctx = CheckContext(I, seed=seed)
        C, gamma, _w = _syz_gamma(I, ctx, seed=seed)
        section = generic_section(I, min(ctx.depth + 1, I.ring.nvars), seed=seed)
        direct = koszul_betti(section.ideal, max_i=2, reduce_regular=False, seed=seed)
        assert C == direct.t(2)


def test_coroll_syz_reg_examples():
    r = check_coroll_syz_reg(I_CI, seed=0)
    assert r.verdict == PASS
    r = check_coroll_syz_reg(Ideal(R2, [X, Y * Y]), seed=0)
    assert r.verdict == SKIP


def test_thm_jason_examples():
    reports = check_thm_jason(I_CI, (2,))
    main = [r for r in reports if r.check == "thm_jason"][0]
    assert main.params["delta"] == 1 and main.lhs == 2 and main.rhs.value == 8
    assert main.verdict == PASS

    reports = check_thm_jason(I_M2, (2,))
    main = [r for r in reports if r.check == "thm_jason"][0]
    assert main.params["delta"] == 1 and main.rhs.value == 18 and main.verdict == PASS


def test_thm_jason_r1_matches_coroll_pd_reg():
    for I in (I_CI, I_M2, Ideal(R3, [R3.variable(0) * R3.variable(1)])):
        jason = [r for r in check_thm_jason(I, (1,)) if r.check == "thm_jason"][0]
        pdreg = check_coroll_pd_reg(I)
        assert jason.verdict == pdreg.verdict
        assert jason.rhs.value == pdreg.rhs.value


def test_lemma_reduction_examples():
    x, y, z = R3.variables()
    r = check_lemma_reduction(Ideal(R3, [x]), seed=0)
    assert r.verdict == PASS and r.params["alpha"] == 0

    r = check_lemma_reduction(I_M2, seed=0)
    assert r.verdict == SKIP  # depth 0

    spec = InstanceSpec("complete-intersection", 3, 2, 2, seed=5)
    I, _ = generate_instance(spec)
    r = check_lemma_reduction(I, seed=2)
    assert r.verdict == PASS


def test_lemma_reduction_section_table_matches_direct_computation():
    # the table lifted from the certified image equals S/(I + l) over S
    from bettibounds.invariants import find_regular_form
    from bettibounds.resolution import koszul_betti

    for family, n, g, d, seed in [("random-homogeneous", 3, 2, 2, 2100), ("random-homogeneous", 4, 2, 2, 2101),
                                  ("borel", 4, 2, 3, 2104), ("edge-ideal", 4, 3, 2, 2105)]:
        I, _ = generate_instance(InstanceSpec(family, n, g, d, seed=seed))
        r = check_lemma_reduction(I, seed=seed)
        assert r.params["depth"] in (1, 2)
        ell, _ = find_regular_form(I, seed=seed)
        direct = koszul_betti(Ideal(I.ring, list(I.gens) + [ell]), reduce_regular=False)
        assert r.witness["betti_section"] == [[i, j, v] for (i, j), v in direct.items()]


def test_remark_deg_examples():
    r = check_remark_deg(I_M2, 2, GREVLEX)
    assert r.verdict == PASS and r.lhs <= 9
    r = check_remark_deg(I_M2, 3, GREVLEX)
    assert r.verdict == PASS
    r = check_remark_deg(I_X, 2, GREVLEX)
    assert r.lhs == 1 and r.rhs.value == 1 and r.verdict == PASS
    r = check_remark_deg(I_CI, 2, LEX)
    assert r.verdict == PASS
    with pytest.raises(ValueError):
        check_remark_deg(I_CI, 0, GREVLEX)


def test_semicontinuity_examples():
    assert check_semicontinuity_and_taylor(I_CI).verdict == PASS
    assert check_semicontinuity_and_taylor(Ideal(R2, [X * X + Y * Y, X * Y])).verdict == PASS


def test_mccullough():
    r = check_mccullough(I_CI)
    assert r.verdict == PASS
    x, y, z = R3.variables()
    r = check_mccullough(Ideal(R3, [x * y]))
    assert r.verdict == SKIP  # pd = 1 < ceil(3/2)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def test_generate_instance_determinism():
    for family in ("random-homogeneous", "random-monomial", "borel", "edge-ideal", "complete-intersection"):
        spec = InstanceSpec(family, 4, 3, 3, seed=99)
        A, ma = generate_instance(spec)
        B, mb = generate_instance(spec)
        assert A.gens == B.gens and ma == mb


def test_generate_instance_families():
    I, meta = generate_instance(InstanceSpec("complete-intersection", 3, 3, 2, seed=1))
    assert len(I.gens) == 3 and all(g.degree() == d for g, d in zip(I.gens, meta["ci_degrees"]))

    I, meta = generate_instance(InstanceSpec("borel", 3, 4, 3, seed=2))
    from bettibounds.invariants import borel_fixed_test

    assert borel_fixed_test(I)

    I, meta = generate_instance(InstanceSpec("edge-ideal", 5, 4, 2, seed=3))
    assert all(g.degree() == 2 and g.is_monomial() for g in I.gens)
    assert "unmixed_radical" in meta

    with pytest.raises(ValueError):
        generate_instance(InstanceSpec("mystery", 3, 3, 3, seed=0))


def test_generate_instance_from_file(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("ring 2 32003 x y\n! height 1\nx^2 + y^2\n", encoding="utf-8")
    spec = InstanceSpec("from-file", 0, 0, 0, seed=0, path=str(p))
    I, meta = generate_instance(spec)
    assert len(I.gens) == 1 and meta["height"] == 1 and meta["family"] == "from-file"
    assert spec.label().endswith("in.txt")
    with pytest.raises(ValueError):
        generate_instance(InstanceSpec("from-file", 0, 0, 0, seed=0))


def test_five_cycle_edge_ideal_is_unmixed():
    from bettibounds.verifier import _edge_ideal_meta

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    meta = _edge_ideal_meta(edges, 5)
    assert meta == {"unmixed_radical": True, "height": 3}
    R5 = PolyRing(5, 32003)
    exps = []
    for i, j in edges:
        e = [0] * 5
        e[i] = e[j] = 1
        exps.append(tuple(e))
    I = Ideal.monomial(R5, exps)
    r = check_thm_prime(I, h=meta["height"], user_asserts_unmixed_radical=True)
    assert r.verdict == PASS


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

def test_run_all_checks_passes_and_reports_json():
    reports = run_all_checks(I_M2, seed=0, instance="unit")
    assert all(r.verdict != FAIL for r in reports)
    names = {r.check for r in reports}
    assert {"thm_lc", "coroll_reg", "coroll_pd_reg", "thm_syz", "coroll_syz_reg",
            "thm_jason", "coroll_jason", "lemma_reduction", "remark_deg",
            "semicontinuity_and_taylor"} <= names
    for r in reports:
        parsed = json.loads(r.to_json())
        assert parsed["check"] == r.check and parsed["verdict"] == r.verdict


def test_run_corpus_reports_are_pinned(tmp_path):
    # the first 36 specs of the seed-2024 acceptance corpus in about a second:
    # any drift in a table, a bound, a witness or a verdict changes a digest
    import hashlib

    jsonl, tsv = tmp_path / "c.jsonl", tmp_path / "c.tsv"
    run_corpus(36, seed=2024, jsonl_path=str(jsonl), tsv_path=str(tsv))
    assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == \
        "f1a34c59a9ed1b066be88ab68fa00e8cd7b5a5909f9fcd8af96816082f9fe235"
    assert hashlib.sha256(tsv.read_bytes()).hexdigest() == \
        "0ac0b1db00fc6420b56bf1a8cfe1ec957dc7a5798fb3416ef29dfaaebf0c8748"


def test_run_corpus_small_deterministic(tmp_path):
    p1 = tmp_path / "a.jsonl"
    t1 = tmp_path / "a.tsv"
    s1 = run_corpus(size=6, seed=3, jsonl_path=str(p1), tsv_path=str(t1))
    p2 = tmp_path / "b.jsonl"
    t2 = tmp_path / "b.tsv"
    s2 = run_corpus(size=6, seed=3, jsonl_path=str(p2), tsv_path=str(t2))
    assert s1 == s2 and s1["fail"] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()
    first = json.loads(p1.read_text().splitlines()[0])
    assert {"check", "instance", "lhs", "rhs_desc", "verdict", "witness"} <= set(first)


def test_run_corpus_isolates_an_instance_that_raises(tmp_path, monkeypatch):
    from bettibounds import verifier

    clean = tmp_path / "clean.jsonl"
    assert run_corpus(6, seed=2024, jsonl_path=str(clean))["error"] == 0
    bad = corpus_specs(6, 2024)[2]
    real = verifier.run_all_checks

    def raise_on_bad(I, seed, instance, **kwargs):
        if instance == bad.label():
            raise RuntimeError("boom")
        return real(I, seed=seed, instance=instance, **kwargs)

    monkeypatch.setattr(verifier, "run_all_checks", raise_on_bad)
    out = tmp_path / "out.jsonl"
    summary = run_corpus(6, seed=2024, jsonl_path=str(out))
    assert summary["error"] == 1
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    errors = [r for r in rows if r["verdict"] == ERROR]
    assert len(errors) == 1
    err = errors[0]
    assert err["check"] == "error" and err["instance"] == bad.label()
    assert err["notes"] == "RuntimeError: boom"
    assert InstanceSpec(**err["params"]) == bad
    kept = [line for line in clean.read_text().splitlines() if json.loads(line)["instance"] != bad.label()]
    assert 0 < len(kept) < len(clean.read_text().splitlines())
    assert [line for line in out.read_text().splitlines() if json.loads(line)["verdict"] != ERROR] == kept
    assert summary["pass"] + summary["fail"] + summary["hypotheses_not_met"] == len(kept)
