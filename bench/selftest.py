"""Shows that every output check of the benchmark can fail.

Each check first gets a true table or report, made by the program on a small
input, and must pass it; then it gets one deliberately wrong copy and must
report an error that names what is wrong.  Run through
``python3 bench/run.py --self-test``; exit code 0 means every check passed
the true input and caught the wrong one.
"""

from __future__ import annotations

import random
import sys

from bettibounds import Ideal, Poly, PolyRing, koszul_betti

import checks

P = 32003


def dense_ideal(nvars: int, degrees: list[int], seed: int) -> tuple[Ideal, list[dict]]:
    rng = random.Random(seed)
    ring = PolyRing(nvars, P)
    gens = [{m: rng.randrange(1, P) for m in checks.monomials_of_degree(nvars, d)} for d in degrees]
    return Ideal(ring, [Poly(ring, g) for g in gens]), gens


def edge_ideal(nvars: int, edges: list[tuple[int, int]]) -> Ideal:
    exps = [tuple(1 if t in e else 0 for t in range(nvars)) for e in edges]
    return Ideal.monomial(PolyRing(nvars, P), exps)


def changed(table: dict, key: tuple[int, int], delta: int) -> dict:
    out = dict(table)
    out[key] = out.get(key, 0) + delta
    return out


def main() -> int:
    cases = []  # (check, what, errors on the true input, errors on the wrong input, word the error must contain)

    reports = [{"instance": "a", "check": "thm_lc", "verdict": "pass"},
               {"instance": "a", "check": "thm_syz", "verdict": "hypotheses_not_met"}]
    wrong = reports + [{"instance": "a", "check": "coroll_reg", "verdict": "fail"}]
    cases.append(("failed_verdicts", "a report with verdict fail",
                  checks.failed_verdicts(reports), checks.failed_verdicts(wrong), "fail"))

    cases.append(("digest", "a traced round with another digest",
                  checks.digest_mismatch("ab" * 32, ["ab" * 32], "round"),
                  checks.digest_mismatch("ab" * 32, ["ab" * 32, "cd" * 32], "round"), "digest"))

    ci, ci_gens = dense_ideal(4, [2, 2, 3], seed=1)
    ci_table = dict(koszul_betti(ci).entries)
    cases.append(("ci", "beta_{2,5} raised by one",
                  checks.ci_errors("ci", ci_table, [2, 2, 3], 4, 3),
                  checks.ci_errors("ci", changed(ci_table, (2, 5), 1), [2, 2, 3], 4, 3), "Koszul"))
    cases.append(("ci", "a label asking for 4 generators",
                  checks.ci_errors("ci", ci_table, [2, 2, 3], 4, 3),
                  checks.ci_errors("ci", ci_table, [2, 2, 3], 4, 5), "generators"))

    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (4, 5), (5, 6)]
    n = 7
    table = dict(koszul_betti(edge_ideal(n, edges)).entries)
    pd, reg = checks.table_pd(table), checks.table_reg(table)
    ok = checks.edge_errors("graph", n, edges, table, pd=pd, reg=reg)
    for key, word in (((1, 2), "beta_(1, 2)"), ((2, 3), "beta_(2, 3)"), ((2, 4), "beta_(2, 4)")):
        cases.append(("edge", f"beta_{key} raised by one", ok,
                      checks.edge_errors("graph", n, edges, changed(table, key, 1)), word))
    high = changed(table, (pd, pd + 10), 1)
    cases.append(("edge", "an entry far above the matching number", ok,
                  checks.edge_errors("graph", n, edges, high), "matching"))
    low = {k: v for k, v in table.items() if k[1] - k[0] <= 1}
    cases.append(("edge", "rows above the linear strand dropped", ok,
                  checks.edge_errors("graph", n, edges, low), "induced matching"))
    short = {k: v for k, v in table.items() if k[0] <= 1}
    cases.append(("edge", "columns beyond the first dropped", ok,
                  checks.edge_errors("graph", n, edges, short), "big height"))
    cases.append(("edge", "an invariant bundle whose pd disagrees", ok,
                  checks.edge_errors("graph", n, edges, table, pd=pd + 1, reg=reg), "disagrees"))

    rh, rh_gens = dense_ideal(4, [2, 3, 3], seed=2)
    rh_table = dict(koszul_betti(rh).entries)
    cases.append(("hilbert", "beta_{1,3} raised by one",
                  checks.hilbert_errors("rh", 4, P, rh_gens, rh_table, 300),
                  checks.hilbert_errors("rh", 4, P, rh_gens, changed(rh_table, (1, 3), 1), 300), "elimination"))
    cases.append(("hilbert", "the CI's table against the other ideal",
                  checks.hilbert_errors("ci", 4, P, ci_gens, ci_table, 300),
                  checks.hilbert_errors("ci", 4, P, rh_gens, ci_table, 300), "elimination"))

    bad = 0
    for name, what, errs_true, errs_wrong, word in cases:
        caught = any(word in e for e in errs_wrong)
        status = "ok" if not errs_true and caught else "BROKEN"
        bad += status != "ok"
        detail = errs_true[:1] if errs_true else [e for e in errs_wrong if word in e][:1]
        print(f"{status:6s} {name:16s} {what}: {detail[0] if detail else 'not caught'}")
    print(f"self-test: {len(cases) - bad} of {len(cases)} checks pass the true input and catch the wrong one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
