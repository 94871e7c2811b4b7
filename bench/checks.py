"""Output checks that do not go through the program's main path.

Every function takes plain data (tables as ``{(i, j): beta}``, reports as
dicts, generators as ``{exponents: coefficient}``) and returns a list of
error strings; an empty list means the check passed.  Nothing here imports
``bettibounds``: the facts are either theorems about the inputs or the
result of an elimination written for this file.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

Table = dict[tuple[int, int], int]


def table_from_witness(rows) -> Table:
    """The ``[[i, j, beta], ...]`` witness of a report as a table."""
    return {(int(i), int(j)): int(v) for i, j, v in rows}


def table_pd(table: Table) -> int:
    return max(i for (i, _), v in table.items() if v)


def table_reg(table: Table) -> int:
    return max(j - i for (i, j), v in table.items() if v)


# ---------------------------------------------------------------------------
# verdicts and digests
# ---------------------------------------------------------------------------

def failed_verdicts(reports: list[dict]) -> list[str]:
    """Every bound checked is a theorem, so no report may say ``fail``."""
    return [f"{r.get('instance')} {r.get('check')}: verdict fail" for r in reports if r.get("verdict") == "fail"]


def digest_mismatch(expected: str, got: list[str], what: str) -> list[str]:
    return [f"{what} {k}: output digest {d[:12]} != {expected[:12]}" for k, d in enumerate(got) if d != expected]


# ---------------------------------------------------------------------------
# complete intersections
# ---------------------------------------------------------------------------

def koszul_table(degrees: list[int]) -> Table:
    """Betti table of S/(f_1..f_c) for a regular sequence of these degrees."""
    out: Table = {}
    for i in range(len(degrees) + 1):
        for subset in combinations(degrees, i):
            key = (i, sum(subset))
            out[key] = out.get(key, 0) + 1
    return out


def ci_errors(label: str, table: Table, degrees: list[int], nvars: int, ngens: int) -> list[str]:
    """A complete intersection has the Koszul table of its generator degrees
    and min(g, N, 4) generators (the corpus caps the codimension at 4)."""
    errors = []
    want_c = min(ngens, nvars, 4)
    mu = sum(v for (i, _), v in table.items() if i == 1)
    if mu != want_c or len(degrees) != want_c:
        errors.append(f"{label}: {mu} minimal generators, {len(degrees)} degrees, expected {want_c}")
    want = koszul_table(degrees)
    got = {k: v for k, v in table.items() if v}
    if got != want:
        errors.append(f"{label}: table {sorted(got.items())} != Koszul table {sorted(want.items())}")
    return errors


# ---------------------------------------------------------------------------
# edge ideals of graphs
# ---------------------------------------------------------------------------

def _max_matching(edges: list[tuple[int, int]], induced: bool) -> int:
    """Largest (induced) matching by exhaustive search; graphs here have at
    most a few dozen edges and matchings of size at most n/2."""
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def compatible(e, chosen):
        for f in chosen:
            if set(e) & set(f):
                return False
            if induced and any(v in adj[u] for u in e for v in f):
                return False
        return True

    best = 0

    def grow(start: int, chosen: list):
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + (len(edges) - start) <= best:
            return
        for k in range(start, len(edges)):
            if compatible(edges[k], chosen):
                chosen.append(edges[k])
                grow(k + 1, chosen)
                chosen.pop()

    grow(0, [])
    return best


def _big_height(nvars: int, edges: list[tuple[int, int]]) -> int:
    """Largest size of a minimal vertex cover (the big height of I(G))."""
    covers = [mask for mask in range(1 << nvars)
              if all(mask >> a & 1 or mask >> b & 1 for a, b in edges)]
    cover_set = set(covers)
    best = 0
    for mask in covers:
        minimal = all((mask & ~(1 << v)) not in cover_set for v in range(nvars) if mask >> v & 1)
        if minimal:
            best = max(best, bin(mask).count("1"))
    return best


def edge_errors(label: str, nvars: int, edges: list[tuple[int, int]], table: Table,
                pd: int | None = None, reg: int | None = None) -> list[str]:
    """Facts about the Betti table of S/I(G) that follow from the graph alone.

    ``pd`` and ``reg`` are the program's own invariants, when it reports them
    apart from the table; they must agree with the table.
    """
    errors = []
    edges = sorted(tuple(sorted(e)) for e in edges)
    eset = set(edges)
    deg = [0] * nvars
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    triangles = sum(1 for a, b, c in combinations(range(nvars), 3)
                    if (a, b) in eset and (a, c) in eset and (b, c) in eset)
    induced_2k2 = 0
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not any(tuple(sorted(x)) in eset for x in ((a, c), (a, d), (b, c), (b, d))):
            induced_2k2 += 1
    want = {
        (1, 2): len(edges),
        (2, 3): sum(comb(x, 2) for x in deg) - triangles,
        (2, 4): induced_2k2,
    }
    for key, value in want.items():
        if table.get(key, 0) != value:
            errors.append(f"{label}: beta_{key} = {table.get(key, 0)}, expected {value}")
    t_pd, t_reg = table_pd(table), table_reg(table)
    if pd is not None and pd != t_pd:
        errors.append(f"{label}: pd {pd} disagrees with the table's {t_pd}")
    if reg is not None and reg != t_reg:
        errors.append(f"{label}: reg {reg} disagrees with the table's {t_reg}")
    lo, hi = _max_matching(edges, induced=True), _max_matching(edges, induced=False)
    if not lo <= t_reg <= hi:
        errors.append(f"{label}: reg {t_reg} outside [induced matching {lo}, matching {hi}]")
    bight = _big_height(nvars, edges)
    if t_pd < bight:
        errors.append(f"{label}: pd {t_pd} below the big height {bight}")
    return errors


# ---------------------------------------------------------------------------
# Hilbert function by plain elimination
# ---------------------------------------------------------------------------

def monomials_of_degree(nvars: int, d: int):
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def _rank_gauss_jordan(M: np.ndarray, p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination, pivoting on the densest
    remaining column first."""
    M = M % p
    rank = 0
    free_cols = list(range(M.shape[1]))
    while rank < M.shape[0] and free_cols:
        counts = np.count_nonzero(M[rank:, free_cols], axis=0)
        best = int(np.argmax(counts))
        if counts[best] == 0:
            break
        c = free_cols.pop(best)
        r = rank + int(np.flatnonzero(M[rank:, c])[0])
        M[[rank, r]] = M[[r, rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        factors = M[:, c].copy()
        factors[rank] = 0
        rows = np.flatnonzero(factors)
        if rows.size:
            M[rows] = (M[rows] - np.outer(factors[rows], M[rank])) % p
        rank += 1
    return rank


def elimination_hilbert(nvars: int, p: int, gens: list[dict], d: int) -> int:
    """dim_k (S/I)_d from the span of all monomial multiples of the
    generators in degree d."""
    cols = {m: k for k, m in enumerate(monomials_of_degree(nvars, d))}
    rows = []
    for g in gens:
        gd = sum(next(iter(g)))
        if gd > d:
            continue
        for m in monomials_of_degree(nvars, d - gd):
            row = np.zeros(len(cols), dtype=np.int64)
            for e, c in g.items():
                row[cols[tuple(x + y for x, y in zip(e, m))]] = c
            rows.append(row)
    if not rows:
        return len(cols)
    return len(cols) - _rank_gauss_jordan(np.array(rows), p)


def table_hilbert(table: Table, nvars: int, d: int) -> int:
    """dim_k (S/I)_d from the alternating sums of the Betti table."""
    total = 0
    for (i, j), v in table.items():
        if j <= d:
            total += (-1) ** i * v * comb(d - j + nvars - 1, nvars - 1)
    return total


def hilbert_degrees(table: Table, nvars: int, max_cols: int) -> list[int]:
    """Degrees 1.. up to the table's last degree in which S_d has at most
    ``max_cols`` monomials."""
    top = max(j for (_, j) in table)
    return [d for d in range(1, top + 1) if comb(d + nvars - 1, nvars - 1) <= max_cols]


def hilbert_errors(label: str, nvars: int, p: int, gens: list[dict], table: Table, max_cols: int) -> list[str]:
    errors = []
    for d in hilbert_degrees(table, nvars, max_cols):
        want = elimination_hilbert(nvars, p, gens, d)
        got = table_hilbert(table, nvars, d)
        if got != want:
            errors.append(f"{label}: H(S/I, {d}) = {want} by elimination, {got} from the table")
    return errors
