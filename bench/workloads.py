"""The three workloads: their seeded inputs, one timed round, and the checks
made on the round's outputs afterwards.

A round processes every input once and returns the time of each operation
(one ideal), a digest of everything the program wrote, and the outputs the
checks need.  Rounds build fresh ``Ideal`` objects, so no basis cached on an
ideal survives from one round to the next.  Library entry points are looked
up on their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
from itertools import combinations

from bettibounds import cli, ideal_io, invariants, polyring, resolution, verifier
from bettibounds.groebner import Ideal

import checks

P = 32003
# Hilbert functions are checked in every degree whose monomial count is at
# most this, which keeps one elimination matrix to a few hundred columns.
HILBERT_MAX_COLS = 300


def _label_shape(label: str) -> tuple[str, int, int]:
    """Family, number of variables and number of generators of a corpus label."""
    family, rest = label.split("/")
    n, g = map(int, re.fullmatch(r"N(\d+)g(\d+)D\d+s\d+", rest).groups())
    return family, n, g


def _gens_data(I) -> list[dict]:
    return [dict(g.terms) for g in I.gens]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _reports(jsonl: bytes) -> list[dict]:
    return [json.loads(line) for line in jsonl.decode("utf-8").splitlines()]


class Round:
    """``wall`` is the time of the program calls of the round, ``times`` the
    time of each operation within it."""

    def __init__(self, wall: float, times: list[float], failed: int, digest: str, output):
        self.wall = wall
        self.times = times
        self.failed = failed
        self.digest = digest
        self.output = output


# ---------------------------------------------------------------------------
# corpus: how the verifier is used
# ---------------------------------------------------------------------------

def _primes_between(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo | 1, hi, 2) if polyring.is_prime(q)]


class Corpus:
    """A prefix of the acceptance corpus (specs of seed 2024) through
    ``run_corpus``, with its JSONL and TSV reports written.

    The run seed picks the field: a prime between 30000 and 32749.  The
    specs, the monomial ideals and the shapes of the dense ideals do not
    depend on it; the coefficients of the dense forms do.
    """

    SIZE = 36
    CORPUS_SEED = 2024

    def __init__(self, seed: int, workdir: str):
        self.prime = random.Random(seed).choice(_primes_between(30000, 32749))
        self.specs = verifier.corpus_specs(self.SIZE, self.CORPUS_SEED, prime=self.prime)
        self.jsonl = os.path.join(workdir, "corpus.jsonl")
        self.tsv = os.path.join(workdir, "corpus.tsv")

    def run_round(self) -> Round:
        marks = [time.perf_counter()]
        verifier.run_corpus(self.SIZE, self.CORPUS_SEED, self.jsonl, self.tsv, prime=self.prime,
                            progress=lambda k, total: marks.append(time.perf_counter()))
        marks[-1] = time.perf_counter()  # the last ideal also pays for writing the reports
        wall = marks[-1] - marks[0]
        times = [b - a for a, b in zip(marks, marks[1:])]
        jsonl, tsv = _read(self.jsonl), _read(self.tsv)
        return Round(wall, times, 0, hashlib.sha256(jsonl + tsv).hexdigest(), jsonl)

    def check(self, jsonl: bytes) -> list[str]:
        reports = _reports(jsonl)
        errors = checks.failed_verdicts(reports)
        tables = {r["instance"]: checks.table_from_witness(r["witness"]["betti"])
                  for r in reports if r["check"] == "thm_lc"}
        for spec in self.specs:
            if spec.family not in ("complete-intersection", "random-homogeneous"):
                continue
            label = spec.label()
            if label not in tables:
                errors.append(f"{label}: no thm_lc report")
                continue
            I, meta = verifier.generate_instance(spec)
            if spec.family == "complete-intersection":
                errors += checks.ci_errors(label, tables[label], meta["ci_degrees"], spec.nvars, spec.ngens)
            errors += checks.hilbert_errors(label, spec.nvars, self.prime, _gens_data(I), tables[label],
                                            HILBERT_MAX_COLS)
        return errors


# ---------------------------------------------------------------------------
# dense: a few large bases through the CLI
# ---------------------------------------------------------------------------

def _dense_form(rng: random.Random, nvars: int, d: int) -> dict:
    return {m: rng.randrange(1, P) for m in checks.monomials_of_degree(nvars, d)}


class Dense:
    """Dense forms with the ring and generator degrees of four non-monomial
    corpus ideals; coefficients come from the run seed, all of them nonzero.
    Generic coefficients give the same Groebner work for almost every seed.
    Each ideal is written to a file and run through
    ``bettibounds check FILE --all``."""

    SHAPES = (
        ("complete-intersection/N5g4D4s2024006174", (4, 3, 2, 2)),
        ("complete-intersection/N6g4D2s2024006176", (2, 2, 2, 2)),
        ("random-homogeneous/N4g4D4s2024006140", (4, 4, 3, 2)),
        ("random-homogeneous/N5g6D2s2024006189", (2, 2, 2, 2, 2, 2)),
    )

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.items = []
        for k, (label, degrees) in enumerate(self.SHAPES):
            family, n, g = _label_shape(label)
            ring = polyring.PolyRing(n, P)
            gens = [_dense_form(rng, n, d) for d in degrees]
            I = Ideal(ring, [polyring.Poly(ring, t) for t in gens])
            path = os.path.join(workdir, f"dense{k}.ideal")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(ideal_io.format_ideal(I))
            self.items.append((label, family, n, g, degrees, path, _gens_data(I)))

    def run_round(self) -> Round:
        times, failed = [], 0
        start = time.perf_counter()
        for *_, path, _ in self.items:
            t0 = time.perf_counter()
            code = cli.main(["--seed", str(self.seed), "--out", path + ".jsonl", "check", path, "--all"])
            times.append(time.perf_counter() - t0)
            failed += code not in (0, 1)  # 1 is a failed bound, which the checks report
        wall = time.perf_counter() - start
        outputs = [_read(path + ".jsonl") for *_, path, _ in self.items]
        return Round(wall, times, failed, hashlib.sha256(b"".join(outputs)).hexdigest(), outputs)

    def check(self, outputs: list[bytes]) -> list[str]:
        errors = []
        for (label, family, n, g, degrees, _, gens), jsonl in zip(self.items, outputs):
            reps = _reports(jsonl)
            errors += checks.failed_verdicts(reps)
            table = next((checks.table_from_witness(r["witness"]["betti"]) for r in reps if r["check"] == "thm_lc"), None)
            if table is None:
                errors.append(f"{label}: no thm_lc report")
                continue
            if family == "complete-intersection":
                errors += checks.ci_errors(label, table, list(degrees), n, g)
            errors += checks.hilbert_errors(label, n, P, gens, table, HILBERT_MAX_COLS)
        return errors


# ---------------------------------------------------------------------------
# edge-betti: many small strands and ranks, no Groebner basis
# ---------------------------------------------------------------------------

class EdgeBetti:
    """Edge ideals of fixed seeded random graphs on 9-11 vertices with 14-22
    edges.  The run seed shuffles the order in which each ideal's generators
    are given; the program sorts them first, so the work is the same for
    every seed; relabelling the vertices instead would change the order of
    the membership scans in the strands, and so the work.  Each
    ideal goes through the invariants path: ``koszul_betti``, then
    ``invariant_bundle`` on its table."""

    # graph k draws its vertices and edges from random.Random(9000 + k); these
    # five take well under a second each, so a run can time each many times
    GRAPHS = (1, 6, 10, 21, 22)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seed = seed
        self.graphs = []
        for k in self.GRAPHS:
            g = random.Random(9000 + k)
            n = g.randint(9, 11)
            m = g.randint(14, 22)
            edges = sorted(g.sample(list(combinations(range(n), 2)), m))
            exps = [tuple(1 if t in e else 0 for t in range(n)) for e in edges]
            rng.shuffle(exps)
            self.graphs.append((f"graph{k}", n, edges, exps))

    def run_round(self) -> Round:
        times, out = [], []
        start = time.perf_counter()
        for _, n, _, exps in self.graphs:
            t0 = time.perf_counter()
            I = Ideal.monomial(polyring.PolyRing(n, P), exps)
            table = resolution.koszul_betti(I, seed=self.seed)
            bundle = invariants.invariant_bundle(I, seed=self.seed, table=table)
            times.append(time.perf_counter() - t0)
            out.append((dict(table.entries), bundle.as_dict()))
        wall = time.perf_counter() - start
        text = json.dumps([[sorted(t.items()), b] for t, b in out], sort_keys=True)
        return Round(wall, times, 0, hashlib.sha256(text.encode()).hexdigest(), out)

    def check(self, out) -> list[str]:
        errors = []
        for (label, n, edges, _), (table, bundle) in zip(self.graphs, out):
            errors += checks.edge_errors(label, n, edges, table, pd=bundle["pd"], reg=bundle["reg"])
        return errors


WORKLOADS = {"corpus": Corpus, "dense": Dense, "edge-betti": EdgeBetti}
