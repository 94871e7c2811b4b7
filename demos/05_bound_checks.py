"""The bound-verification harness: per-theorem checks and a seeded corpus.

Run:  python demos/05_bound_checks.py
"""

import json
import os
import tempfile

from bettibounds import Ideal, InstanceSpec, PolyRing, generate_instance, run_all_checks, run_corpus
from bettibounds.verifier import check_thm_jason, check_thm_lc

ring = PolyRing(2, 32003, ("x", "y"))
x, y = ring.variables()
I = Ideal(ring, [x * x, x * y, y * y])

rep = check_thm_lc(I)
print("projective-dimension bound from the socle degree:")
print(f"  pd = {rep.lhs} <= {rep.rhs.desc()} = mu^(2^alpha)  [{rep.verdict}]")

for rep in check_thm_jason(I, (1, 2)):
    tag = f"r={rep.params.get('r')}"
    rhs = rep.rhs.desc() if rep.rhs is not None else "-"
    print(f"  {rep.check} {tag}: lhs={rep.lhs} rhs={rhs} [{rep.verdict}]")

# reproducible instances from the five generator families
spec = InstanceSpec("edge-ideal", 5, 5, 2, seed=12)
J, meta = generate_instance(spec)
print("\nedge ideal instance:", spec.label(), "meta:", meta)
reports = run_all_checks(J, seed=12, instance=spec.label(), meta=meta)
verdicts = {}
for r in reports:
    verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
print("suite verdicts:", verdicts)

# a small corpus, written as JSON lines plus a TSV summary into a temporary directory
with tempfile.TemporaryDirectory() as tmp:
    jsonl = os.path.join(tmp, "demo_corpus.jsonl")
    summary = run_corpus(size=12, seed=5, jsonl_path=jsonl, tsv_path=os.path.join(tmp, "demo_corpus.tsv"))
    print("\ncorpus summary:", json.dumps(summary, sort_keys=True))
    print("first report line:")
    with open(jsonl, encoding="utf-8") as fh:
        print(" ", fh.readline().strip()[:160], "...")
