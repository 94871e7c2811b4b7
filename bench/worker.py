"""One benchmark process: build the inputs of a workload, say READY, run its
rounds, check the outputs, and print one JSON line with what it measured.

Started by run.py with ``PYTHONPATH=src``; the time from its start to the
READY line is the set-up time.  With ``--setup-only`` it stops after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile

import checks
import tracer
import workloads  # imports bettibounds: part of the timed set-up


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # runs the cleanup below

    os.makedirs(args.outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.outdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run(wl, args) -> dict:
    rounds = []
    for k in range(args.rounds):
        rounds.append(wl.run_round())
        if k:
            rounds[k].output = None  # the checks read round 0; the rest only count and digest
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = wl.run_round()
        finally:
            tr.uninstall()
        traced.output = None
    every = rounds + ([traced] if traced else [])
    errors = wl.check(rounds[0].output)
    errors += checks.digest_mismatch(rounds[0].digest, [r.digest for r in every], "round")
    result = {
        "times": [r.times for r in rounds],
        "attempted": sum(len(r.times) for r in every),
        "failed": sum(r.failed for r in every),
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
    }
    if traced:
        layers = tracer.layer_metrics(tr.spans)
        layers["trace.overhead_ratio"] = traced.wall / rounds[-1].wall  # the first round warms up
        result["layers"] = layers
        with open(os.path.join(args.outdir, f"trace-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "untraced_wall_s": rounds[-1].wall,
                       "traced_wall_s": traced.wall, "digest_untraced": rounds[0].digest,
                       "digest_traced": traced.digest, "spans": len(tr.spans), "metrics": layers,
                       "by_function": tracer.SpanIndex(tr.spans).summary()}, fh, indent=1, sort_keys=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
