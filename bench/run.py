"""Benchmark of the bettibounds verifier on one named workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from the root of a checkout.  The inputs are fixed, seeded lists of
ideals (see bench/README.md); ``--seed`` varies them only in ways that leave
the work unchanged.  A run does whole rounds over its inputs: as many as
``--seconds`` holds at the workload's round time (ROUND_S), at least one,
so the work done never depends on the clock.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` two untraced rounds and one traced round give the per-layer
metrics, which also go to bench/out/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = os.path.join(HERE, "out")
# the time of one round on a 2-core x86-64 box in its slow phases
# (bench/README.md), so that a run stays near --seconds there
ROUND_S = {"corpus": 1.5, "dense": 3.0, "edge-betti": 2.0}
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Failure(Exception):
    pass


def start_worker(args, extra: list[str], deadline: float, procs: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its READY line; return it and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", OUTDIR] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    procs.append(proc)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise Failure(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to exit cleanly; return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise Failure("worker ran past the deadline")
    if proc.returncode != 0:
        raise Failure(f"worker exited with code {proc.returncode}")
    return out


def measure(args, procs: list) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # byte-compile first, so every timed set-up imports from the same cache
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, ["--setup-only"], deadline, procs)
        finish(proc, deadline)
        setups.append(setup)
    rounds = 2 if args.trace else max(1, int(args.seconds // ROUND_S[args.workload]))
    proc, setup = start_worker(args, ["--rounds", str(rounds), "--trace", str(args.trace)], deadline, procs)
    setups.append(setup)
    res = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    for err in res["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        values = res["layers"]
    else:
        per_op = [min(ts) for ts in zip(*res["times"])]
        values = {"setup_s": min(setups), "wall_s": sum(per_op),
                  "hardest_ideal_s": max(per_op), "peak_rss_mb": res["peak_rss_mb"]}
    # BENCHMARK.json names the metrics of each mode and their units
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(ROUND_S))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="show that every output check can fail")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "bettibounds", "__init__.py")):
        print("error: run from the root of a bettibounds checkout (src/bettibounds not found)", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")], env=child_env(),
                              timeout=DEADLINE_S).returncode
    if not args.workload:
        ap.error("--workload is required")
    # a terminated run still stops and waits for its workers (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    procs: list[subprocess.Popen] = []
    try:
        result = measure(args, procs)
    except (Failure, OSError, subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            stop(proc)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
