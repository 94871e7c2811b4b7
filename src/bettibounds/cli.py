"""Command line front end.

Subcommands: gb, betti, invariants, check, corpus.  Exit codes: 0 when no
check failed, 1 when a check failed, 2 for bad input (unreadable file, parse
error, out-of-range value), 3 for any other error, with its traceback, and
for a corpus in which some instance raised (its report has verdict "error").
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .groebner import groebner_basis
from .ideal_io import parse_ideal
from .invariants import invariant_bundle
from .monomials import instance_scope
from .polyring import format_poly, order_by_name
from .resolution import format_betti, koszul_betti
from .verifier import CHECKS, FAIL, CheckContext, run_all_checks, run_corpus


def _r_sweep(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --r-sweep value {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("--r-sweep needs positive integers")
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bettibounds", description=__doc__)
    ap.add_argument("--prime", type=int, default=32003, help="coefficient field for generated instances")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r-sweep", type=_r_sweep, default="1,2,3,4",
                    help="comma-separated r values for the syzygy-fraction checks")
    ap.add_argument("--out", default=None, help="output path (JSON lines for checks, prefix for corpus)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="print the reduced Groebner basis")
    p.add_argument("file", help="ideal file ('-' for stdin)")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    p.add_argument("--faithful", action="store_true",
                   help="reduce every S-pair (no Gebauer-Moeller update), to measure the literal procedure")

    for name, help_ in (
        ("betti", "print the graded Betti table"),
        ("invariants", "print pd, depth, reg, alpha, socle degrees"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="ideal file ('-' for stdin)")

    p = sub.add_parser("check", help="run bound checks on one ideal file")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--name", choices=tuple(CHECKS))

    p = sub.add_parser("corpus", help="generate a seeded corpus and run the whole suite")
    p.add_argument("--size", type=int, default=500)
    return ap


def _read_ideal(path: str):
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    return parse_ideal(text)


def _run(args, out) -> int:
    if args.command == "gb":
        order = order_by_name(args.order)
        I, _ = _read_ideal(args.file)
        gb = groebner_basis(I, order, use_criterion=not args.faithful)
        for g in gb.elements:
            print(format_poly(g, order), file=out)
        return 0

    if args.command == "betti":
        I, _ = _read_ideal(args.file)
        print(format_betti(koszul_betti(I, seed=args.seed)), file=out)
        return 0

    if args.command == "invariants":
        I, _ = _read_ideal(args.file)
        bundle = invariant_bundle(I, seed=args.seed)
        print(json.dumps(bundle.as_dict(), sort_keys=True), file=out)
        return 0

    if args.command == "check":
        I, meta = _read_ideal(args.file)
        if args.all:
            reports = run_all_checks(I, seed=args.seed, instance=args.file, meta=meta, r_values=args.r_sweep)
        else:
            with instance_scope():
                ctx = CheckContext(I, seed=args.seed, instance=args.file)
                reports = CHECKS[args.name](ctx, meta, args.r_sweep)
            if not reports:
                raise ValueError(f"{args.name} does not apply: {args.file} does not assert its hypothesis")
        for r in reports:
            print(r.to_json(), file=out)
        return 1 if any(r.verdict == FAIL for r in reports) else 0

    # corpus
    prefix = args.out or "corpus"
    summary = run_corpus(
        size=args.size,
        seed=args.seed,
        jsonl_path=f"{prefix}.jsonl",
        tsv_path=f"{prefix}.tsv",
        r_values=args.r_sweep,
        prime=args.prime,
    )
    print(json.dumps(summary, sort_keys=True))
    if summary["error"]:
        return 3
    return 1 if summary["fail"] else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.out and args.command != "corpus":
            out = open(args.out, "w", encoding="utf-8")
        return _run(args, out)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal error: keep its traceback for the report
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
