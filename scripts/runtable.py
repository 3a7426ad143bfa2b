#!/usr/bin/env python
"""Run-table CLI: sweep topologies x sizes x reps, emit seeded JSONL.

The command-line face of :mod:`repro.exp`: build a
:class:`~repro.exp.runtable.RunTable` from flags, run it, and print the
per-arm summary, the pairwise Mann-Whitney contrasts, and the sha256
digest of the canonical JSONL rows.  Everything is seeded and the rows
contain no wall-clock data, so the digest is identical across runs and
machines -- CI runs ``--smoke`` twice and compares.

Usage::

    PYTHONPATH=src python scripts/runtable.py --smoke
    PYTHONPATH=src python scripts/runtable.py \
        --topologies hypercube,mesh,hyperx --sizes 64,256 --reps 5 \
        --requests 400 --rate 2000 --seed 7 --out runtable.jsonl
    PYTHONPATH=src python scripts/runtable.py --validate runtable.jsonl
"""

from __future__ import annotations

import argparse
import sys


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Sweep topologies x sizes x reps over a stochastic "
        "workload and emit runtable/v1 JSONL."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fixed tiny matrix (hypercube,mesh x 16,32 x 3 reps, "
        "seed 1990) for CI",
    )
    parser.add_argument(
        "--topologies", default="hypercube,mesh",
        help="comma-separated topology names (default: hypercube,mesh)",
    )
    parser.add_argument(
        "--sizes", default="64",
        help="comma-separated endpoint counts (default: 64)",
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--requests", type=int, default=200,
        help="requests offered per repetition",
    )
    parser.add_argument(
        "--rate", type=float, default=2000.0,
        help="Poisson arrival rate per second",
    )
    parser.add_argument(
        "--fanout", type=int, default=2,
        help="backends fanned out to per request",
    )
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument(
        "--chaos", action="store_true",
        help="add a +chaos twin per arm (seeded packet drops)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL rows to PATH",
    )
    parser.add_argument(
        "--validate", default=None, metavar="PATH",
        help="validate an emitted JSONL file against runtable/v1 and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.validate:
        from repro.exp.records import RUNTABLE, validate_file

        return validate_file(args.validate, RUNTABLE)

    from repro.exp import RunTable
    from repro.faults import FaultPlan
    from repro.workload import PoissonArrivals, Workload

    if args.smoke:
        topologies = ["hypercube", "mesh"]
        sizes = [16, 32]
        reps, seed = 3, 1990
        requests, rate, fanout = 80, 4000.0, 2
        chaos = None
    else:
        topologies = [t for t in args.topologies.split(",") if t]
        sizes = [int(s) for s in args.sizes.split(",") if s]
        reps, seed = args.reps, args.seed
        requests, rate, fanout = args.requests, args.rate, args.fanout
        # Chaos drops raw fabric traffic, so the plan must target the
        # user-object packets the workload sends (not channel frames).
        chaos = FaultPlan(
            drop=0.05, seed=seed, kinds=("user-object",)
        ) if args.chaos else None

    workload = Workload(
        arrivals=PoissonArrivals(rate_per_s=rate),
        n_requests=requests, fanout=fanout, name="runtable",
    )
    table = RunTable(
        topologies=topologies, sizes=sizes, workload=workload,
        reps=reps, seed=seed, chaos=chaos,
    )
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    result = table.run(log=log)

    print(result.summary())
    contrasts = result.contrasts()
    if contrasts:
        print()
        print("contrasts (Mann-Whitney U on pooled request latencies):")
        for contrast in contrasts:
            flag = "  *" if contrast.significant else ""
            print(f"  {contrast}{flag}")
    omnibus = result.omnibus()
    if omnibus:
        print()
        print("omnibus (Kruskal-Wallis across arms):")
        for entry in omnibus:
            print(
                f"  n={entry['n_endpoints']}"
                f"{' +chaos' if entry['chaos'] else ''}: "
                f"H={entry['h_statistic']}, p={entry['p_value']:.4g} "
                f"({', '.join(entry['arms'])})"
            )
    if args.out:
        count = result.write_jsonl(args.out)
        print(f"\nwrote {count} rows to {args.out}")
    print(f"\ndigest: {result.digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
