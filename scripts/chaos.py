#!/usr/bin/env python
"""Chaos-campaign CLI: recovery policies x fault regimes, SLO verdicts.

The command-line face of :mod:`repro.chaos`: build a
:class:`~repro.chaos.campaign.ChaosCampaign` from flags, run it, and
print the SLO verdict table, the fault-free contrasts, and the sha256
digest of the canonical chaos/v1 JSONL rows.  Everything is seeded and
the rows contain no wall-clock data, so the digest is identical across
runs and machines -- CI runs ``--smoke`` twice and compares.

Usage::

    PYTHONPATH=src python scripts/chaos.py --smoke
    PYTHONPATH=src python scripts/chaos.py \
        --topologies hypercube --nodes 256 --regimes cascade,partition \
        --reps 3 --seed 7 --out chaos.jsonl
    PYTHONPATH=src python scripts/chaos.py --validate chaos.jsonl
"""

from __future__ import annotations

import argparse
import sys

#: The named fault regimes the CLI can sweep (see repro.chaos.shapes).
REGIME_NAMES = ("cascade", "partition", "brownout", "linkgroup", "drop")


def build_regime(name: str):
    from repro.chaos import (
        Brownout,
        CascadingCrashes,
        FaultRegime,
        LinkGroupFailure,
        NetworkPartition,
    )

    if name == "cascade":
        return FaultRegime("cascade", shapes=(
            CascadingCrashes(seeds=2, start_us=10_000.0,
                             interval_us=15_000.0, hazard=0.5,
                             max_crashes=8),
        ))
    if name == "partition":
        return FaultRegime("partition", shapes=(
            NetworkPartition(fraction=0.25, start_us=5_000.0,
                             duration_us=40_000.0),
        ))
    if name == "brownout":
        return FaultRegime("brownout", shapes=(
            Brownout(pattern="c*", start_us=0.0, duration_us=60_000.0,
                     multiplier=6.0),
        ))
    if name == "linkgroup":
        return FaultRegime("linkgroup", shapes=(
            LinkGroupFailure(clusters=(0,), start_us=5_000.0,
                             duration_us=30_000.0),
        ))
    if name == "drop":
        return FaultRegime("drop", drop=0.02)
    raise SystemExit(
        f"unknown regime {name!r}; choose from {', '.join(REGIME_NAMES)}"
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Sweep recovery policies x fault regimes over a "
        "stochastic workload and emit chaos/v1 JSONL with SLO verdicts."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fixed small campaign (hypercube/256, none+retry policies, "
        "cascade+partition+brownout regimes, 2 reps, seed 1990) for CI",
    )
    parser.add_argument(
        "--topologies", default="hypercube",
        help="comma-separated topology names (default: hypercube)",
    )
    parser.add_argument(
        "--nodes", type=int, default=256,
        help="endpoints per fabric (default: 256)",
    )
    parser.add_argument(
        "--regimes", default="cascade,brownout",
        help=f"comma-separated regimes from: {', '.join(REGIME_NAMES)}",
    )
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument(
        "--requests", type=int, default=120,
        help="requests offered per repetition",
    )
    parser.add_argument(
        "--rate", type=float, default=2000.0,
        help="Poisson arrival rate per second",
    )
    parser.add_argument(
        "--timeout-us", type=float, default=20_000.0,
        help="request deadline; slower or never-completing = failed",
    )
    parser.add_argument(
        "--slo-p99-us", type=float, default=20_000.0,
        help="declared p99 latency objective (microseconds)",
    )
    parser.add_argument(
        "--slo-failure-rate", type=float, default=0.05,
        help="declared failure-rate objective (default: 5%%)",
    )
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the chaos/v1 JSONL rows to PATH",
    )
    parser.add_argument(
        "--validate", default=None, metavar="PATH",
        help="validate an emitted JSONL file against chaos/v1 and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if args.validate:
        from repro.exp.records import CHAOS, validate_file

        return validate_file(args.validate, CHAOS)

    from repro.chaos import ChaosCampaign, RecoveryPolicy, SLO

    if args.smoke:
        topologies = ["hypercube"]
        nodes, reps, seed = 256, 2, 1990
        requests, rate, timeout_us = 120, 2000.0, 20_000.0
        regime_names = ["cascade", "partition", "brownout"]
        slo = SLO(p99_us=20_000.0, failure_rate=0.04)
    else:
        topologies = [t for t in args.topologies.split(",") if t]
        nodes, reps, seed = args.nodes, args.reps, args.seed
        requests, rate = args.requests, args.rate
        timeout_us = args.timeout_us
        regime_names = [r for r in args.regimes.split(",") if r]
        slo = SLO(p99_us=args.slo_p99_us,
                  failure_rate=args.slo_failure_rate)

    policies = [
        RecoveryPolicy("none"),
        RecoveryPolicy("retry", retries=2, retry_timeout_us=4_000.0,
                       retry_backoff=2.0, reroute=True),
    ]
    campaign = ChaosCampaign(
        policies=policies,
        regimes=[build_regime(name) for name in regime_names],
        slo=slo,
        topologies=topologies, n_nodes=nodes,
        rate_per_s=rate, n_requests=requests, timeout_us=timeout_us,
        reps=reps, seed=seed, name="chaos-cli",
    )
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    result = campaign.run(log=log)

    report = result.slo_report()
    print(report.summary())
    contrasts = [v.contrast for v in report.chaos_verdicts
                 if v.contrast is not None]
    if contrasts:
        print()
        print("contrasts (Mann-Whitney U vs the fault-free control):")
        for contrast in contrasts:
            flag = "  *" if contrast.significant else ""
            print(f"  {contrast}{flag}")
    if args.out:
        count = result.write_jsonl(args.out)
        print(f"\nwrote {count} rows to {args.out}")
    print(f"\ndigest: {result.digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
