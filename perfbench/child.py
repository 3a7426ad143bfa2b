"""Run one workload once in a fresh interpreter; print the result as JSON.

Usage: ``python3 perfbench/child.py WORKLOAD SEED [--mode M] [--profile]``

``run.py`` starts one of these per measurement, so every run pays the
interpreter start and imports that ``setup_s`` includes and none
inherits another's heap.  The JSON line carries ``ready_at``
(``time.monotonic()`` when set-up finished; the parent subtracts its own
spawn time), the raw ``wall_s`` of the timed run, ``peak_rss_mb``, the
simulated metrics, the output digest and any failed checks.  With
``--profile`` the run is wrapped in cProfile and the line also carries
the per-layer self time, call counts and vstat counts.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """Peak resident set of this process and its finished children, MiB.

    ``ru_maxrss`` of ``RUSAGE_SELF`` would start from the parent's peak,
    which Linux carries across exec, so this process's own high-water
    mark comes from ``VmHWM`` in ``/proc/self/status``.
    """
    own_kib = 0
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own_kib = int(line.split()[1])
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def measure(name: str, seed: int, mode: str = "", profile: bool = False,
            scale: float = 1.0) -> dict:
    """Set up and run one workload in this process."""
    # Both import ``repro``, which is importable only once ``main`` (or a
    # test) has put ``src`` on the path.
    from ledger import SimCensus, layer_profile, vstat_counts
    from workloads import WORKLOADS, simulated_metrics

    options = {"mode": mode} if mode else {}
    # The census holds every simulator alive, so untraced runs go without
    # it: chaos repetitions would otherwise keep their fabrics resident.
    with SimCensus() if profile else nullcontext() as census:
        run = WORKLOADS[name](seed, scale, **options)
        ready_at = time.monotonic()
        profiler = cProfile.Profile() if profile else None
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        outcome = run()
        wall_s = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
    result = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "ready_at": ready_at,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": simulated_metrics(outcome),
        "ops": outcome.ops,
        "ops_failed": outcome.ops_failed,
        "digest": outcome.digest,
        "problems": outcome.problems,
        "extra": outcome.extra,
    }
    if profiler is not None:
        result["layers"] = layer_profile(profiler)
        result["counts"] = vstat_counts(census.sims)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--mode", default="")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(args.workload, args.seed, args.mode,
                             args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
