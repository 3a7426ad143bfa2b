#!/usr/bin/env python3
"""The repository benchmark: five workloads, end-to-end and per layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--out F]     # one set
    python3 perfbench/run.py --trace [--seed N]       # traced set
    python3 perfbench/run.py --compare A.json B.json

With ``--workload`` the harness measures one workload: ``--trace 0``
runs it in fresh child interpreters until ``--seconds`` have passed (at
least three times) and reports the median of each host-clock metric,
scaled to a nominal host speed (see ``host_probe``); ``--trace 1``
runs it once untraced and once under cProfile and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` it runs one *set*: five rounds, each running every
workload three times in fresh children and keeping the medians, the
order rotating every round, and writes the five values plus their median
to ``--out``.  ``--trace`` alone
traces every workload into ``perfbench/results/trace.json``.
``--compare`` applies each end-to-end metric's direction and bound from
``BENCHMARK.json`` to two set files and exits 1 on any "worse".

Every run checks its own output first (see ``workloads.py``) and the
Table 2 calibration (302.7 / 996.3 µs per message) before it reports.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

ROUNDS = 5
MIN_REPS = 3
#: Host times are reported in probe units: seconds on a host where
#: ``host_probe()`` takes this long (about its median on the 2-vCPU Xeon
#: VM the benchmark was tuned on).
PROBE_NOMINAL_S = 0.7
#: The probe is itself noisy, so scaling by all of its drift overcorrects
#: (regression dilution).  Over 280 runs of the five workloads on the
#: tuning host, scaling by the speed ratio to this power gave the
#: smallest spreads (0.5 and 1 were within 1.5 points of it).
PROBE_WEIGHT = 0.75
#: A child that takes longer than this has hung; it is killed.
CHILD_TIMEOUT_S = 150.0
SELF_FRAC_TOLERANCE = 0.01


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names(spec: dict) -> list:
    return [workload["name"] for workload in spec["workloads"]]


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def host_probe() -> float:
    """Seconds a fixed pure-Python job takes right now.

    The shared host's speed drifts by up to 1.6x, within a second and in
    phases lasting minutes, and CPU time drifts with wall time, so no
    clock hides it.  The job has two parts that together track the
    workloads' slowdowns: an event loop in miniature (generators resumed
    from a heap of timestamps) and the allocation and walk of 300,000
    small dicts.  It runs no ``repro`` code, so it measures the
    host, never the commit, and it runs in the parent, so its heap never
    reaches a child's ``peak_rss_mb``.
    """
    rng = random.Random(1990)

    def process(key):
        while True:
            yield rng.random() * (1 + key % 7)

    start = time.perf_counter()
    processes = [process(key) for key in range(512)]
    heap = [(0.0, key) for key in range(512)]
    for _ in range(400_000):
        now, key = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(processes[key]), key))
    rows = [{"key": key, "value": (key, key * 2.0, str(key))}
            for key in range(300_000)]
    sum(row["value"][0] for row in rows)
    del rows
    return time.perf_counter() - start


class Spawner:
    """Runs workloads in fresh interpreters, timing the host between them.

    The probe timed after one child also serves as the probe before the
    next, so back-to-back runs pay for one probe each.
    """

    def __init__(self) -> None:
        self.probe_s: float | None = None

    def __call__(self, name: str, seed: int, *, mode: str = "",
                 profile: bool = False) -> dict:
        command = [sys.executable, str(HERE / "child.py"), name, str(seed)]
        if mode:
            command += ["--mode", mode]
        if profile:
            command.append("--profile")
        before = self.probe_s if self.probe_s is not None else host_probe()
        started = time.monotonic()
        try:
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            raise BenchError(
                f"{name}: child exited {proc.returncode}: {tail[0]}")
        self.probe_s = host_probe()
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # Medians of back-to-back runs cannot cancel a slow phase that
        # outlasts them; the probes on either side of the run can.
        result["probe_s"] = (before + self.probe_s) / 2.0
        speed = (PROBE_NOMINAL_S / result["probe_s"]) ** PROBE_WEIGHT
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] *= speed
        result["setup_s"] = (result["ready_at"] - started) * speed
        return result


def problems_of(runs: list) -> list:
    """Failed output checks, plus any digest that differs between runs."""
    problems = [
        f"{run['workload']}: {problem}"
        for run in runs for problem in run["problems"]
    ]
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        problems.append(
            f"{runs[0]['workload']}: {len(digests)} different output "
            f"digests across {len(runs)} runs of one seed"
        )
    return problems


def end_to_end_values(run: dict) -> dict:
    """One run's end-to-end metrics, host clock and simulated clock."""
    values = {key: run[key] for key in ("wall_s", "setup_s", "peak_rss_mb")}
    values.update(run["sim"])
    return values


def median_values(runs: list) -> dict:
    """Each end-to-end metric's median over back-to-back runs."""
    series = [end_to_end_values(run) for run in runs]
    return {key: statistics.median(values[key] for values in series)
            for key in series[0]}


def calibrate() -> str:
    """Check the Table 2 anchors; return the line that reports them."""
    from workloads import MODEL_TABLE2_US, PAPER_TABLE2_US, calibration

    cells = []
    for size, measured in calibration().items():
        if measured != MODEL_TABLE2_US[size]:
            raise BenchError(f"Table 2 calibration at {size} B: {measured} "
                             f"us/msg, want {MODEL_TABLE2_US[size]}")
        paper = PAPER_TABLE2_US[size]
        cells.append(f"{size} B {measured} us/msg (paper {paper:g}, "
                     f"{(measured - paper) / paper:+.1%})")
    return "calibration: Table 2 " + "; ".join(cells)


# ---------------------------------------------------------------------------
# per-workload runs
# ---------------------------------------------------------------------------
def measure_workload(spec: dict, name: str, seed: int, seconds: float) -> dict:
    """Untraced runs until ``seconds`` pass; medians of host metrics."""
    spawn = Spawner()
    runs = []
    deadline = time.monotonic() + seconds
    while len(runs) < MIN_REPS or time.monotonic() < deadline:
        runs.append(spawn(name, seed))
    return result_line(spec["end_to_end"], runs, median_values(runs),
                       problems_of(runs))


def trace_workload(spawn: Spawner, name: str,
                   seed: int) -> tuple[dict, list, list]:
    """One untraced and one traced run; returns (metrics, runs, problems).

    The sharded workload is traced in-process (``workers1``) so cProfile
    sees the shards' work; its two reference runs time the same plan on
    one engine and on in-process shards.
    """
    from ledger import LAYERS, per_layer_metrics

    base = spawn(name, seed)
    sharded = name == "sharded_hc1024"
    traced = spawn(name, seed, mode="workers1" if sharded else "",
                   profile=True)
    runs = [base, traced]
    parallel = {}
    if sharded:
        workers1 = spawn(name, seed, mode="workers1")
        unsharded = spawn(name, seed, mode="unsharded")
        runs.append(workers1)
        if unsharded["extra"]["delivered_digest"] != \
                base["extra"]["delivered_digest"]:
            unsharded["problems"].append(
                "delivered messages differ from the sharded run")
        parallel = {
            "rounds": base["extra"]["rounds"],
            "boundary_messages": base["extra"]["boundary_messages"],
            "vs_unsharded": unsharded["wall_s"] / base["wall_s"],
            "vs_workers1": workers1["wall_s"] / base["wall_s"],
        }
    # Untraced, traced and (sharded) workers=1 runs share one digest.
    problems = problems_of(runs)
    if sharded:
        problems += problems_of([unsharded])
        runs.append(unsharded)
    metrics = per_layer_metrics(traced["layers"], traced["counts"],
                                traced_wall_s=traced["wall_s"],
                                wall_s=base["wall_s"], parallel=parallel)
    frac_sum = sum(metrics[f"{layer}.self_frac"] for layer in LAYERS)
    if abs(frac_sum - 1.0) > SELF_FRAC_TOLERANCE:
        stray = sorted(set(traced["layers"]) - set(LAYERS))
        problems.append(f"{name}: self_frac sums to {frac_sum:.4f} "
                        f"(frames outside the layers: {stray})")
    return metrics, runs, problems


def result_line(declared: list, runs: list, values: dict,
                problems: list) -> dict:
    """The per-workload result object for the declared metrics."""
    return {
        "correct": not problems,
        "attempted": sum(run["ops"] for run in runs),
        "failed": sum(run["ops_failed"] for run in runs),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared
        },
        "problems": problems,
    }


def run_one_workload(spec: dict, args) -> int:
    if args.trace:
        metrics, runs, problems = trace_workload(Spawner(), args.workload,
                                                 args.seed)
        result = result_line(spec["per_layer"], runs, metrics, problems)
    else:
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        result = measure_workload(spec, args.workload, args.seed, seconds)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------
def run_set(spec: dict, seed: int, out: Path) -> int:
    """Five rounds; each measures every workload MIN_REPS times back to
    back and keeps the medians, the workload order rotating by round."""
    names = workload_names(spec)
    spawn = Spawner()
    runs: dict = {name: [] for name in names}
    rounds: dict = {name: [] for name in names}
    for round_index in range(ROUNDS):
        order = names[round_index:] + names[:round_index]
        for name in order:
            batch = [spawn(name, seed) for _ in range(MIN_REPS)]
            runs[name] += batch
            rounds[name].append(median_values(batch))
            print(f"round {round_index + 1}/{ROUNDS} {name}: "
                  f"wall {rounds[name][-1]['wall_s']:.3f} s", file=sys.stderr)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    doc = {"seed": seed, "rounds": ROUNDS, "reps_per_round": MIN_REPS,
           "workloads": {}}
    problems = []
    for name in names:
        workload_problems = problems_of(runs[name])
        problems += workload_problems
        doc["workloads"][name] = {
            "correct": not workload_problems,
            "digest": runs[name][0]["digest"],
            "ops": runs[name][0]["ops"],
            "ops_failed": runs[name][0]["ops_failed"],
            "raw_wall_s": [run["raw_wall_s"] for run in runs[name]],
            "probe_s": [run["probe_s"] for run in runs[name]],
            "metrics": {
                metric: {
                    "unit": unit,
                    "values": [values[metric] for values in rounds[name]],
                    "median": statistics.median(
                        values[metric] for values in rounds[name]),
                }
                for metric, unit in units.items()
            },
        }
    print_set(doc)
    for problem in problems:
        print(f"check failed: {problem}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if problems else 0


def print_set(doc: dict) -> None:
    for name, entry in doc["workloads"].items():
        print(f"{name}  ops={entry['ops']} ops_failed={entry['ops_failed']}")
        for metric, series in entry["metrics"].items():
            print(f"  {metric:<15} {series['median']:>16.6g} "
                  f"{series['unit']:<6} spread {spread(series['values']):.1%}")


def run_traced_set(spec: dict, seed: int) -> int:
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    doc = {"seed": seed, "workloads": {}}
    problems = []
    spawn = Spawner()
    for name in workload_names(spec):
        metrics, _, workload_problems = trace_workload(spawn, name, seed)
        problems += workload_problems
        doc["workloads"][name] = {metric: metrics[metric] for metric in units}
        print(name)
        for metric, unit in units.items():
            print(f"  {metric:<30} {metrics[metric]:>14.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    out = RESULTS / "trace.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# comparing two sets
# ---------------------------------------------------------------------------
def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(metric: dict, before: list, after: list) -> str:
    """better / worse / unchanged / unresolved for one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base) if base \
        else 0.0
    if max(spread(before), spread(after)) > metric["bound"]:
        if all(sign * a < sign * b for a in after for b in before):
            return "better"
        return "unresolved"
    if change > metric["bound"]:
        return "worse"
    if change < -metric["bound"]:
        return "better"
    return "unchanged"


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())["workloads"]
    b = json.loads(path_b.read_text())["workloads"]
    worse = False
    for name in workload_names(spec):
        if name not in a or name not in b:
            print(f"{name}: missing from one side")
            continue
        cells = []
        for metric in spec["end_to_end"]:
            label = verdict(metric, a[name]["metrics"][metric["name"]]
                            ["values"],
                            b[name]["metrics"][metric["name"]]["values"])
            worse |= label == "worse"
            cells.append(f"{metric['name']}={label}")
        digest = "same" if a[name]["digest"] == b[name]["digest"] \
            else "different"
        print(f"{name}: digest {digest}; " + " ".join(cells))
    return 1 if worse else 0


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1990)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=RESULTS / "set.json")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {SRC}")
        sys.path.insert(0, str(SRC))
        if args.workload is not None and \
                args.workload not in workload_names(spec):
            raise BenchError(f"unknown workload {args.workload!r}")
        print(calibrate(), file=sys.stderr if args.workload else sys.stdout)
        if args.workload is not None:
            return run_one_workload(spec, args)
        if args.trace:
            return run_traced_set(spec, args.seed)
        return run_set(spec, args.seed, args.out)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
