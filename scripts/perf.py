#!/usr/bin/env python
"""Engine-rate record for the simulator core, plus the CI smoke floor.

Wall-clock claims belong to ``perfbench/`` (``python3 perfbench/run.py``):
fresh child interpreters, a host-speed probe and alternating pairs.  This
script covers what perfbench does not: six small workloads recorded into
``BENCH_simcore.json`` and a smoke floor over nine code paths, which CI
fails on when the engine falls more than 5x below it.  Every workload
runs with the default instrumentation, as perfbench runs its own.

Workloads
---------

``pingpong_4b``
    Two nodes exchange 4-byte messages over one channel, full round
    trips (Table 2's latency anchor, engine hot path dominated by
    zero-delay event triggering).
``stream_1024b_k8``
    The Table 1 sliding-window protocol, k=8 buffers, 1024-byte
    messages (user-defined communication objects, semaphores, ISRs).
``faultstorm``
    Channel pairs exchanging messages under a seeded drop/corrupt/
    duplicate fault plan: timeout retransmission, watchdogs and
    duplicate suppression all on (the E19 storm).
``cancel_churn``
    Pure engine: watchdog timers cancelled and re-armed on every tick
    (the ``call_later().cancel()`` retransmission-timer pattern).
    Exercises the flat queue's push path, lazy cancellation and
    compaction; almost no scheduled callback ever fires.
``large_write_1mb`` / ``large_write_1mb_adaptive``
    The E20 and E23 bulk writes: 1 MB in 64 KB writes over the batched
    and the adaptive channel window.

Three more run in smoke mode only, so the floor still covers their
code paths; each entry's ``"perfbench"`` key names the perfbench
workload that owns its full-size claim.  They are
``paper_scale_70x10`` (the 70-node + 10-host machine),
``hypercube_1024`` (all-pairs traffic over the incomplete hypercube)
and ``hypercube_1024_mm`` (the same traffic on the sharded engine at
``workers=2``).

Each record holds two kinds of figure:

* deterministic ones, which must repeat exactly across reps and across
  runs of one commit: ``events``, ``sim_us`` and ``calls``, the cProfile
  call counts of one extra, profiled rep, in total and per layer (the
  layer map of ``perfbench/ledger.py``; this script's own workload code
  counts as ``workload``).  Counts resolve a change that a clock
  cannot: two commits that process the same events differ only in the
  calls it took;
* host-clock ones: ``cpu_s``, the CPU time (``time.process_time`` plus
  that of finished worker processes) of each of ``--repeat`` in-process
  reps as ``{min, median, max}``, and ``events_per_sec``, the rate of
  the fastest rep.  The minimum is the rep least disturbed by other
  work on the host.  To compare two commits, run both back to back on
  one host and read the rates against each run's own spread.

Usage::

    python scripts/perf.py --repeat 5       # full run -> BENCH_simcore.json
    python scripts/perf.py --smoke --output /tmp/b.json --check-floor
    python scripts/perf.py --validate BENCH_simcore.json
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from repro import (
    FaultPlan,
    ShardedSimulator,
    VorxSystem,
    create_fabric,
    run_all_pairs,
)
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.vorx.sliding_window import run_large_write, run_sliding_window

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
from ledger import LAYERS, layer_of  # noqa: E402  (path setup above)

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_simcore.json"
SCHEMA = "simcore-bench/v3"

#: CI floor (events/sec, smoke mode): the job fails when a workload runs
#: more than 5x slower than this.  Set well below the slowest machine's
#: smoke numbers so only a genuine engine regression trips it.
SMOKE_FLOOR_EVENTS_PER_SEC = 50_000.0
FLOOR_HEADROOM = 5.0


def cpu_time() -> float:
    """CPU seconds of this process and of its finished children (the
    sharded workload's worker processes)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _result(sim, cpu_s: float) -> dict:
    return {"events": sim.processed, "sim_us": round(sim.now, 3),
            "cpu_s": cpu_s}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def wl_pingpong(params: dict) -> dict:
    n = params["messages"]
    t0 = cpu_time()
    system = VorxSystem(n_nodes=2)

    def client(env):
        with (yield from env.channel("pp")) as ch:
            for i in range(n):
                yield from env.write(ch, 4, payload=i)
                yield from env.read(ch)

    def server(env):
        with (yield from env.channel("pp")) as ch:
            for _ in range(n):
                _, payload = yield from env.read(ch)
                yield from env.write(ch, 4, payload=payload)

    system.spawn(0, client)
    system.spawn(1, server)
    system.run()
    return _result(system.sim, cpu_time() - t0)


def wl_stream(params: dict) -> dict:
    t0 = cpu_time()
    result = run_sliding_window(
        n_buffers=8, message_bytes=1024, n_messages=params["messages"]
    )
    return _result(result.sim, cpu_time() - t0)


def wl_paper_scale(params: dict) -> dict:
    n_nodes, fanout = 70, params["fanout"]
    messages, nbytes = params["messages"], 64
    t0 = cpu_time()
    system = VorxSystem(n_nodes=n_nodes, n_workstations=10)

    def sender(env, name):
        with (yield from env.channel(name)) as ch:
            for i in range(messages):
                yield from env.write(ch, nbytes, payload=i)

    def receiver(env, name):
        with (yield from env.channel(name)) as ch:
            for _ in range(messages):
                yield from env.read(ch)

    for i in range(n_nodes):
        for j in range(1, fanout + 1):
            dst = (i + j) % n_nodes
            name = f"t{i}-{dst}"
            system.spawn(i, lambda env, name=name: sender(env, name))
            system.spawn(dst, lambda env, name=name: receiver(env, name))
    system.run()
    return _result(system.sim, cpu_time() - t0)


def wl_large_write(params: dict) -> dict:
    """1 MB bulk transfer, stop-and-wait vs the batched write path.

    Runs the same workload twice -- default costs, then
    ``CostModel.batched(window)`` -- and reports the engine statistics of
    the batched run plus both simulated throughputs.  The extra
    ``kbytes_per_sec_*`` keys ride alongside the standard measurement
    keys (``validate()`` ignores extras).
    """
    total, window = params["total_bytes"], params["window"]
    unbatched = run_large_write(
        total_bytes=total, costs=CostModel().unbatched()
    )
    t0 = cpu_time()
    batched = run_large_write(
        total_bytes=total, costs=CostModel().batched(window=window)
    )
    result = _result(batched.sim, cpu_time() - t0)
    result["kbytes_per_sec_unbatched"] = round(unbatched.kbytes_per_sec, 1)
    result["kbytes_per_sec_batched"] = round(batched.kbytes_per_sec, 1)
    result["batched_speedup_kbytes"] = round(
        batched.kbytes_per_sec / unbatched.kbytes_per_sec, 2
    )
    return result


def wl_large_write_adaptive(params: dict) -> dict:
    """1 MB bulk transfer, fixed window=k vs the AIMD adaptive window.

    Two cases, both run for fixed and adaptive models (E23):

    * *fast reader* (clean, reader consumes at full speed) -- the
      adaptive window must match or beat the fixed window's simulated
      throughput; the engine-rate measurement keys come from this
      adaptive run.
    * *slow lossy reader* (per-fragment reader compute + seeded
      drop/corrupt plan) -- the go-back-N cost of a big fixed window is
      highest here, and the adaptive window's shrink must buy a strictly
      better p95 write-completion latency (``chan.write_rtt_us``).
    """
    total, window = params["total_bytes"], params["window"]
    delay = params["reader_delay_us"]
    drop, corrupt = params["drop"], params["corrupt"]
    fixed_costs = CostModel().batched(window=window)
    adaptive_costs = CostModel().adaptive()

    def slow_plan():
        return FaultPlan(seed=1990, drop=drop, corrupt=corrupt,
                         channel_retry_timeout_us=2_000.0)

    def p95_write_rtt(result):
        histogram = result.sim.vstat.registry("node0").histogram(
            "chan.write_rtt_us"
        )
        return histogram.percentile(95)

    fixed_fast = run_large_write(total_bytes=total, costs=fixed_costs)
    t0 = cpu_time()
    adaptive_fast = run_large_write(total_bytes=total, costs=adaptive_costs)
    cpu_s = cpu_time() - t0
    fixed_slow = run_large_write(
        total_bytes=total, costs=fixed_costs,
        reader_delay_us=delay, faults=slow_plan(),
    )
    adaptive_slow = run_large_write(
        total_bytes=total, costs=adaptive_costs,
        reader_delay_us=delay, faults=slow_plan(),
    )
    node0 = adaptive_fast.sim.vstat.registry("node0")
    result = _result(adaptive_fast.sim, cpu_s)
    result["kbytes_per_sec_fixed"] = round(fixed_fast.kbytes_per_sec, 1)
    result["kbytes_per_sec_adaptive"] = round(
        adaptive_fast.kbytes_per_sec, 1
    )
    result["adaptive_speedup_kbytes"] = round(
        adaptive_fast.kbytes_per_sec / fixed_fast.kbytes_per_sec, 3
    )
    result["window_max"] = int(node0.gauge("chan.window.size").max_value)
    result["p95_write_rtt_us_fixed_slow"] = round(
        p95_write_rtt(fixed_slow), 1
    )
    result["p95_write_rtt_us_adaptive_slow"] = round(
        p95_write_rtt(adaptive_slow), 1
    )
    result["adaptive_p95_gain"] = round(
        p95_write_rtt(fixed_slow) / p95_write_rtt(adaptive_slow), 3
    )
    result["window_shrinks_slow"] = int(
        adaptive_slow.sim.vstat.registry("node0").value(
            "chan.window.shrinks"
        )
    )
    return result


def wl_faultstorm(params: dict) -> dict:
    pairs, messages, nbytes = params["pairs"], params["messages"], 256
    t0 = cpu_time()
    plan = FaultPlan(
        seed=11, drop=0.05, corrupt=0.05, duplicate=0.05,
        channel_retry_timeout_us=2_000.0,
    )
    system = VorxSystem(n_nodes=2 * pairs, faults=plan)

    def sender(env, pair):
        with (yield from env.channel(f"storm{pair}")) as ch:
            for i in range(messages):
                yield from env.write(ch, nbytes, payload=i)

    def receiver(env, pair):
        with (yield from env.channel(f"storm{pair}")) as ch:
            for _ in range(messages):
                yield from env.read(ch)

    for p in range(pairs):
        system.spawn(2 * p, lambda env, p=p: sender(env, p))
        system.spawn(2 * p + 1, lambda env, p=p: receiver(env, p))
    system.run()
    return _result(system.sim, cpu_time() - t0)


def wl_cancel_churn(params: dict) -> dict:
    """Watchdog re-arm churn: the lazy-cancellation hot path.

    ``watchdogs`` concurrent processes each arm a far-future timer,
    then repeatedly tick forward and re-arm it (cancel + fresh
    ``call_later``) -- the pattern of a channel retransmission timer
    that is reset by every acknowledgement.  The armed timers almost
    never fire, so the queue is dominated by cancelled entries and the
    engine's compaction policy decides how large it grows.
    """
    watchdogs, rearms = params["watchdogs"], params["rearms"]
    t0 = cpu_time()
    sim = Simulator()
    fired = []

    def stream(i):
        armed = sim.call_later(1e9, fired.append, i)
        for _ in range(rearms):
            yield sim.timeout(1.0)
            armed.cancel()
            armed = sim.call_later(1e9, fired.append, i)
        armed.cancel()

    for i in range(watchdogs):
        sim.process(stream(i))
    sim.run()
    if fired:  # pragma: no cover - would indicate an engine bug
        raise RuntimeError("cancelled watchdog fired")
    return _result(sim, cpu_time() - t0)


def wl_hypercube(params: dict) -> dict:
    """Bounded all-pairs traffic over the incomplete hypercube."""
    t0 = cpu_time()
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, CostModel(),
                           n_endpoints=params["endpoints"])
    run_all_pairs(fabric, size=params["message_bytes"],
                  partners=params["partners"])
    return _result(sim, cpu_time() - t0)


def wl_hypercube_mm(params: dict) -> dict:
    """The same traffic on the sharded engine, one process per worker."""
    t0 = cpu_time()
    sharded = ShardedSimulator(
        "hypercube", n_endpoints=params["endpoints"],
        shards=params["shards"], workers=params["workers"],
    )
    traffic = sharded.run_all_pairs(size=params["message_bytes"],
                                    partners=params["partners"])
    return {"events": traffic.events, "sim_us": round(traffic.duration_us, 3),
            "cpu_s": cpu_time() - t0}


WORKLOADS = {
    "pingpong_4b": {
        "fn": wl_pingpong,
        "description": "4-byte channel ping-pong, 2 nodes, full round trips",
        "full": {"messages": 2000},
        "smoke": {"messages": 40},
    },
    "stream_1024b_k8": {
        "fn": wl_stream,
        "description": "Table 1 sliding-window stream, k=8, 1024-byte messages",
        "full": {"messages": 2000},
        "smoke": {"messages": 40},
    },
    "paper_scale_70x10": {
        "fn": wl_paper_scale,
        "description": "70 nodes + 10 hosts boot, all-pairs neighbour traffic",
        "perfbench": "chanrpc_70x10",
        "smoke": {"messages": 1, "fanout": 1},
    },
    "faultstorm": {
        "fn": wl_faultstorm,
        "description": "channel pairs under seeded drop/corrupt/duplicate storm",
        "full": {"pairs": 4, "messages": 60},
        "smoke": {"pairs": 2, "messages": 4},
    },
    "cancel_churn": {
        "fn": wl_cancel_churn,
        "description": "watchdog cancel/re-arm churn on the engine queue",
        "full": {"watchdogs": 200, "rearms": 300},
        "smoke": {"watchdogs": 10, "rearms": 20},
    },
    "large_write_1mb": {
        "fn": wl_large_write,
        "description": "1 MB bulk channel transfer, stop-and-wait vs "
                       "batched window (k=8)",
        "full": {"total_bytes": 1_048_576, "window": 8},
        "smoke": {"total_bytes": 131_072, "window": 8},
    },
    "large_write_1mb_adaptive": {
        "fn": wl_large_write_adaptive,
        "description": "1 MB bulk channel transfer, fixed window (k=8) vs "
                       "AIMD adaptive window, fast and slow lossy readers",
        "full": {"total_bytes": 1_048_576, "window": 8,
                 "reader_delay_us": 120.0, "drop": 0.02, "corrupt": 0.01},
        "smoke": {"total_bytes": 131_072, "window": 8,
                  "reader_delay_us": 120.0, "drop": 0.02, "corrupt": 0.01},
    },
    "hypercube_1024": {
        "fn": wl_hypercube,
        "description": "incomplete-hypercube all-pairs traffic",
        "perfbench": "openloop_hc1024",
        "smoke": {"endpoints": 64, "partners": 2, "message_bytes": 64},
    },
    "hypercube_1024_mm": {
        "fn": wl_hypercube_mm,
        "description": "incomplete-hypercube all-pairs traffic on the "
                       "sharded engine, workers=2",
        "perfbench": "sharded_hc1024",
        "smoke": {"endpoints": 64, "partners": 2, "message_bytes": 64,
                  "shards": 4, "workers": 2},
    },
}


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
#: Extra per-workload measurement keys (beyond the engine-rate keys every
#: workload reports).  Unknown extras are still tolerated; these are the
#: ones a measurement of the named workload must carry to be useful.
_WORKLOAD_EXTRA_KEYS: dict[str, dict] = {
    "large_write_1mb_adaptive": {
        "kbytes_per_sec_fixed": (int, float),
        "kbytes_per_sec_adaptive": (int, float),
        "adaptive_speedup_kbytes": (int, float),
        "window_max": (int,),
        "p95_write_rtt_us_fixed_slow": (int, float),
        "p95_write_rtt_us_adaptive_slow": (int, float),
        "adaptive_p95_gain": (int, float),
        "window_shrinks_slow": (int,),
    },
}


def _bad(value, types=(int, float)) -> bool:
    return not isinstance(value, types) or isinstance(value, bool)


def _calls_problems(name: str, calls) -> list[str]:
    """The call counts need every ledger layer and a total that is the
    sum of the layers."""
    if not isinstance(calls, dict) or any(
        _bad(value, (int,)) or value < 0 for value in calls.values()
    ):
        return [f"{name}.calls: needs non-negative integer counts, "
                f"got {calls!r}"]
    missing = [key for key in ("total", *LAYERS) if key not in calls]
    if missing:
        return [f"{name}.calls: missing {missing}"]
    layers = sum(value for key, value in calls.items() if key != "total")
    if calls["total"] != layers or layers <= 0:
        return [f"{name}.calls: total {calls['total']} must be the "
                f"positive sum of the layers, {layers}"]
    return []


def validate(doc: dict) -> list[str]:
    """Schema check; returns a list of problems (empty == valid)."""
    problems: list[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["workloads must be a non-empty object"]
    for name, entry in workloads.items():
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry must be an object")
            continue
        if not isinstance(entry.get("description"), str):
            problems.append(f"{name}: missing description")
        expected = {"events": (int,), "sim_us": (int, float),
                    "repeat": (int,), "events_per_sec": (int, float)}
        expected.update(_WORKLOAD_EXTRA_KEYS.get(name, {}))
        for key, types in expected.items():
            if _bad(entry.get(key), types):
                problems.append(f"{name}.{key}: bad value {entry.get(key)!r}")
        for key in ("events", "events_per_sec"):
            if not _bad(entry.get(key)) and entry[key] <= 0:
                problems.append(f"{name}.{key}: must be positive")
        problems.extend(_calls_problems(name, entry.get("calls")))
        spread = entry.get("cpu_s")
        values = [spread.get(s) for s in ("min", "median", "max")] \
            if isinstance(spread, dict) else [None]
        if any(_bad(v) for v in values):
            problems.append(f"{name}.cpu_s: needs numeric min/median/max,"
                            f" got {spread!r}")
        elif not 0 < values[0] <= values[1] <= values[2]:
            problems.append(f"{name}.cpu_s: must be positive with "
                            f"min <= median <= max, got {spread!r}")
    return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def _spread(values) -> dict:
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


#: The file name this module's code objects carry: its workload
#: functions count as the ``workload`` layer, as perfbench's own do.
_THIS_FILE = _result.__code__.co_filename


def call_counts(profiler: cProfile.Profile) -> dict:
    """``{layer: calls, ..., "total": calls}`` of one profiled rep.

    Counted per code object from ``getstats()``: ``pstats`` keys its
    entries by ``(file, line, name)``, which every dataclass-generated
    ``__init__`` shares, so it keeps one of them and drops the rest.
    Built-in functions carry no code object and count as ``python``.
    """
    counts = dict.fromkeys(LAYERS, 0)
    for entry in profiler.getstats():
        filename = getattr(entry.code, "co_filename", "~")
        layer = "workload" if filename == _THIS_FILE else layer_of(filename)
        counts[layer] = counts.get(layer, 0) + entry.callcount
    counts["total"] = sum(counts.values())
    return counts


def measure(name: str, mode: str, repeat: int) -> dict:
    """Run one workload ``repeat`` timed times plus once under cProfile.

    Everything but the host clock must repeat exactly: a rep whose
    events, simulated time or extra keys differ from the first rep's is
    a determinism break, and raises.  The profiled rep runs last, after
    a collection, so the one-time costs of a first rep (imports, caches)
    and the garbage of earlier reps stay out of its counts.
    """
    spec = WORKLOADS[name]
    cpu, first = [], None
    for index in range(repeat + 1):
        profiler = None
        if index == repeat:
            gc.collect()
            profiler = cProfile.Profile()
            profiler.enable()
        rep = spec["fn"](dict(spec[mode]))
        if profiler is not None:
            profiler.disable()
            rep.pop("cpu_s")
        else:
            cpu.append(rep.pop("cpu_s"))
        if first is None:
            first = rep
        elif rep != first:
            diff = sorted(k for k in first.keys() | rep.keys()
                          if first.get(k) != rep.get(k))
            raise RuntimeError(f"{name}: reps differ in {diff}, "
                               "the workload is not deterministic")
    return {
        "description": spec["description"],
        "params": spec[mode],
        "repeat": repeat,
        **first,
        "calls": call_counts(profiler),
        "cpu_s": _spread([round(c, 6) for c in cpu]),
        "events_per_sec": round(first["events"] / min(cpu), 1),
    }


def median_rate(record: dict) -> float:
    """Events per CPU second of the median rep (the smoke floor's test)."""
    return record["events"] / record["cpu_s"]["median"]


def run_workloads(names, mode: str, repeat: int) -> dict[str, dict]:
    measured: dict[str, dict] = {}
    for name in names:
        record = measured[name] = measure(name, mode, repeat)
        cpu_s = record["cpu_s"]
        print(
            f"{name:24s} {record['events']:>9d} events "
            f"{record['calls']['total']:>10d} calls  cpu "
            f"{cpu_s['min']:>7.3f} {cpu_s['median']:>7.3f} "
            f"{cpu_s['max']:>7.3f} s (min median max)  ev/s "
            f"{record['events_per_sec']:>10,.0f}",
            file=sys.stderr,
        )
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny iteration counts (CI)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"output JSON (default {DEFAULT_OUTPUT.name}; "
                             "required in --smoke mode to avoid clobbering "
                             "committed full-run numbers)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of: "
                             + ",".join(WORKLOADS))
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed runs per workload, reported as "
                             "min/median/max, plus one profiled run "
                             "(default 3)")
    parser.add_argument("--check-floor", action="store_true",
                        help="exit non-zero if any workload's median is more "
                             f"than {FLOOR_HEADROOM:.0f}x below the events/sec "
                             "floor")
    parser.add_argument("--validate", type=Path, metavar="PATH",
                        help="validate an existing results file and exit")
    args = parser.parse_args(argv)

    if args.validate is not None:
        doc = json.loads(args.validate.read_text())
        problems = validate(doc)
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        print(f"{args.validate}: "
              + ("INVALID" if problems else "ok"), file=sys.stderr)
        return 1 if problems else 0

    mode = "smoke" if args.smoke else "full"
    output = args.output
    if output is None:
        if args.smoke:
            print("--smoke requires --output (committed BENCH_simcore.json "
                  "holds full-run numbers)", file=sys.stderr)
            return 2
        output = DEFAULT_OUTPUT

    names = [n for n in WORKLOADS if mode in WORKLOADS[n]]
    if args.workloads:
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            return 2
        refused = [n for n in names if mode not in WORKLOADS[n]]
        if refused:
            for name in refused:
                owner = WORKLOADS[name]["perfbench"]
                print(f"{name} runs in --smoke mode only; its full-size "
                      f"wall-clock claim is perfbench's {owner}: "
                      f"python3 perfbench/run.py --workload {owner}",
                      file=sys.stderr)
            return 2

    measured = run_workloads(names, mode, max(1, args.repeat))

    existing = {}
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except ValueError:
            existing = {}
    workloads = {}
    if existing.get("schema") == SCHEMA and existing.get("mode") == mode:
        workloads = existing.get("workloads", {})
    workloads.update(measured)
    doc = {"schema": SCHEMA, "mode": mode,
           "python": platform.python_version(), "workloads": workloads}
    problems = validate(doc)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}", file=sys.stderr)

    if args.check_floor:
        floor = SMOKE_FLOOR_EVENTS_PER_SEC / FLOOR_HEADROOM
        slow = {
            name: round(median_rate(m), 1)
            for name, m in measured.items()
            if median_rate(m) < floor
        }
        if slow:
            print(f"FLOOR FAIL (< {floor:,.0f} ev/s): {slow}", file=sys.stderr)
            return 1
        print(f"floor ok (all {len(measured)} medians >= {floor:,.0f} ev/s)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
