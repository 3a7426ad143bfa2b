"""The benchmark's five workloads, each split into set-up and run.

``WORKLOADS[name](seed, scale)`` builds the modelled machine and returns a
zero-argument ``run`` callable; ``run()`` simulates to completion, checks
its own output and returns an :class:`Outcome`.  The harness times the
two halves apart (``setup_s`` and ``wall_s``).  ``scale`` shrinks the
request counts for the in-process tests; the benchmark always uses 1.

Every input comes from ``seed``: arrival schedules, fault schedules and
message sizes.  Only names the ``repro`` facade exports are used, plus
reads of ``sim.vstat`` registries and ``run_channel_stream`` for the
Table 2 calibration, so the same file measures any commit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro import (
    SLO,
    ChaosCampaign,
    CostModel,
    FaultPlan,
    FaultRegime,
    NetworkPartition,
    PoissonArrivals,
    RecoveryPolicy,
    ShardedSimulator,
    Simulator,
    VorxSystem,
    Workload,
    create_fabric,
    run_all_pairs,
    validate_chaos_row,
)

#: Table 2's channel latency, as printed in the paper and as the
#: calibrated model reproduces it (µs per message, stop-and-wait stream).
PAPER_TABLE2_US = {4: 303.0, 1024: 997.0}
MODEL_TABLE2_US = {4: 302.7, 1024: 996.3}


@dataclass
class Outcome:
    """What one workload run produced, in simulated time."""

    ops: int
    ops_failed: int
    #: Per-operation latencies, microseconds of simulated time, sorted.
    latencies_us: list
    #: Simulated span the operations took, microseconds.
    duration_us: float
    #: Payload bytes delivered once each: no headers, no retransmissions.
    payload_bytes: int
    #: Digest of the modelled output; identical on every run of a seed.
    digest: str
    #: Failed output checks; empty when the run is correct.
    problems: list = field(default_factory=list)
    #: Workload-specific results the traced run reports per layer.
    extra: dict = field(default_factory=dict)


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0..100) of sorted values."""
    if not sorted_values:
        return 0.0
    rank = (len(sorted_values) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (
        sorted_values[high] - sorted_values[low]
    ) * (rank - low)


def simulated_metrics(outcome: Outcome) -> dict:
    """The end-to-end metrics a user of the modelled machine sees."""
    seconds = outcome.duration_us / 1e6
    return {
        "lat_p50_us": percentile(outcome.latencies_us, 50.0),
        "lat_p99_us": percentile(outcome.latencies_us, 99.0),
        "ops_per_sim_s": (outcome.ops - outcome.ops_failed) / seconds,
        "goodput_kBps": outcome.payload_bytes / 1024.0 / seconds,
    }


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench|{workload}|{seed}")


def _counter_sum(sim, name: str) -> float:
    return sum(
        registry.value(name) for registry in sim.vstat.registries.values()
    )


def _workload_outcome(reps: list) -> Outcome:
    """An :class:`Outcome` pooling ``WorkloadResult`` repetitions."""
    latencies = sorted(lat for rep in reps for lat in rep.latencies_us)
    payload = 0
    for rep in reps:
        for record in rep.records:
            if record.rid in rep.completions_us:
                payload += sum(
                    t.request_bytes + t.reply_bytes for t in record.targets
                )
    offered = sum(rep.offered for rep in reps)
    completed = sum(rep.completed for rep in reps)
    failed = sum(rep.failed for rep in reps)
    problems = []
    if completed + failed != offered:
        problems.append(
            f"completed {completed} + failed {failed} != offered {offered}"
        )
    if failed:
        problems.append(f"{failed} of {offered} requests failed")
    return Outcome(
        ops=offered,
        ops_failed=failed,
        latencies_us=latencies,
        duration_us=sum(rep.duration_us for rep in reps),
        payload_bytes=payload,
        digest=_digest(*(rep.fingerprint() for rep in reps)),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# openloop_hc1024: fabric and link path under open-loop load
# ---------------------------------------------------------------------------
def openloop_hc1024(seed: int, scale: float = 1.0):
    # 200k req/s is about 65% of the measured saturation point (~300k):
    # contention shows in the tail, but the backlog does not grow.
    fabric = create_fabric(
        "hypercube", Simulator(), CostModel(), n_endpoints=1024
    )
    workload = Workload(
        arrivals=PoissonArrivals(rate_per_s=200_000.0),
        n_requests=_scaled(3000, scale),
        fanout=4, request_bytes=64, reply_bytes=512, service_us=20.0,
        name="openloop_hc1024",
    )

    def run() -> Outcome:
        return _workload_outcome([workload.run(fabric, seed=seed)])

    return run


# ---------------------------------------------------------------------------
# chanrpc_70x10: the paper's machine, channel RPCs between ring neighbours
# ---------------------------------------------------------------------------
def chanrpc_70x10(seed: int, scale: float = 1.0):
    n_nodes, clients_per_node = 70, 3
    rounds = _scaled(40, scale)
    rng = _rng("chanrpc_70x10", seed)
    system = VorxSystem(n_nodes=n_nodes, n_workstations=10)
    latencies: dict = {}
    mismatches: list = []
    expected_bytes = 0
    programs = []
    # Sizes stay at or under hpc_max_message (1060 B), so every write is
    # one fragment on the stop-and-wait path of Table 2.
    for src in range(n_nodes):
        for hop in range(1, clients_per_node + 1):
            dst = (src + hop) % n_nodes
            name = f"rpc{src}-{dst}"
            sizes = [
                (rng.randint(32, 96), rng.randint(988, 1060))
                for _ in range(rounds)
            ]
            expected_bytes += sum(req + rep for req, rep in sizes)
            programs.append(
                system.spawn(src, _rpc_client(name, sizes, latencies,
                                              mismatches))
            )
            programs.append(system.spawn(dst, _rpc_server(name, sizes)))

    def run() -> Outcome:
        system.run()
        sim = system.sim
        problems = [f"reply did not echo request: {m}" for m in mismatches]
        problems += _unfinished(programs)
        sent = _counter_sum(sim, "chan.bytes_sent")
        received = _counter_sum(sim, "chan.bytes_received")
        if not sent == received == expected_bytes:
            problems.append(
                f"channel bytes sent {sent:.0f} / received {received:.0f}"
                f" / expected {expected_bytes}"
            )
        ordered = [latencies[key] for key in sorted(latencies)]
        ops = len(programs) // 2 * rounds
        if len(ordered) != ops:
            problems.append(f"{len(ordered)} of {ops} round trips finished")
        return Outcome(
            ops=ops,
            ops_failed=ops - len(ordered) + len(mismatches),
            latencies_us=sorted(ordered),
            duration_us=sim.now,
            payload_bytes=expected_bytes,
            digest=_digest(ordered, sim.now),
            problems=problems,
        )

    return run


def _rpc_client(name, sizes, latencies, mismatches):
    def program(env):
        ch = yield from env.open(name)
        for index, (request_bytes, _) in enumerate(sizes):
            token = (name, index)
            start = env.now
            yield from env.write(ch, request_bytes, payload=token)
            _, payload = yield from env.read(ch)
            latencies[token] = env.now - start
            if payload != token:
                mismatches.append((token, payload))

    return program


def _rpc_server(name, sizes):
    def program(env):
        ch = yield from env.open(name)
        for _, reply_bytes in sizes:
            _, payload = yield from env.read(ch)
            yield from env.write(ch, reply_bytes, payload=payload)

    return program


def _unfinished(programs) -> list:
    return [
        f"{sp.uid} ended {sp.state.value}"
        for sp in programs if sp.state.value != "done"
    ]


# ---------------------------------------------------------------------------
# bulk_lossy_8x: batched channel writes under link loss
# ---------------------------------------------------------------------------
def bulk_lossy_8x(seed: int, scale: float = 1.0):
    # 4 KiB writes (4 fragments) under 4% drop and 2% corrupt put both
    # the median and the p99 write in well-populated parts of the latency
    # distribution, so they move little from one fault schedule to the
    # next; 8 KiB under half the loss put the median on the clean/lossy
    # edge (10% seed-to-seed spread).
    pairs, write_bytes, fragments_per_write = 8, 4096, 4
    writes = _scaled(256, scale)
    plan = FaultPlan(seed=seed, drop=0.04, corrupt=0.02,
                     channel_retry_timeout_us=2_000.0)
    system = VorxSystem(n_nodes=2 * pairs, faults=plan)
    latencies: dict = {}
    spans: dict = {}
    received: dict = {}
    programs = []

    def writer(env, pair):
        ch = yield from env.open(f"bulk{pair}")
        first = env.now
        for index in range(writes):
            start = env.now
            yield from env.write(ch, write_bytes, payload=(pair, index))
            latencies[(pair, index)] = env.now - start
        spans[pair] = (first, env.now)

    def reader(env, pair):
        ch = yield from env.open(f"bulk{pair}")
        count = 0
        for _ in range(writes * fragments_per_write):
            yield from env.read(ch)
            count += 1
        received[pair] = count

    for pair in range(pairs):
        programs.append(
            system.spawn(pair, lambda env, p=pair: writer(env, p))
        )
        programs.append(
            system.spawn(pairs + pair, lambda env, p=pair: reader(env, p))
        )

    def run() -> Outcome:
        system.run()
        problems = _unfinished(programs)
        want = writes * fragments_per_write
        for pair in range(pairs):
            if received.get(pair) != want:
                problems.append(
                    f"reader {pair} got {received.get(pair)} of {want}"
                    f" fragments"
                )
        ordered = [latencies[key] for key in sorted(latencies)]
        ops = pairs * writes
        # The pairs are independent streams: their mean span is steadier
        # across seeds than the slowest pair's.
        mean_span = sum(end - start for start, end in spans.values()) / pairs
        return Outcome(
            ops=ops,
            ops_failed=ops - len(ordered),
            latencies_us=sorted(ordered),
            duration_us=mean_span,
            payload_bytes=len(ordered) * write_bytes,
            digest=_digest(ordered, system.sim.now),
            problems=problems,
        )

    return run


# ---------------------------------------------------------------------------
# sharded_hc1024: the conservative-parallel engine on both host cores
# ---------------------------------------------------------------------------
SHARDED_MODES = ("workers2", "workers1", "unsharded")


def sharded_hc1024(seed: int, scale: float = 1.0, mode: str = "workers2"):
    """All-pairs traffic over 8 shards; ``mode`` picks how it executes.

    ``workers2`` is the measured run; ``workers1`` (in-process shards,
    what the traced run profiles) and ``unsharded`` (one engine) are the
    references the traced run compares it against.
    """
    if mode not in SHARDED_MODES:
        raise ValueError(f"mode must be one of {SHARDED_MODES}, got {mode!r}")
    partners = _scaled(32, scale)
    size = 62 + _rng("sharded_hc1024", seed).randrange(5)
    if mode == "unsharded":
        fabric = create_fabric(
            "hypercube", Simulator(), CostModel(), n_endpoints=1024
        )

        def drive():
            return run_all_pairs(fabric, size=size, partners=partners)
    else:
        sharded = ShardedSimulator(
            "hypercube", n_endpoints=1024, shards=8,
            workers=1 if mode == "workers1" else 2,
        )

        def drive():
            return sharded.run_all_pairs(size=size, partners=partners)

    def run() -> Outcome:
        traffic = drive()
        problems = []
        if traffic.delivered != traffic.sent:
            problems.append(
                f"delivered {traffic.delivered} of {traffic.sent} messages"
            )
        extra = {"delivered_digest": traffic.digest}
        if mode != "unsharded":
            extra.update(rounds=traffic.rounds,
                         boundary_messages=traffic.boundary_messages)
        # One operation is the whole exchange, so its latency is the
        # makespan: the model reports no per-message delivery times.
        return Outcome(
            ops=traffic.sent,
            ops_failed=traffic.sent - traffic.delivered,
            latencies_us=[traffic.duration_us],
            duration_us=traffic.duration_us,
            payload_bytes=traffic.payload_bytes,
            digest=traffic.fingerprint(),
            problems=problems,
            extra=extra,
        )

    return run


# ---------------------------------------------------------------------------
# chaos_partition_hc256: fault windows, retries and the chaos record pipeline
# ---------------------------------------------------------------------------
def chaos_partition_hc256(seed: int, scale: float = 1.0):
    # The retry schedule (sends at 4, 12, 28, 60 and 124 ms) outlasts the
    # 100 ms partition, so every request completes: the partition shows
    # as retries, injected drops and a p99 near 124 ms, never as failures.
    campaign = ChaosCampaign(
        policies=[RecoveryPolicy("retry", retries=5, retry_timeout_us=4_000.0,
                                 retry_backoff=2.0, reroute=True)],
        regimes=[FaultRegime("partition", shapes=(NetworkPartition(
            fraction=0.25, start_us=100_000.0, duration_us=100_000.0),))],
        slo=SLO(p99_us=200_000.0, failure_rate=0.0),
        topologies=("hypercube",), n_nodes=256,
        rate_per_s=2_000.0, n_requests=_scaled(1500, scale),
        request_bytes=(32, 96), reply_bytes=(128, 384),
        timeout_us=200_000.0, reps=2, seed=seed,
        name="chaos_partition_hc256",
    )

    def run() -> Outcome:
        result = campaign.run()
        result.slo_report()
        cell = result.cell(policy="retry", regime="partition").result
        outcome = _workload_outcome(cell.reps)
        outcome.digest = result.digest()
        for index, row in enumerate(result.rows()):
            try:
                validate_chaos_row(row, where=f"row {index}")
            except ValueError as error:
                outcome.problems.append(str(error))
        if cell.injected <= 0:
            outcome.problems.append("the partition injected no faults")
        return outcome

    return run


WORKLOADS = {
    "openloop_hc1024": openloop_hc1024,
    "chanrpc_70x10": chanrpc_70x10,
    "bulk_lossy_8x": bulk_lossy_8x,
    "sharded_hc1024": sharded_hc1024,
    "chaos_partition_hc256": chaos_partition_hc256,
}


def calibration() -> dict:
    """Table 2 channel stream latency, ``{size: µs per message}``."""
    from repro.vorx.sliding_window import run_channel_stream

    return {
        size: round(run_channel_stream(size).us_per_message, 1)
        for size in MODEL_TABLE2_US
    }
