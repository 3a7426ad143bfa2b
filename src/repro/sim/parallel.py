"""Conservative-parallel execution: sharded simulators with lookahead windows.

:class:`ShardedSimulator` partitions a cluster fabric into *shards*
(contiguous cluster blocks, see :mod:`repro.fabric.partition`), builds
one independent :class:`~repro.sim.engine.Simulator` per shard, and
advances them in **conservative windows** (Chandy-Misra-Bryant, batched
per window instead of per null message):

1. Every round the orchestrator knows each shard's next pending event
   time (its LBTS contribution, from
   :meth:`~repro.sim.engine.Simulator.peek`) and holds every in-flight
   cross-shard message.  ``base(i)`` is the earliest thing shard *i*
   could possibly execute: ``min(next event, earliest held arrival)``.
2. A shard can also be affected by messages its neighbours have not
   sent yet, but never earlier than ``T(j) + lookahead(j, i)`` -- the
   boundary link's minimum latency.  The least fixpoint ``T(i) =
   min(base(i), min_j T(j) + L(j, i))`` (computed with one Dijkstra
   relaxation over the shard graph) is each shard's true lower bound,
   and ``W(i) = min_j (T(j) + L(j, i))`` is the time it may safely
   advance *to* (exclusive).
3. Held messages are delivered, every shard with work runs
   :meth:`~repro.sim.engine.Simulator.run_window` to its ``W(i)``, and
   the round's captured boundary messages flow back to the
   orchestrator.  Soundness: boundary links capture at pickup with
   ``arrival = pickup + wire >= T(j) + L``, so no delivered window ever
   overruns an uncaptured message.  Progress: the global minimum
   advances by at least the lookahead per round.

Each shard drives its part of the traffic plan with the unsharded
driver, :func:`repro.fabric.traffic.spawn_plan`, limited to the
endpoints it hosts.  ``workers=1`` runs every shard in-process (single
thread, zero IPC) -- the debugging and determinism mode; ``workers=N``
forks worker processes that each own a subset of shards and exchange
compact tuple-encoded batches over pipes (no live simulator ever
crosses a process boundary).  The round structure is computed only from shard
state, never from worker assignment, so results -- including the
schedule-sensitive :meth:`ShardedTrafficResult.fingerprint` -- are
identical for every worker count; the delivered-message
:attr:`ShardedTrafficResult.digest` additionally equals the unsharded
:func:`repro.fabric.traffic.run_all_pairs` digest for the same plan
(backend parity).

Fault plans are supported: ``ShardedSimulator(..., faults=plan)``
attaches an injector to *every* shard engine
(:meth:`~repro.faults.plan.FaultPlan.attach_shard`).  Per-site RNG
streams are keyed by ``(seed, site name)`` alone, and a cross-shard
wire is a :class:`~repro.fabric.partition.BoundaryLink` carrying its
unsharded site name and the whole link fault path, so the fault
schedule is shard-stable -- the same sites misbehave identically for
every worker count, boundary wires included -- and crash schedules
are wired on whichever shard owns the crashed endpoint (every other
shard still isolation-drops its traffic via the shared ``crash_times``
table).
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fabric.partition import (
    FabricPartition,
    ShardFabric,
    TopologySpec,
    decode_packet,
    partition_spec,
)
from repro.fabric.traffic import TrafficResult, all_pairs_plan, spawn_plan
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.costs import CostModel

_INFINITY = float("inf")


@dataclass(frozen=True)
class ShardedTrafficResult(TrafficResult):
    """Outcome of one sharded traffic drive.

    The inherited fields have :class:`~repro.fabric.traffic
    .TrafficResult`'s semantics and digest construction, so the parity
    assertion is simply ``sharded.digest == unsharded.digest``.
    """

    #: Synchronization rounds the window protocol took.
    rounds: int
    shards: int
    workers: int
    #: Engine occurrences processed, summed over every shard.
    events: int
    #: Messages that crossed a shard boundary (captures, not fibres).
    boundary_messages: int
    lookahead_us: float
    #: Faults injected, summed over every shard's injector (0 without a
    #: plan; crash isolation drops are not injections).
    injections: int = 0

    def _tail(self) -> str:
        """Folds in everything deterministic for a fixed seed and shard
        count but *excludes* ``workers``: the window protocol is
        worker-assignment-independent, and the cross-worker-count
        equality of :meth:`fingerprint` is exactly what the parallel
        determinism tests pin."""
        return (
            f"{super()._tail()}"
            f"|rounds={self.rounds}|shards={self.shards}"
            f"|events={self.events}|bm={self.boundary_messages}"
        )


# ---------------------------------------------------------------------------
# One shard's runtime (lives in whichever process owns the shard)
# ---------------------------------------------------------------------------
class _ShardRuntime:
    """A shard's simulator, fabric slice, and its part of the drive."""

    def __init__(
        self,
        spec: TopologySpec,
        partition: FabricPartition,
        shard_id: int,
        costs: "CostModel",
        plan: dict[int, list[int]],
        size: int,
        faults=None,
    ) -> None:
        self.shard_id = shard_id
        self.sim = Simulator()
        self.outbox: list = []
        self.fabric = ShardFabric(
            self.sim, costs, spec, partition, shard_id, self.outbox
        )
        if faults is not None:
            faults.attach_shard(self.fabric)
        self.sent, self.records, self.hops = spawn_plan(
            self.fabric, plan, size, local=self.fabric.attachments
        )

    def run_round(self, bound: float, incoming: list) -> tuple[float, list]:
        """Deliver ``incoming``, drain strictly below ``bound``, and
        return ``(next event time, captured boundary messages)``."""
        fabric = self.fabric
        for arrival, cid, port, data in incoming:
            fabric.inject(arrival, cid, port, decode_packet(data))
        self.sim.run_window(bound)
        out = list(self.outbox)
        self.outbox.clear()
        return self.sim.peek(), out

    def result(self) -> dict:
        injector = getattr(self.sim, "faults", None)
        return {
            "records": self.records,
            "hops": self.hops,
            "processed": self.sim.processed,
            "now": self.sim.now,
            "sent": self.sent,
            "injections": injector.injections if injector else 0,
        }


# ---------------------------------------------------------------------------
# Shard hosts
# ---------------------------------------------------------------------------
class _ShardHost:
    """The shards one process owns, built and served round by round.

    ``workers=1`` drives one host holding every shard directly; each
    worker process holds one and forwards its pipe messages to it.
    """

    def __init__(
        self, spec, partition, costs, shard_ids, plan, size, faults=None
    ) -> None:
        self.runtimes = {
            sid: _ShardRuntime(spec, partition, sid, costs, plan, size, faults)
            for sid in shard_ids
        }

    def ready(self) -> dict[int, float]:
        return {sid: rt.sim.peek() for sid, rt in self.runtimes.items()}

    def round(self, batch: dict) -> dict:
        return {
            sid: self.runtimes[sid].run_round(bound, incoming)
            for sid, (bound, incoming) in batch.items()
        }

    def finish(self) -> dict:
        return {sid: rt.result() for sid, rt in self.runtimes.items()}

    def close(self) -> None:
        pass


def _worker_main(conn, *host_args) -> None:
    """Worker-process entry: forward ``(method, *args)`` messages to a
    :class:`_ShardHost` until ``finish``.  An exception goes back as
    ``("error", traceback)`` so the orchestrator can raise it."""
    try:
        host = _ShardHost(*host_args)
        while True:
            method, *args = conn.recv()
            conn.send(("ok", getattr(host, method)(*args)))
            if method == "finish":
                return
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class _ProcessWorkers:
    """Shards spread over ``multiprocessing`` worker processes."""

    def __init__(
        self, spec, partition, costs, assignment, plan, size, faults=None
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.owner: dict[int, int] = {}
        self.conns = []
        self.procs = []
        for index, shard_ids in enumerate(assignment):
            parent_conn, child_conn = ctx.Pipe()
            # Under fork the plan reaches the worker by copy-on-write
            # memory; only the spawn fallback pickles it.
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, spec, partition, costs, shard_ids, plan,
                      size, faults),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)
            for sid in shard_ids:
                self.owner[sid] = index

    def _ask(self, messages: dict[int, tuple]) -> dict:
        """Send each worker in ``messages`` its ``(method, *args)``
        message and merge the replies.  A worker's exception stops every
        worker and is raised here with the worker's traceback."""
        for index, message in messages.items():
            self.conns[index].send(message)
        merged: dict = {}
        for index in messages:
            kind, payload = self.conns[index].recv()
            if kind == "error":
                for proc in self.procs:
                    proc.terminate()
                raise RuntimeError(f"shard worker {index} failed:\n{payload}")
            merged.update(payload)
        return merged

    def ready(self) -> dict[int, float]:
        return self._ask(
            {index: ("ready",) for index in range(len(self.conns))}
        )

    def round(self, batch: dict) -> dict:
        per_worker: dict[int, dict] = {}
        for sid, work in batch.items():
            per_worker.setdefault(self.owner[sid], {})[sid] = work
        return self._ask(
            {index: ("round", sub) for index, sub in per_worker.items()}
        )

    def finish(self) -> dict:
        return self._ask(
            {index: ("finish",) for index in range(len(self.conns))}
        )

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - teardown best effort
                proc.terminate()
                proc.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------
class ShardedSimulator:
    """Conservative-parallel traffic runs over a partitioned fabric.

    ``shards`` fixes the partition (and therefore the schedule);
    ``workers`` only chooses how the shards are executed -- results are
    identical for every worker count.  The orchestrator reads only the
    :class:`TopologySpec` (:func:`~repro.fabric.registry.topology_spec`,
    ``create_fabric``'s options) and builds no simulator and no link;
    each shard wires its own slice of the spec.
    """

    def __init__(
        self,
        topology: str = "hypercube",
        *,
        n_endpoints: int,
        shards: int,
        workers: int = 1,
        costs: Optional["CostModel"] = None,
        faults=None,
        **options,
    ) -> None:
        from repro.fabric.registry import topology_spec
        from repro.model import DEFAULT_COSTS

        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.spec = topology_spec(topology, n_endpoints, **options)
        self.partition = partition_spec(self.spec, shards, self.costs)
        self.workers = workers
        self.faults = faults
        if faults is not None:
            # Validate up front against the *full* topology: each shard
            # slice only sees its own links, so per-shard attach skips
            # validation and a bad pattern would otherwise no-op.
            faults._validate_sites(self.spec)
            known = set(self.spec.addresses)
            missing = sorted(set(faults.node_crashes) - known)
            if missing:
                raise ValueError(
                    f"FaultPlan(node_crashes=...) addresses {missing} "
                    f"match no endpoint on this {topology} fabric "
                    f"({len(known)} endpoints)"
                )

    # -- drives ---------------------------------------------------------------
    def run_all_pairs(
        self, *, size: int = 64, partners: Optional[int] = None
    ) -> ShardedTrafficResult:
        """Sharded :func:`repro.fabric.traffic.run_all_pairs`."""
        return self.run_plan(
            all_pairs_plan(self.spec.addresses, partners), size=size
        )

    def run_plan(
        self, plan: dict[int, list[int]], *, size: int = 64
    ) -> ShardedTrafficResult:
        """Sharded :func:`repro.fabric.traffic.run_plan`.

        Every plan address is checked here, once: a shard drives only
        the endpoints it hosts, so an address no shard hosts would
        otherwise be dropped without a word.
        """
        known = set(self.spec.addresses)
        for src, dsts in plan.items():
            for address in (src, *dsts):
                if address not in known:
                    raise ValueError(
                        f"no interface at address {address} on this fabric"
                    )
        shard_ids = list(range(self.partition.n_shards))
        n_workers = min(self.workers, len(shard_ids))
        args = (self.spec, self.partition, self.costs)
        if n_workers == 1:
            host = _ShardHost(*args, shard_ids, plan, size, self.faults)
        else:
            assignment = [shard_ids[w::n_workers] for w in range(n_workers)]
            host = _ProcessWorkers(
                *args, assignment, plan, size, self.faults
            )
        try:
            rounds, boundary_messages, results = self._window_loop(
                host, shard_ids
            )
        finally:
            host.close()
        return self._aggregate(rounds, boundary_messages, results)

    # -- the window protocol --------------------------------------------------
    def _window_loop(self, transport, shard_ids) -> tuple[int, int, dict]:
        partition = self.partition
        neighbours = partition.neighbours()
        lookahead = partition.pair_lookahead_map()
        next_time = transport.ready()
        #: Every in-flight cross-shard message, held here between rounds:
        #: (arrival, cluster, port, packet tuple, src shard, capture idx).
        held: dict[int, list] = {sid: [] for sid in shard_ids}
        captured = {sid: 0 for sid in shard_ids}
        rounds = 0
        boundary_messages = 0
        while True:
            base = {}
            for sid in shard_ids:
                earliest = next_time[sid]
                for entry in held[sid]:
                    if entry[0] < earliest:
                        earliest = entry[0]
                base[sid] = earliest
            if all(value == _INFINITY for value in base.values()):
                return rounds, boundary_messages, transport.finish()
            # Least fixpoint T(i) = min(base(i), min_j T(j) + L(j, i)):
            # Dijkstra relaxation over the shard graph.
            bound = dict(base)
            heap = [
                (value, sid) for sid, value in bound.items()
                if value < _INFINITY
            ]
            heapq.heapify(heap)
            while heap:
                value, sid = heapq.heappop(heap)
                if value > bound[sid]:
                    continue
                for peer in neighbours[sid]:
                    candidate = value + lookahead[(sid, peer)]
                    if candidate < bound[peer]:
                        bound[peer] = candidate
                        heapq.heappush(heap, (candidate, peer))
            batch = {}
            for sid in shard_ids:
                window = min(
                    (
                        bound[peer] + lookahead[(peer, sid)]
                        for peer in neighbours[sid]
                    ),
                    default=_INFINITY,
                )
                incoming = held[sid]
                if not incoming and not next_time[sid] < window:
                    continue  # nothing to deliver, nothing below the bound
                if incoming:
                    incoming.sort(key=lambda e: (e[0], e[4], e[5]))
                    held[sid] = []
                batch[sid] = (
                    window, [entry[:4] for entry in incoming]
                )
            if not batch:  # pragma: no cover - progress is guaranteed
                raise RuntimeError(
                    "conservative window protocol made no progress"
                )
            for sid, (next_t, out) in transport.round(batch).items():
                next_time[sid] = next_t
                for arrival, dest_shard, cluster, port, data in out:
                    held[dest_shard].append(
                        (arrival, cluster, port, data, sid, captured[sid])
                    )
                    captured[sid] += 1
                    boundary_messages += 1
            rounds += 1

    def _aggregate(
        self, rounds: int, boundary_messages: int, results: dict
    ) -> ShardedTrafficResult:
        shards = [results[sid] for sid in sorted(results)]
        return ShardedTrafficResult.summarize(
            [record for shard in shards for record in shard["records"]],
            [hops for shard in shards for hops in shard["hops"]],
            sent=sum(shard["sent"] for shard in shards),
            duration_us=max(shard["now"] for shard in shards),
            rounds=rounds,
            shards=self.partition.n_shards,
            workers=self.workers,
            events=sum(shard["processed"] for shard in shards),
            boundary_messages=boundary_messages,
            lookahead_us=self.partition.lookahead_us,
            injections=sum(shard["injections"] for shard in shards),
        )
