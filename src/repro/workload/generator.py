"""The open-loop load generator: synthetic users over a simulated fabric.

A :class:`Workload` describes traffic the way a load-testing harness
does (Locust-style): requests *arrive* from a stochastic process --
independent of how the system is coping, which is what makes the loop
open -- and each request executes a small probabilistic service-call
graph over the interconnect:

1. a request arrives and is assigned to a **front-end** endpoint;
2. the front-end fans out to ``fanout`` randomly chosen **backend**
   endpoints, one request message each (payload sizes drawn from the
   configured distributions);
3. each backend "serves" the call (an optional simulated service time)
   and replies to the front-end;
4. the request completes when the *last* reply arrives; its latency is
   ``completion - arrival``.

The same workload drives every :class:`~repro.fabric.base.FabricBackend`
-- the HPC star, hypercube, HyperX, 2D mesh, and S/NET bus -- because it
speaks only the backend contract (``send``/``recv`` generators).  All
randomness flows from one seeded RNG, and the planned request trace is
materialised *before* simulation starts, so a seed fully determines the
offered load (pin it with
:func:`~repro.workload.trace.trace_fingerprint`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.hpc.message import MessageKind, Packet
from repro.workload.arrivals import ArrivalProcess, US_PER_S
from repro.workload.stats import percentile
from repro.workload.trace import (
    RequestRecord,
    RequestTarget,
    load_trace,
    trace_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.base import FabricBackend

#: Payload tags of the generator's wire protocol.
_REQ, _REP = "wl-req", "wl-rep"


def _sampler(spec, argument: str, *, integer: bool, minimum):
    """Normalise a distribution spec into ``rng -> value``.

    Accepts a constant, a ``(lo, hi)`` uniform range, or a callable
    taking the RNG.  Validation names the offending argument, matching
    the facade convention.
    """
    if callable(spec):
        return spec
    if isinstance(spec, tuple):
        try:
            lo, hi = spec
        except ValueError:
            raise ValueError(
                f"{argument} range must be a (lo, hi) pair, got {spec!r}"
            ) from None
        if lo < minimum or hi < lo:
            raise ValueError(
                f"{argument} needs {minimum} <= lo <= hi, got {spec!r}"
            )
        if integer:
            lo, hi = int(lo), int(hi)
            return lambda rng: rng.randint(lo, hi)
        lo, hi = float(lo), float(hi)
        return lambda rng: rng.uniform(lo, hi)
    if isinstance(spec, bool) or not isinstance(spec, (int, float)):
        raise TypeError(
            f"{argument} must be a constant, a (lo, hi) range, or a "
            f"callable(rng), got {spec!r}"
        )
    if spec < minimum:
        raise ValueError(f"{argument} must be >= {minimum}, got {spec!r}")
    value = int(spec) if integer else float(spec)
    return lambda rng: value


def check_retry_knobs(owner: str, retries, retry_timeout_us,
                      retry_backoff) -> None:
    """Validate a retry policy; ``owner`` names the caller in errors.

    The one check behind both ``Workload`` and
    :class:`~repro.chaos.campaign.RecoveryPolicy`.
    """
    if not isinstance(retries, int) or isinstance(retries, bool):
        raise TypeError(
            f"{owner}(retries=...) must be an int, got {retries!r}"
        )
    if retries < 0:
        raise ValueError(f"{owner}(retries=...) must be >= 0, got {retries}")
    if retries > 0 and (retry_timeout_us is None or retry_timeout_us <= 0):
        raise ValueError(
            f"{owner}(retries=...) needs a positive retry_timeout_us, "
            f"got {retry_timeout_us!r}"
        )
    if retry_backoff < 1.0:
        raise ValueError(
            f"{owner}(retry_backoff=...) must be >= 1.0, "
            f"got {retry_backoff!r}"
        )


class _Pending:
    """In-flight request state tracked by the router hub."""

    __slots__ = ("outstanding", "arrival", "completed_at")

    def __init__(self, outstanding: int, arrival: float) -> None:
        self.outstanding = outstanding
        self.arrival = arrival
        self.completed_at: Optional[float] = None


class _RouterHub:
    """Per-fabric packet demultiplexer shared by every workload run.

    One long-lived router process per endpoint drains
    ``fabric.recv(address)`` and dispatches by payload tag: request
    messages spawn a backend serve-and-reply, reply messages resolve the
    pending request they belong to.  Installing the hub once per fabric
    (not per run) is what makes repeated runs on a *shared* fabric
    instance safe -- two runs never race each other for the same
    endpoint's receive stream.
    """

    def __init__(self, fabric: "FabricBackend") -> None:
        self.fabric = fabric
        self.pending: dict[int, _Pending] = {}
        self.covered: set[int] = set()
        #: Monotone rid namespace offset so runs sharing the fabric
        #: never collide.
        self.next_rid_base = 0
        self._completions: dict[int, object] = {}

    def ensure_routers(self, addresses: Sequence[int]) -> None:
        sim = self.fabric.sim
        for address in addresses:
            if address not in self.covered:
                self.covered.add(address)
                sim.process(self._router(address))

    def _router(self, address: int):
        fabric = self.fabric
        while True:
            packet = yield from fabric.recv(address)
            payload = packet.payload
            if not isinstance(payload, tuple) or not payload:
                continue  # not ours (a shared fabric may carry more)
            tag = payload[0]
            if tag == _REQ:
                _, rid, reply_to, reply_bytes, service_us = payload
                fabric.sim.process(
                    self._serve(address, reply_to, reply_bytes,
                                service_us, rid)
                )
            elif tag == _REP:
                entry = self.pending.get(payload[1])
                if entry is not None and entry.outstanding > 0:
                    entry.outstanding -= 1
                    if entry.outstanding == 0:
                        entry.completed_at = fabric.sim.now
                        observer = self._completions.get(payload[1])
                        if observer is not None:
                            observer(payload[1], entry)

    def _serve(self, address: int, reply_to: int, reply_bytes: int,
               service_us: float, rid: int):
        if service_us > 0:
            yield self.fabric.sim.timeout(service_us)
        packet = Packet(
            src=address, dst=reply_to, size=reply_bytes,
            kind=MessageKind.USER_OBJECT, payload=(_REP, rid),
        )
        yield from self.fabric.send(address, packet)

    def register(self, rid: int, entry: _Pending, observer) -> None:
        self.pending[rid] = entry
        self._completions[rid] = observer

    def release(self, rids) -> None:
        for rid in rids:
            self.pending.pop(rid, None)
            self._completions.pop(rid, None)


def _hub_for(fabric: "FabricBackend") -> _RouterHub:
    hub = fabric.workload_hub
    if hub is None:
        hub = fabric.workload_hub = _RouterHub(fabric)
    return hub


@dataclass(frozen=True)
class WorkloadResult:
    """Everything one workload run observed."""

    arm: str
    seed: str
    offered: int
    #: Requests completed within ``timeout_us``; a late completion
    #: counts as failed, so ``completed + failed == offered``.
    completed: int
    failed: int
    #: Completed-request latencies, sorted ascending (microseconds).
    latencies_us: tuple[float, ...]
    #: First arrival to last completion (or last arrival if nothing
    #: completed), microseconds.
    duration_us: float
    #: Offered arrival rate actually realised by the schedule.
    offered_rate_per_s: float
    #: Completions per simulated second over the run's makespan.
    throughput_per_s: float
    #: Seed-determined fingerprint of the *offered* trace.
    plan_fingerprint: str
    #: The planned requests (for replay / JSONL export).
    records: tuple[RequestRecord, ...] = field(repr=False)
    #: Completion time per rid (absent = never completed).
    completions_us: dict = field(repr=False)
    #: Retry resend events issued by the recovery policy (0 without one).
    retries: int = 0

    @property
    def failure_rate(self) -> float:
        return self.failed / self.offered if self.offered else 0.0

    def percentiles(self) -> dict[str, float]:
        """Exact p50/p95/p99 of completed-request latency (microseconds)."""
        if not self.latencies_us:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": percentile(self.latencies_us, 50.0),
            "p95": percentile(self.latencies_us, 95.0),
            "p99": percentile(self.latencies_us, 99.0),
        }

    def fingerprint(self) -> str:
        """Schedule-sensitive digest: the plan plus every completion."""
        digest = hashlib.sha256(self.plan_fingerprint.encode("utf-8"))
        for rid in sorted(self.completions_us):
            digest.update(
                f"{rid}={self.completions_us[rid]:.3f}".encode("utf-8")
            )
            digest.update(b"\n")
        return digest.hexdigest()


class Workload:
    """An open-loop workload: arrivals plus a service-call graph.

    All arguments are keyword-only.  Exactly one of ``arrivals`` (a
    synthetic stochastic plan) or ``trace`` (replay of a recorded JSONL
    trace) must be given.

    Parameters
    ----------
    arrivals:
        An :class:`~repro.workload.arrivals.ArrivalProcess` driving when
        requests show up.
    n_requests:
        How many requests the run offers (synthetic plans only).
    fanout:
        Backends contacted per request: a constant, a ``(lo, hi)``
        uniform range, or a ``callable(rng)``.
    request_bytes / reply_bytes:
        Payload size distributions for the fan-out legs (same spec
        forms as ``fanout``).
    service_us:
        Simulated per-call backend service time distribution.
    frontends:
        How many endpoints act as front-ends (the rest are backends).
        Default: one eighth of the fabric, at least 1.
    timeout_us:
        A completed request slower than this -- or one that never
        completes, e.g. under fault injection -- counts as failed.
    retries:
        Recovery policy: how many times a front-end re-issues a
        request's fan-out legs when replies are still missing after
        ``retry_timeout_us``.  0 (the default) spawns no watchdogs at
        all, so fault-free schedules stay bit-identical.
    retry_timeout_us:
        Watchdog period before the first retry (required when
        ``retries > 0``).
    retry_backoff:
        Multiplier applied to the watchdog period after each retry
        (>= 1.0; 1.0 = fixed period).
    retry_reroute:
        When True a retry redraws its backend set (seeded, per-request
        stream) instead of re-contacting the original -- possibly
        crashed -- backends.
    trace:
        A JSONL path or a list of :class:`RequestRecord` to replay
        instead of planning synthetically.
    name:
        Label used in metrics and summaries.
    """

    def __init__(
        self,
        *,
        arrivals: Optional[ArrivalProcess] = None,
        n_requests: int = 200,
        fanout=2,
        request_bytes=64,
        reply_bytes=256,
        service_us=0.0,
        frontends: Optional[int] = None,
        timeout_us: Optional[float] = None,
        retries: int = 0,
        retry_timeout_us: Optional[float] = None,
        retry_backoff: float = 1.0,
        retry_reroute: bool = False,
        trace: Union[str, Path, Sequence[RequestRecord], None] = None,
        name: str = "workload",
    ) -> None:
        if (arrivals is None) == (trace is None):
            raise ValueError(
                "Workload(...) needs exactly one of arrivals= (synthetic) "
                "or trace= (replay)"
            )
        if arrivals is not None and not isinstance(arrivals, ArrivalProcess):
            raise TypeError(
                f"Workload(arrivals=...) must be an ArrivalProcess, "
                f"got {arrivals!r}"
            )
        if not isinstance(n_requests, int) or isinstance(n_requests, bool):
            raise TypeError(
                f"Workload(n_requests=...) must be an int, got {n_requests!r}"
            )
        if n_requests < 1:
            raise ValueError(
                f"Workload(n_requests=...) must be >= 1, got {n_requests}"
            )
        if frontends is not None and (
            not isinstance(frontends, int) or frontends < 1
        ):
            raise ValueError(
                f"Workload(frontends=...) must be a positive int or None, "
                f"got {frontends!r}"
            )
        if timeout_us is not None and timeout_us <= 0:
            raise ValueError(
                f"Workload(timeout_us=...) must be positive or None, "
                f"got {timeout_us!r}"
            )
        check_retry_knobs("Workload", retries, retry_timeout_us,
                          retry_backoff)
        self.arrivals = arrivals
        self.n_requests = n_requests
        self.frontends = frontends
        self.timeout_us = None if timeout_us is None else float(timeout_us)
        self.retries = retries
        self.retry_timeout_us = (
            None if retry_timeout_us is None else float(retry_timeout_us)
        )
        self.retry_backoff = float(retry_backoff)
        self.retry_reroute = bool(retry_reroute)
        self.name = str(name)
        self._fanout = _sampler(fanout, "Workload(fanout=...)",
                                integer=True, minimum=1)
        self._request_bytes = _sampler(
            request_bytes, "Workload(request_bytes=...)",
            integer=True, minimum=1,
        )
        self._reply_bytes = _sampler(
            reply_bytes, "Workload(reply_bytes=...)", integer=True, minimum=1,
        )
        self._service_us = _sampler(
            service_us, "Workload(service_us=...)", integer=False, minimum=0,
        )
        self._trace_records: Optional[tuple[RequestRecord, ...]]
        if trace is None:
            self._trace_records = None
        elif isinstance(trace, (str, Path)):
            self._trace_records = tuple(load_trace(trace))
        else:
            self._trace_records = tuple(trace)
            if not self._trace_records:
                raise ValueError("Workload(trace=...) is empty")

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def frontend_count(self, n_endpoints: int) -> int:
        """Endpoints acting as front-ends on an ``n_endpoints`` fabric."""
        if self.frontends is not None:
            if self.frontends >= n_endpoints:
                raise ValueError(
                    f"Workload(frontends={self.frontends}) leaves no "
                    f"backends on a {n_endpoints}-endpoint fabric"
                )
            return self.frontends
        return max(1, n_endpoints // 8)

    def plan(
        self, n_endpoints: int, seed: Union[int, str]
    ) -> list[RequestRecord]:
        """Materialise the request trace this seed offers.

        A pure function of ``(workload config, n_endpoints, seed)`` --
        the simulation never perturbs it, which is what the determinism
        tests fingerprint.
        """
        if self._trace_records is not None:
            self._check_indices(self._trace_records, n_endpoints)
            return list(self._trace_records)
        if n_endpoints < 2:
            raise ValueError(
                f"a workload needs >= 2 endpoints, got {n_endpoints}"
            )
        rng = random.Random(f"repro.workload|{self.name}|{seed}")
        n_front = self.frontend_count(n_endpoints)
        backends = range(n_front, n_endpoints)
        gaps = self.arrivals.intervals(rng)
        records: list[RequestRecord] = []
        t = 0.0
        for rid in range(self.n_requests):
            t += next(gaps)
            frontend = rng.randrange(n_front)
            k = min(self._fanout(rng), len(backends))
            chosen = rng.sample(backends, k)
            targets = tuple(
                RequestTarget(
                    backend=backend,
                    request_bytes=self._request_bytes(rng),
                    reply_bytes=self._reply_bytes(rng),
                    service_us=self._service_us(rng),
                )
                for backend in chosen
            )
            records.append(
                RequestRecord(rid=rid, t_us=t, frontend=frontend,
                              targets=targets)
            )
        return records

    @staticmethod
    def _check_indices(records, n_endpoints: int) -> None:
        top = max(
            max((t.backend for t in record.targets),
                default=record.frontend)
            for record in records
        )
        top = max(top, max(record.frontend for record in records))
        if top >= n_endpoints:
            raise ValueError(
                f"trace references endpoint index {top} but the fabric "
                f"has only {n_endpoints} endpoints"
            )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(
        self,
        fabric: "FabricBackend",
        *,
        seed: Union[int, str] = 0,
        arm: str = "",
    ) -> WorkloadResult:
        """Offer this workload to ``fabric`` and run to quiescence.

        ``seed`` pins both the plan and any in-simulation randomness
        (there is none beyond the plan); ``arm`` tags the per-request
        latency histogram in the simulator's vstat registry so sweeps
        can tell their arms apart.
        """
        sim = fabric.sim
        addresses = fabric.addresses
        records = self.plan(len(addresses), seed)
        self._check_indices(records, len(addresses))
        arm = arm or self.name
        seed_label = str(seed)

        registry = sim.vstat.registry("workload")
        latency_hist = registry.histogram(
            "request.latency_us", labels=(arm,)
        )
        offered_counter = registry.counter("requests.offered", labels=(arm,))
        completed_counter = registry.counter(
            "requests.completed", labels=(arm,)
        )

        hub = _hub_for(fabric)
        hub.ensure_routers(addresses)
        rid_base = hub.next_rid_base
        hub.next_rid_base += len(records)

        start = sim.now
        completions: dict[int, float] = {}
        retry_state = {"count": 0}
        retry_counter = registry.counter("requests.retries", labels=(arm,))
        n_front = self.frontend_count(len(addresses))

        def on_complete(hub_rid: int, entry: _Pending) -> None:
            completions[hub_rid - rid_base] = entry.completed_at
            latency_hist.observe(entry.completed_at - entry.arrival)
            completed_counter.inc()

        def send_legs(record: RequestRecord, hub_rid: int,
                      frontend_addr: int, backends: Sequence[int]):
            for target, backend in zip(record.targets, backends):
                packet = Packet(
                    src=frontend_addr,
                    dst=addresses[backend],
                    size=target.request_bytes,
                    kind=MessageKind.USER_OBJECT,
                    payload=(_REQ, hub_rid, frontend_addr,
                             target.reply_bytes, target.service_us),
                )
                yield from fabric.send(frontend_addr, packet)

        def watchdog(record: RequestRecord, hub_rid: int,
                     frontend_addr: int):
            # Spawned only when retries > 0, so the zero-retry schedule
            # (and every pre-existing golden) is untouched.
            period = self.retry_timeout_us
            reroute_rng = None
            for attempt in range(self.retries):
                yield sim.timeout(period)
                entry = hub.pending.get(hub_rid)
                if entry is None or entry.outstanding <= 0:
                    return
                backends = [target.backend for target in record.targets]
                if self.retry_reroute:
                    if reroute_rng is None:
                        reroute_rng = random.Random(
                            f"repro.workload|retry|{self.name}|"
                            f"{seed_label}|{record.rid}"
                        )
                    backends = reroute_rng.sample(
                        range(n_front, len(addresses)), len(backends)
                    )
                retry_state["count"] += 1
                retry_counter.inc()
                yield from send_legs(record, hub_rid, frontend_addr,
                                     backends)
                period *= self.retry_backoff

        def request(record: RequestRecord) -> object:
            def _run():
                frontend_addr = addresses[record.frontend]
                hub_rid = rid_base + record.rid
                hub.register(
                    hub_rid,
                    _Pending(len(record.targets), sim.now),
                    on_complete,
                )
                if self.retries > 0:
                    sim.process(
                        watchdog(record, hub_rid, frontend_addr)
                    )
                yield from send_legs(
                    record, hub_rid, frontend_addr,
                    [target.backend for target in record.targets],
                )
            return _run()

        def injector():
            for record in records:
                arrival = start + record.t_us
                if arrival > sim.now:
                    yield sim.timeout(arrival - sim.now)
                offered_counter.inc()
                sim.process(request(record))

        sim.process(injector())
        sim.run()
        hub.release(range(rid_base, rid_base + len(records)))

        # A request that never completed, or completed after
        # ``timeout_us``, is failed; everything else is completed.
        latencies = []
        for record in records:
            completed_at = completions.get(record.rid)
            if completed_at is None:
                continue
            latency = completed_at - (start + record.t_us)
            if self.timeout_us is not None and latency > self.timeout_us:
                continue
            latencies.append(latency)
        latencies.sort()

        first_arrival = records[0].t_us
        last_arrival = records[-1].t_us
        last_done = max(completions.values(), default=start + last_arrival)
        duration = max(0.0, last_done - (start + first_arrival))
        span = last_arrival - first_arrival
        offered_rate = (
            (len(records) - 1) * US_PER_S / span if span > 0 else 0.0
        )
        throughput = (
            len(latencies) * US_PER_S / duration if duration > 0 else 0.0
        )
        return WorkloadResult(
            arm=arm,
            seed=seed_label,
            offered=len(records),
            completed=len(latencies),
            failed=len(records) - len(latencies),
            latencies_us=tuple(latencies),
            duration_us=duration,
            offered_rate_per_s=offered_rate,
            throughput_per_s=throughput,
            plan_fingerprint=trace_fingerprint(records),
            records=tuple(records),
            completions_us=completions,
            retries=retry_state["count"],
        )

    def describe(self) -> str:
        suffix = ""
        if self.retries > 0:
            reroute = "+reroute" if self.retry_reroute else ""
            suffix = (
                f", retry x{self.retries}@{self.retry_timeout_us:.0f}us"
                f"{reroute}"
            )
        if self._trace_records is not None:
            return f"replay({len(self._trace_records)} requests){suffix}"
        return (
            f"{self.arrivals.describe()}, {self.n_requests} requests{suffix}"
        )
