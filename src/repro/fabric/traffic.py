"""Synthetic traffic drivers that run over any :class:`FabricBackend`.

Two patterns the interconnect literature leans on:

* :func:`run_all_pairs` -- every endpoint exchanges messages with every
  other (or a deterministic bounded partner set at large scale).  The
  uniform load that exposes a topology's *average* hop count and link
  sharing.
* :func:`run_hot_spot` -- every endpoint hammers one destination.  The
  adversarial load that exposes a fabric's flow-control behaviour:
  hardware credits make senders stall (HPC, Section 2's "blocked
  messages block others" tree saturation); a bus fifo rejects and
  forces software recovery (S/NET).

Both build a src -> destination-list plan and hand it to
:func:`run_plan`, which runs any such plan.  :func:`spawn_plan` is the
one receiver/sender driver behind it; the sharded engine
(:mod:`repro.sim.parallel`) calls it too, restricted to the endpoints
each shard hosts.

Every drive returns a :class:`TrafficResult` whose
:attr:`~TrafficResult.digest` covers only what the *application*
observes -- the sorted set of ``(src, dst, size, payload)`` deliveries
-- so the same traffic on two different topologies yields the same
digest (the backend-parity property).  :meth:`TrafficResult.fingerprint`
additionally folds in the schedule-sensitive outcomes (finish time, hop
counts) for determinism goldens.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Container, Optional

from repro.hpc.message import MessageKind, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.base import FabricBackend


@dataclass(frozen=True)
class TrafficResult:
    """Outcome of one traffic drive."""

    #: Messages injected / delivered whole (equal unless the drive hung).
    sent: int
    delivered: int
    #: Payload bytes delivered end-to-end.
    payload_bytes: int
    #: Simulated time from first injection to last delivery.
    duration_us: float
    #: Link traversals per delivered message (bus tenures on a bus).
    avg_hops: float
    max_hops: int
    #: sha256 over the sorted delivered ``(src, dst, size, payload)``
    #: records: topology-independent (the backend-parity digest).
    digest: str

    @classmethod
    def summarize(cls, records: list, hops: list[int], **fields):
        """Build a result from the receivers' delivery records and hop
        counts; ``fields`` gives ``sent``, ``duration_us`` and any
        subclass fields."""
        delivered = len(records)
        return cls(
            delivered=delivered,
            payload_bytes=sum(record[2] for record in records),
            avg_hops=(sum(hops) / delivered) if delivered else 0.0,
            max_hops=max(hops, default=0),
            digest=_digest(records),
            **fields,
        )

    def _tail(self) -> str:
        """The schedule-sensitive fields :meth:`fingerprint` folds in."""
        return (
            f"|t={self.duration_us!r}|hops={self.avg_hops!r}"
            f"|max={self.max_hops}|n={self.delivered}"
        )

    def fingerprint(self) -> str:
        """Schedule-sensitive digest for determinism goldens."""
        return hashlib.sha256(
            (self.digest + self._tail()).encode("utf-8")
        ).hexdigest()


def _partner_offsets(n: int, partners: int) -> list[int]:
    """Deterministic destination offsets spread across the address ring.

    Spacing the offsets evenly (rather than taking ring neighbours)
    makes the bounded drive cross many dimensions of a hypercube/mesh
    instead of measuring only nearest-neighbour routes.
    """
    if partners >= n - 1:
        return list(range(1, n))
    step = max(1, (n - 1) // partners)
    offsets = []
    for j in range(partners):
        offset = (1 + j * step) % n
        if offset and offset not in offsets:
            offsets.append(offset)
    return offsets


def _digest(records: list) -> str:
    digest = hashlib.sha256()
    for record in sorted(records, key=repr):
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def all_pairs_plan(
    addresses: list[int], partners: Optional[int] = None
) -> dict[int, list[int]]:
    """Each address sends to ``partners`` others spread around the ring
    (every other address when ``None``)."""
    n = len(addresses)
    if n < 2:
        raise ValueError(f"all-pairs needs at least 2 endpoints, got {n}")
    offsets = _partner_offsets(n, partners if partners is not None else n - 1)
    return {
        addresses[i]: [addresses[(i + offset) % n] for offset in offsets]
        for i in range(n)
    }


def hot_spot_plan(
    addresses: list[int], messages_per_sender: int, hot: Optional[int]
) -> dict[int, list[int]]:
    """Every address but ``hot`` (default: the lowest) sends it
    ``messages_per_sender`` messages."""
    if len(addresses) < 2:
        raise ValueError(
            f"hot-spot needs at least 2 endpoints, got {len(addresses)}"
        )
    hot_address = addresses[0] if hot is None else hot
    if hot_address not in addresses:
        raise ValueError(f"hot endpoint {hot_address} is not on the fabric")
    return {
        address: [hot_address] * messages_per_sender
        for address in addresses
        if address != hot_address
    }


def spawn_plan(
    backend: "FabricBackend",
    plan: dict[int, list[int]],
    size: int,
    local: Optional[Container[int]] = None,
) -> tuple[int, list, list[int]]:
    """Spawn the receivers and senders of ``plan`` on ``backend.sim``.

    ``local`` restricts the drive to the endpoints this engine hosts (a
    shard's attachments); ``None`` means every endpoint.  Returns
    ``(sent, records, hops)``: the messages injected here, and the lists
    the receivers fill with ``(src, dst, size, payload)`` records and
    hop counts as the simulation runs.
    """
    sim = backend.sim
    expected: dict[int, int] = {}
    for dsts in plan.values():
        for dst in dsts:
            if local is None or dst in local:
                expected[dst] = expected.get(dst, 0) + 1
    records: list = []
    hops: list[int] = []

    def receiver(address: int, count: int):
        for _ in range(count):
            packet = yield from backend.recv(address)
            records.append((packet.src, packet.dst, packet.size, packet.payload))
            hops.append(packet.hops)

    def sender(src: int, dsts: list[int]):
        for dst in dsts:
            packet = Packet(
                src=src, dst=dst, size=size, kind=MessageKind.USER_OBJECT,
                payload=f"{src}->{dst}",
            )
            yield from backend.send(src, packet)

    # Receivers first, then senders, both in address order: the spawn
    # order is part of the deterministic schedule the goldens pin.
    for address, count in sorted(expected.items()):
        sim.process(receiver(address, count))
    sent = 0
    for src in sorted(plan):
        dsts = plan[src]
        if dsts and (local is None or src in local):
            sim.process(sender(src, dsts))
            sent += len(dsts)
    return sent, records, hops


def run_plan(
    backend: "FabricBackend",
    plan: dict[int, list[int]],
    size: int = 64,
) -> TrafficResult:
    """Run one traffic plan (src -> destination list) to completion."""
    sim = backend.sim
    sent, records, hops = spawn_plan(backend, plan, size)
    start = sim.now
    sim.run()
    return TrafficResult.summarize(
        records, hops, sent=sent, duration_us=sim.now - start
    )


def run_all_pairs(
    backend: "FabricBackend",
    *,
    size: int = 64,
    partners: Optional[int] = None,
) -> TrafficResult:
    """All-pairs traffic: every endpoint sends to every other.

    ``partners`` bounds each sender's destination set (deterministically
    spread around the address ring) so the drive stays tractable at
    1000+ endpoints, where full all-pairs would be ~10^6 messages.
    """
    return run_plan(backend, all_pairs_plan(backend.addresses, partners), size)


def run_hot_spot(
    backend: "FabricBackend",
    *,
    size: int = 64,
    messages_per_sender: int = 4,
    hot: Optional[int] = None,
) -> TrafficResult:
    """Hot-spot traffic: every endpoint sends to one destination."""
    plan = hot_spot_plan(backend.addresses, messages_per_sender, hot)
    return run_plan(backend, plan, size)
