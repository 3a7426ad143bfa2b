"""Topology partitioning for conservative-parallel execution.

:mod:`repro.sim.parallel` runs one :class:`~repro.sim.engine.Simulator`
per *shard* -- a block of clusters plus the endpoints attached to them
-- and synchronizes shards only at cross-shard link boundaries.  This
module supplies everything below the synchronization protocol:

* :func:`partition_spec` / :func:`partition_fabric` -- assign the
  clusters of a :class:`~repro.hpc.topology.TopologySpec` (what every
  cluster builder returns; re-exported here) to contiguous balanced
  blocks, so hypercube shards are subcubes, collect the cross-shard
  *boundary links*, and derive the conservative **lookahead**: the
  minimum latency of a boundary crossing, ``hpc_wire_time(0) +
  hpc_hop_latency``.  The orchestrator reads only the spec.
* :class:`ShardFabric` -- :meth:`~repro.hpc.topology.Fabric.wire`
  restricted to one shard, with every cross-shard wire a
  :class:`BoundaryLink`.  Workers receive the spec and wire their own
  slice, so no live simulator object crosses a process boundary.  The
  one route builder, :meth:`~repro.hpc.topology.Fabric.build_routes`,
  searches the *full* cluster graph: routes and hop counts are those
  of the unsharded fabric.
* :class:`BoundaryLink` -- a :class:`~repro.hpc.link.Link` whose far
  end lives on another shard: the same queue, counters, fault path and
  site name as the unsharded wire, but it *captures* the outbound
  message into the shard's outbox at pickup time, stamped with its
  arrival time ``pickup + wire``.  Capturing at pickup is what makes
  the lookahead sound: every message a shard emits while running a
  window starting at ``T`` arrives no earlier than ``T + lookahead``,
  so a neighbour may safely advance that far.

The one relaxation versus the unsharded fabric: a boundary link does
not wait for a *remote* buffer credit before transmitting -- the
receiving shard reserves the buffer on arrival instead
(:meth:`ShardFabric.inject`, one callback per crossing).  Delivered
traffic is identical (the backend-parity digest matches the
single-simulator run) and faults on boundary wires fire as on the
unsharded wires; only the timing skews, boundedly, which is why
schedule goldens for sharded runs are pinned per shard count rather
than shared with the unsharded golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.hpc.link import Link
from repro.hpc.message import MessageKind, Packet
from repro.hpc.topology import Fabric, TopologySpec
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FabricPartition:
    """A cluster-to-shard assignment plus its boundary structure."""

    n_shards: int
    #: Shard id per cluster id.
    shard_of_cluster: tuple[int, ...]
    #: Directed cross-shard wires ``(cid, port, peer_cid, peer_port)``;
    #: contains both directions of every boundary fibre.
    boundary_links: frozenset[tuple[int, int, int, int]]
    #: Minimum latency between neighbouring shard pairs, as sorted
    #: ``(shard_a, shard_b, latency_us)`` triples with ``a < b``.
    pair_lookahead: tuple[tuple[int, int, float], ...]
    #: Global minimum cross-shard latency (``inf`` with no boundary).
    lookahead_us: float

    def shard_of_address(self, spec: TopologySpec) -> dict[int, int]:
        """Endpoint address -> owning shard."""
        return {
            address: self.shard_of_cluster[cid]
            for address, cid, _port, _name in spec.attachments
        }

    def neighbours(self) -> dict[int, list[int]]:
        """Shard -> sorted neighbouring shards (boundary-adjacent)."""
        out: dict[int, set[int]] = {s: set() for s in range(self.n_shards)}
        for a, b, _latency in self.pair_lookahead:
            out[a].add(b)
            out[b].add(a)
        return {s: sorted(peers) for s, peers in out.items()}

    def pair_lookahead_map(self) -> dict[tuple[int, int], float]:
        """``(shard_a, shard_b)`` (both orders) -> minimum latency."""
        out: dict[tuple[int, int], float] = {}
        for a, b, latency in self.pair_lookahead:
            out[(a, b)] = latency
            out[(b, a)] = latency
        return out


def _link_latency_us(costs: "CostModel") -> float:
    """Minimum in-flight latency of one link traversal.

    A boundary message captured at pickup arrives ``wire_time(size) +
    hop_latency`` later; the minimum over sizes is at ``size == 0``.
    """
    return costs.hpc_wire_time(0) + costs.hpc_hop_latency


def partition_spec(
    spec: TopologySpec, n_shards: int, costs: "CostModel"
) -> FabricPartition:
    """Assign clusters to ``n_shards`` contiguous balanced blocks.

    Contiguous blocks keep hypercube shards as subcubes (dimension-
    ordered routing then crosses shard boundaries late) and mesh/HyperX
    shards as lattice bands.  Raises ``ValueError`` when ``n_shards``
    exceeds the cluster count -- a shard must own at least one cluster.
    """
    n = spec.n_clusters
    if not 1 <= n_shards <= n:
        raise ValueError(
            f"need 1..{n} shards for {n} clusters, got {n_shards}"
        )
    base, extra = divmod(n, n_shards)
    shard_of: list[int] = []
    for shard in range(n_shards):
        shard_of.extend([shard] * (base + (1 if shard < extra else 0)))

    latency = _link_latency_us(costs)
    boundary: set[tuple[int, int, int, int]] = set()
    pair_min: dict[tuple[int, int], float] = {}
    for a, a_port, b, b_port in spec.links:
        sa, sb = shard_of[a], shard_of[b]
        if sa == sb:
            continue
        boundary.add((a, a_port, b, b_port))
        boundary.add((b, b_port, a, a_port))
        key = (min(sa, sb), max(sa, sb))
        if latency < pair_min.get(key, float("inf")):
            pair_min[key] = latency
    return FabricPartition(
        n_shards=n_shards,
        shard_of_cluster=tuple(shard_of),
        boundary_links=frozenset(boundary),
        pair_lookahead=tuple(
            (a, b, pair_min[(a, b)]) for a, b in sorted(pair_min)
        ),
        lookahead_us=min(pair_min.values(), default=float("inf")),
    )


def boundary_cut_sites(fabric: Fabric, clusters) -> list[str]:
    """Directed link-site names crossing the boundary of a cluster block.

    ``clusters`` is any iterable of cluster ids; the result names both
    directions of every cluster-to-cluster wire with exactly one end in
    the block -- the set a :class:`~repro.faults.plan.FaultPlan` site
    window must drop to partition the block off the fabric.  Endpoint
    entry/exit links are untouched (they never cross cluster
    boundaries), so traffic *within* the block still flows.
    """
    block = set(clusters)
    unknown = block - set(range(len(fabric.clusters)))
    if unknown:
        raise ValueError(
            f"boundary_cut_sites: cluster ids {sorted(unknown)} do not "
            f"exist on this {len(fabric.clusters)}-cluster fabric"
        )
    sites = []
    for a, a_port, b, b_port in fabric.cluster_links:
        if (a in block) != (b in block):
            sites.append(f"c{a}.p{a_port}->c{b}")
            sites.append(f"c{b}.p{b_port}->c{a}")
    return sorted(sites)


def partition_fabric(fabric: Fabric, n_shards: int) -> FabricPartition:
    """Partition a built fabric (see :func:`partition_spec`)."""
    if not isinstance(fabric, Fabric):
        raise ValueError(
            f"sharding needs a cluster fabric, got "
            f"{type(fabric).__name__} ({fabric.topology_name}); the "
            f"bus backends have no cluster structure to partition"
        )
    return partition_spec(TopologySpec.of(fabric), n_shards, fabric.costs)


# ---------------------------------------------------------------------------
# Packet codec: compact tuples across the process boundary
# ---------------------------------------------------------------------------
def encode_packet(packet: Packet, hops: int) -> tuple:
    """Flatten a packet to a picklable tuple (``seq`` excluded).

    ``seq`` is a per-process monotone id used only for tracing; it is
    regenerated on decode so it never has to be coordinated across
    workers.  ``payload`` must itself be picklable -- true for every
    traffic driver and workload in the repository.
    """
    return (
        packet.src, packet.dst, packet.size, packet.kind.value,
        packet.channel, packet.src_channel, packet.payload, packet.xfer,
        packet.batched, packet.corrupted, hops, packet.sent_at,
    )


def decode_packet(data: tuple) -> Packet:
    """Rebuild a packet captured by :func:`encode_packet`."""
    packet = Packet(
        src=data[0], dst=data[1], size=data[2],
        kind=MessageKind(data[3]), channel=data[4], src_channel=data[5],
        payload=data[6], xfer=data[7], batched=data[8], corrupted=data[9],
    )
    packet.hops = data[10]
    packet.sent_at = data[11]
    return packet


# ---------------------------------------------------------------------------
# Boundary links
# ---------------------------------------------------------------------------
class BoundaryLink(Link):
    """One direction of a fibre whose far end lives on another shard.

    It is a :class:`~repro.hpc.link.Link` -- the same request queue,
    counters, fault path (NIC stall, crash-drop, drop, corrupt, delay,
    duplicate, brownout) and site name ``c{a}.p{port}->c{b}`` as the
    unsharded wire -- except in three things:

    * no remote credit is reserved: the receiving shard's
      :meth:`ShardFabric.inject` performs the ``reserve``/``deliver``
      pair on arrival;
    * the message is **captured at pickup**: the moment the wire starts
      serializing, ``(arrival, *dest, packet)`` is appended to the
      shard's outbox with ``arrival = now + wire``.  Since ``wire >=
      lookahead`` and every fault only makes a pickup or an arrival
      later, every message emitted inside a window starting at ``T``
      arrives at ``>= T + lookahead`` -- the invariant the conservative
      window protocol rests on;
    * nothing is delivered locally.
    """

    __slots__ = ("dest", "outbox")

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        dest: tuple[int, int, int],
        outbox: list,
        name: str,
    ) -> None:
        super().__init__(sim, costs, None, name)
        #: ``(shard, cluster, port)`` of the input this wire feeds.
        self.dest = dest
        self.outbox = outbox

    def _reserve(self, _event: Optional[Event] = None) -> None:
        """No credit to wait for: put the message on the wire and capture
        it, stamped with its arrival, for the receiving shard."""
        self._stall_from = self.sim._now
        self._serialize()
        packet = self._packet
        self.outbox.append(
            (self.sim._now + self._wire,) + self.dest
            + (encode_packet(packet, packet.hops + 1),)
        )

    def _deliver(self, packet: Packet) -> None:
        """Delivered by the receiving shard, not here."""


# ---------------------------------------------------------------------------
# Shard-local fabric slice
# ---------------------------------------------------------------------------
class ShardFabric(Fabric):
    """The shard-local slice of a partitioned fabric.

    :meth:`~repro.hpc.topology.Fabric.wire` restricted to one shard:
    ``clusters`` keeps the full fabric's indexing with ``None`` for
    remote clusters, and only local clusters, endpoints and links are
    built, each cross-shard wire as a :class:`BoundaryLink`.  Routing
    tables cover *every* fabric address (computed over the full
    :attr:`spec`), so a local cluster forwards traffic for a remote
    destination toward the correct boundary port.
    """

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        spec: TopologySpec,
        partition: FabricPartition,
        shard_id: int,
        outbox: list,
    ) -> None:
        super().__init__(sim, costs)
        if not 0 <= shard_id < partition.n_shards:
            raise ValueError(
                f"shard {shard_id} out of range 0..{partition.n_shards - 1}"
            )
        self.spec = spec
        self.partition = partition
        self.shard_id = shard_id
        self.outbox = outbox
        self.local_clusters = [
            cid for cid, shard in enumerate(partition.shard_of_cluster)
            if shard == shard_id
        ]
        self.boundary_out: list[BoundaryLink] = []
        self.wire(spec)

    def _owns(self, cid: int) -> bool:
        return self.partition.shard_of_cluster[cid] == self.shard_id

    def _wire_boundary(
        self, cid: int, port: int, peer: int, peer_port: int
    ) -> None:
        link = BoundaryLink(
            self.sim, self.costs,
            (self.partition.shard_of_cluster[peer], peer, peer_port),
            self.outbox, name=f"c{cid}.p{port}->c{peer}",
        )
        cluster = self.clusters[cid]
        self._check_port_free(cluster, port)
        cluster.out_links[port] = link  # type: ignore[assignment]
        self._cluster_edges[(cid, port)] = peer
        self.boundary_out.append(link)

    # -- cross-shard arrivals ------------------------------------------------
    def inject(
        self, arrival: float, cid: int, port: int, packet: Packet
    ) -> None:
        """Deliver a boundary message into a local cluster input.

        One callback at ``arrival`` claims a buffer credit on the port
        and delivers once it is granted (FIFO), so in-shard flow control
        survives the shard boundary.  The arrival timeout is the one
        event a crossing adds to the unsharded schedule: the boundary
        link saved its credit event, the receiving port pays it here.
        """
        binput = self.clusters[cid].inputs[port]

        def arrive(_event: Event) -> None:
            binput.reserve().callbacks.append(
                lambda _granted: binput.deliver(packet)
            )

        self.sim.timeout(arrival - self.sim.now).callbacks.append(arrive)

    def stats(self) -> dict:
        local = [self.clusters[cid] for cid in self.local_clusters]
        return {
            "topology": self.topology_name,
            "shard": self.shard_id,
            "shards": self.partition.n_shards,
            "clusters": len(local),
            "endpoints": len(self.attachments),
            "boundary_links": len(self.boundary_out),
            "messages_forwarded": sum(c.messages_forwarded for c in local),
            "port_utilisation": {
                c.cluster_id: len(c.wired_ports()) for c in local
            },
        }

    def route_hops(self, src: int, dst: int) -> int:
        raise NotImplementedError(
            "route_hops needs the full fabric; shard slices only carry "
            "local clusters (use the parent fabric or packet.hops)"
        )


def build_shard_fabric(
    sim: "Simulator",
    costs: "CostModel",
    spec: TopologySpec,
    partition: FabricPartition,
    shard_id: int,
    outbox: Optional[list] = None,
) -> ShardFabric:
    """Build one shard's fabric slice (outbox defaults to a fresh list)."""
    return ShardFabric(
        sim, costs, spec, partition, shard_id,
        outbox if outbox is not None else [],
    )
