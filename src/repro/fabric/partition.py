"""Topology partitioning for conservative-parallel execution.

:mod:`repro.sim.parallel` runs one :class:`~repro.sim.engine.Simulator`
per *shard* -- a block of clusters plus the endpoints attached to them
-- and synchronizes shards only at cross-shard link boundaries.  This
module supplies everything below the synchronization protocol:

* :class:`TopologySpec` -- a picklable, simulator-free description of a
  wired :class:`~repro.hpc.topology.Fabric` (cluster port counts, the
  exact cluster-to-cluster wire list, endpoint attachments).  Worker
  processes receive the spec and rebuild only their own slice; no live
  simulator objects ever cross a process boundary.
* :func:`partition_spec` / :func:`partition_fabric` -- assign clusters
  to shards (contiguous balanced blocks, so hypercube shards are
  subcubes), collect the cross-shard *boundary links*, and derive the
  conservative **lookahead**: the minimum latency any message needs to
  cross a boundary, ``hpc_wire_time(0) + hpc_hop_latency``.
* :class:`ShardFabric` -- a :class:`~repro.hpc.topology.Fabric` holding
  only the local clusters and endpoints, with every cross-shard wire
  replaced by a :class:`BoundaryLink`.  Routing tables are computed
  with the same BFS (:func:`~repro.hpc.topology.first_hop_ports`) over
  the *full* cluster graph, so routes -- and therefore hop counts --
  are identical to the unsharded fabric.
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

from repro.hpc.cluster import Cluster
from repro.hpc.link import Link
from repro.hpc.message import MessageKind, Packet
from repro.hpc.nic import HPCInterface
from repro.hpc.topology import Fabric, first_hop_ports
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator


# ---------------------------------------------------------------------------
# Picklable topology description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A simulator-free description of a wired cluster fabric."""

    topology_name: str
    #: Port count per cluster, indexed by cluster id.
    cluster_ports: tuple[int, ...]
    #: Every cluster-to-cluster wire as ``(a, a_port, b, b_port)``.
    links: tuple[tuple[int, int, int, int], ...]
    #: Every endpoint as ``(address, cluster, port, name)``.
    attachments: tuple[tuple[int, int, int, str], ...]

    @classmethod
    def of(cls, fabric: Fabric) -> "TopologySpec":
        """Extract the spec from a built :class:`Fabric`."""
        return cls(
            topology_name=fabric.topology_name,
            cluster_ports=tuple(c.n_ports for c in fabric.clusters),
            links=tuple(fabric.cluster_links),
            attachments=tuple(
                (address, cid, port, fabric.interfaces[address].name)
                for address, (cid, port) in sorted(fabric.attachments.items())
            ),
        )

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ports)

    @property
    def addresses(self) -> list[int]:
        """Sorted endpoint addresses (the full fabric's address list)."""
        return sorted(entry[0] for entry in self.attachments)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """``adjacency[c] = [(port, neighbour)]`` in port order.

        Built exactly like :meth:`Fabric.build_routes` builds its
        adjacency (directed entries sorted by ``(cluster, port)``), so
        :func:`~repro.hpc.topology.first_hop_ports` over this structure
        reproduces the unsharded routes bit-for-bit.
        """
        directed: list[tuple[int, int, int]] = []
        for a, a_port, b, b_port in self.links:
            directed.append((a, a_port, b))
            directed.append((b, b_port, a))
        adjacency: list[list[tuple[int, int]]] = [
            [] for _ in range(self.n_clusters)
        ]
        for cid, port, neighbour in sorted(directed):
            adjacency[cid].append((port, neighbour))
        return adjacency


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

    ``clusters`` keeps the full fabric's indexing with ``None`` for
    remote clusters; only local clusters, endpoints, and links are
    built.  Routing tables cover *every* fabric address (computed over
    the full cluster graph), so a local cluster forwards traffic for a
    remote destination toward the correct boundary port.
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
        self.topology_name = spec.topology_name
        self.spec = spec
        self.partition = partition
        self.shard_id = shard_id
        self.outbox = outbox
        shard_of = partition.shard_of_cluster
        self.local_clusters = [
            cid for cid in range(spec.n_clusters) if shard_of[cid] == shard_id
        ]
        self.clusters = [None] * spec.n_clusters  # type: ignore[list-item]
        for cid in self.local_clusters:
            self.clusters[cid] = Cluster(
                sim, costs, cid, spec.cluster_ports[cid]
            )
        self.boundary_out: list[BoundaryLink] = []
        for a, a_port, b, b_port in spec.links:
            sa, sb = shard_of[a], shard_of[b]
            if sa == shard_id and sb == shard_id:
                self.connect_clusters(
                    self.clusters[a], a_port, self.clusters[b], b_port
                )
            elif sa == shard_id:
                self._wire_boundary(a, a_port, b, b_port, sb)
            elif sb == shard_id:
                self._wire_boundary(b, b_port, a, a_port, sa)
        for address, cid, port, name in spec.attachments:
            if shard_of[cid] != shard_id:
                continue
            iface = HPCInterface(sim, costs, address, name)
            self.interfaces[address] = iface
            self.attach(self.clusters[cid], port, iface)
        self._next_address = 1 + max(
            (entry[0] for entry in spec.attachments), default=-1
        )
        self._build_global_routes()

    def _wire_boundary(
        self, cid: int, port: int, peer: int, peer_port: int, peer_shard: int
    ) -> None:
        link = BoundaryLink(
            self.sim, self.costs, (peer_shard, peer, peer_port), self.outbox,
            name=f"c{cid}.p{port}->c{peer}",
        )
        cluster = self.clusters[cid]
        self._check_port_free(cluster, port)
        cluster.out_links[port] = link  # type: ignore[assignment]
        self._cluster_edges[(cid, port)] = peer
        self.boundary_out.append(link)

    def _build_global_routes(self) -> None:
        adjacency = self.spec.adjacency()
        for cid in self.local_clusters:
            first_port = first_hop_ports(adjacency, cid)
            # Every spec address is below ``_next_address``.
            routing: list[Optional[int]] = [None] * self._next_address
            for address, home, attach_port, _name in self.spec.attachments:
                if home == cid:
                    routing[address] = attach_port
                elif home in first_port:
                    routing[address] = first_port[home]
            self.clusters[cid].routing = routing

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

    # -- overrides for the sparse cluster list -------------------------------
    def _local(self):
        for cid in self.local_clusters:
            yield self.clusters[cid]

    def _links(self):
        for cluster in self._local():
            for link in cluster.out_links:
                if link is not None:
                    yield link
        for address in self.attachments:
            link = self.interfaces[address].link
            if link is not None:
                yield link

    def stats(self) -> dict:
        return {
            "topology": self.topology_name,
            "shard": self.shard_id,
            "shards": self.partition.n_shards,
            "clusters": len(self.local_clusters),
            "endpoints": len(self.attachments),
            "boundary_links": len(self.boundary_out),
            "messages_forwarded": sum(
                c.messages_forwarded for c in self._local()
            ),
            "port_utilisation": {
                c.cluster_id: len(c.wired_ports()) for c in self._local()
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
