"""Fabric construction: topology specs, wiring, and routing tables.

Each cluster topology is a pure function returning a
:class:`TopologySpec` -- cluster port counts, the wire list in connect
order, and the endpoint attachments -- with no simulator involved:

* :func:`single_cluster_spec` -- up to twelve endpoints on one cluster
  (the paper's minimal system).
* :func:`hypercube_spec` -- clusters arranged as a (possibly incomplete)
  hypercube [Katseff 88], the topology chosen for large HPC systems; the
  1024-node flagship uses 256 clusters with 8 ports for dimensions and 4
  for processing nodes (paper Section 1).
* :func:`lam_system_spec` -- a "typical local area multicomputer" as in
  Figure 1: a pool of processing nodes plus host workstations.
* :func:`hyperx_spec` -- clusters as a 2-D HyperX (flattened
  butterfly): full connectivity along each lattice dimension, diameter
  two cluster hops, modelling the high-radix-switch alternative.
* :func:`mesh2d_spec` -- clusters as a NoC-style 2-D mesh: four
  neighbour ports per cluster, many hops but a cheap port budget.

``build_*`` is each spec, wired by :meth:`Fabric.wire`, the one wiring
routine (a :class:`~repro.fabric.partition.ShardFabric` is the same
routine restricted to one shard), whose routes come from BFS over the
cluster graph with port-order tie-breaking: dimension-ordered
(bit-fixing) routes on hypercubes.

:class:`Fabric` implements the :class:`repro.fabric.base.FabricBackend`
contract, so anything wired here -- star, hypercube, HyperX, mesh, or a
hand-built topology -- is drivable by the generic traffic drivers and
selectable by name through :func:`repro.fabric.create_fabric`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fabric.base import FabricBackend
from repro.hpc.cluster import Cluster, NO_ROUTE, PORTS_PER_CLUSTER
from repro.hpc.link import Link
from repro.hpc.nic import HPCInterface

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.message import Packet


@dataclass(frozen=True)
class TopologySpec:
    """A simulator-free, picklable description of a wired cluster fabric.

    The topology builders return one and :meth:`Fabric.wire` replays it;
    worker processes of a sharded run receive it and wire only their
    own slice, so no live simulator object crosses a process boundary.
    """

    topology_name: str
    #: Port count per cluster, indexed by cluster id.
    cluster_ports: tuple[int, ...]
    #: Every cluster-to-cluster wire as ``(a, a_port, b, b_port)``, in
    #: connect order.
    links: tuple[tuple[int, int, int, int], ...]
    #: Every endpoint as ``(address, cluster, port, name)``, in address
    #: order.
    attachments: tuple[tuple[int, int, int, str], ...]

    @classmethod
    def of(cls, fabric: "Fabric") -> "TopologySpec":
        """Read the spec off a wired :class:`Fabric` (hand-built ones too)."""
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
        """``adjacency[c] = [(port, neighbour)]`` in port order."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self.cluster_ports]
        for a, a_port, b, b_port in self.links:
            adjacency[a].append((a_port, b))
            adjacency[b].append((b_port, a))
        for ports in adjacency:
            ports.sort()
        return adjacency

    def fault_sites(self) -> list[str]:
        """The link names :meth:`Fabric.fault_sites` lists once wired, so
        fault-plan site patterns can be checked with no fabric built."""
        sites = []
        for _address, cid, port, name in self.attachments:
            sites.append(f"{name}->c{cid}")
            sites.append(f"c{cid}.p{port}->{name}")
        for a, a_port, b, b_port in self.links:
            sites.append(f"c{a}.p{a_port}->c{b}")
            sites.append(f"c{b}.p{b_port}->c{a}")
        return sorted(set(sites))


class Fabric(FabricBackend):
    """A wired HPC interconnect: clusters, interfaces, and routes."""

    topology_name = "custom"
    #: The whole topology a shard slice routes over; ``None`` routes a
    #: fabric over its own wiring (:meth:`build_routes`).
    spec: Optional[TopologySpec] = None

    def __init__(self, sim: "Simulator", costs: "CostModel") -> None:
        self.sim = sim
        self.costs = costs
        self.clusters: list[Cluster] = []
        #: address -> interface
        self.interfaces: dict[int, HPCInterface] = {}
        #: address -> (cluster index, port) where the endpoint is attached
        self.attachments: dict[int, tuple[int, int]] = {}
        #: (cluster index, port) -> neighbour cluster index
        self._cluster_edges: dict[tuple[int, int], int] = {}
        #: Every cluster-to-cluster wire as ``(a, a_port, b, b_port)`` in
        #: :meth:`connect_clusters` call order -- the exact pairing of
        #: ports on both ends, which ``_cluster_edges`` (being a map per
        #: direction) cannot reconstruct; :meth:`TopologySpec.of` reads it.
        self.cluster_links: list[tuple[int, int, int, int]] = []
        self._next_address = 0

    # -- construction -----------------------------------------------------
    def wire(self, spec: TopologySpec) -> None:
        """Replay ``spec`` into this empty fabric, then build its routes.

        Clusters in id order, wires in spec order, then each endpoint's
        interface made and attached in address order, as a hand-built
        fabric would: every link, vstat registry and start event comes
        out the same.  Clusters :meth:`_owns` declines stay ``None``; a
        wire with one owned end goes to a shard's ``_wire_boundary``.
        """
        self.topology_name = spec.topology_name
        sim, costs = self.sim, self.costs
        clusters = self.clusters = [
            Cluster(sim, costs, cid, n_ports) if self._owns(cid) else None
            for cid, n_ports in enumerate(spec.cluster_ports)
        ]  # type: ignore[misc]
        for a, a_port, b, b_port in spec.links:
            if clusters[a] is not None and clusters[b] is not None:
                self.connect_clusters(clusters[a], a_port, clusters[b], b_port)
            elif clusters[a] is not None:
                self._wire_boundary(a, a_port, b, b_port)
            elif clusters[b] is not None:
                self._wire_boundary(b, b_port, a, a_port)
        for address, cid, port, name in spec.attachments:
            if clusters[cid] is not None:
                iface = HPCInterface(sim, costs, address, name)
                self.interfaces[address] = iface
                self.attach(clusters[cid], port, iface)
        self._next_address = 1 + max(spec.addresses, default=-1)
        self.build_routes()

    def _owns(self, cid: int) -> bool:  # a full fabric owns every cluster
        return True

    def add_cluster(self, n_ports: int = PORTS_PER_CLUSTER) -> Cluster:
        cluster = Cluster(self.sim, self.costs, len(self.clusters), n_ports)
        self.clusters.append(cluster)
        return cluster

    def new_interface(self, name: Optional[str] = None) -> HPCInterface:
        """Create an endpoint interface with the next free address."""
        address = self._next_address
        self._next_address += 1
        iface = HPCInterface(self.sim, self.costs, address, name)
        self.interfaces[address] = iface
        return iface

    def attach(self, cluster: Cluster, port: int, iface: HPCInterface) -> None:
        """Wire an endpoint to a cluster port (both directions)."""
        self._check_port_free(cluster, port)
        if iface.link is not None:
            raise ValueError(f"{iface.name} is already attached")
        iface.link = Link(
            self.sim, self.costs, cluster.inputs[port],
            f"{iface.name}->c{cluster.cluster_id}",
        )
        cluster.out_links[port] = Link(
            self.sim, self.costs, iface.rx,
            f"c{cluster.cluster_id}.p{port}->{iface.name}",
        )
        self.attachments[iface.address] = (cluster.cluster_id, port)

    def connect_clusters(
        self, a: Cluster, a_port: int, b: Cluster, b_port: int
    ) -> None:
        """Wire two clusters together (both directions)."""
        self._check_port_free(a, a_port)
        self._check_port_free(b, b_port)
        a.out_links[a_port] = Link(
            self.sim, self.costs, b.inputs[b_port],
            f"c{a.cluster_id}.p{a_port}->c{b.cluster_id}",
        )
        b.out_links[b_port] = Link(
            self.sim, self.costs, a.inputs[a_port],
            f"c{b.cluster_id}.p{b_port}->c{a.cluster_id}",
        )
        self._cluster_edges[(a.cluster_id, a_port)] = b.cluster_id
        self._cluster_edges[(b.cluster_id, b_port)] = a.cluster_id
        self.cluster_links.append(
            (a.cluster_id, a_port, b.cluster_id, b_port)
        )

    def _check_port_free(self, cluster: Cluster, port: int) -> None:
        if not 0 <= port < cluster.n_ports:
            raise ValueError(
                f"cluster {cluster.cluster_id} has no port {port} "
                f"(0..{cluster.n_ports - 1})"
            )
        if cluster.out_links[port] is not None:
            raise ValueError(
                f"cluster {cluster.cluster_id} port {port} is already wired"
            )

    # -- routing -------------------------------------------------------------
    def build_routes(self) -> None:
        """Compute every built cluster's output-port table, indexed by
        destination address: the one route builder of full fabrics and
        shard slices alike.

        BFS over the whole cluster graph (:attr:`spec`, else this
        fabric's own wiring) from each built cluster, visiting
        neighbours in port order, yields deterministic shortest-hop
        routes (dimension-ordered on hypercubes) to every address, so a
        shard routes byte-identically to the unsharded fabric.
        """
        spec = self.spec if self.spec is not None else TopologySpec.of(self)
        adjacency = spec.adjacency()
        size = 1 + max((entry[0] for entry in spec.attachments), default=-1)
        for cluster in filter(None, self.clusters):
            start = cluster.cluster_id
            # Reachable cluster -> output port of the first hop there.
            first_port = {start: -1}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for port, neighbour in adjacency[current]:
                    if neighbour not in first_port:
                        first_port[neighbour] = (
                            port if current == start else first_port[current]
                        )
                        frontier.append(neighbour)
            routing = bytearray([NO_ROUTE]) * size
            for address, home, attach_port, _name in spec.attachments:
                if home == start:
                    routing[address] = attach_port
                elif home in first_port:
                    routing[address] = first_port[home]
                # else: unreachable; route_port() raises on use.
            cluster.routing = routing

    # -- inspection ------------------------------------------------------------
    @property
    def addresses(self) -> list[int]:
        """Sorted addresses of every *attached* endpoint.

        An interface created with :meth:`new_interface` but never
        :meth:`attach`\\ ed has an address and shows up in
        ``interfaces``, but no cluster port and therefore no routes; it
        is excluded here and rejected with a diagnostic by the routing
        queries.
        """
        return sorted(self.attachments)

    def iface(self, address: int) -> HPCInterface:
        return self.interfaces[address]

    def home_cluster(self, address: int) -> Cluster:
        self._require_attached(address)
        return self.clusters[self.attachments[address][0]]

    def _require_attached(self, address: int) -> None:
        if address in self.attachments:
            return
        if address in self.interfaces:
            raise ValueError(
                f"interface {self.interfaces[address].name} (address "
                f"{address}) was created but never attached to a cluster "
                f"port; attach it before routing to or from it"
            )
        raise ValueError(f"no interface at address {address} on this fabric")

    def reachable(self, src: int, dst: int) -> bool:
        """True if routes exist from src's cluster to dst.

        Both endpoints must be attached; an unattached interface (a
        ``new_interface`` that never went through :meth:`attach`) is
        rejected with a diagnostic instead of surfacing as a ``KeyError``
        deep in the routing tables.
        """
        self._require_attached(src)
        self._require_attached(dst)
        routing = self.home_cluster(src).routing
        return (0 <= dst < len(routing) and routing[dst] != NO_ROUTE) or (
            self.attachments[src][0] == self.attachments[dst][0]
        )

    def route_hops(self, src: int, dst: int) -> int:
        """Link traversals on the computed ``src`` -> ``dst`` route.

        Walks the per-cluster routing tables (no packet moves): the
        entry link, one link per cluster-to-cluster hop, and the exit
        link.  Raises ``ValueError`` if either endpoint is unattached or
        no route exists (an incomplete fabric without
        :meth:`build_routes`, or a partitioned topology).
        """
        self._require_attached(src)
        self._require_attached(dst)
        if src == dst:
            return 0
        home, _ = self.attachments[src]
        target, _ = self.attachments[dst]
        hops = 2  # endpoint->cluster entry plus cluster->endpoint exit
        current = home
        seen = set()
        while current != target:
            if current in seen:  # pragma: no cover - defensive
                raise ValueError(
                    f"routing loop at cluster {current} for {src}->{dst}"
                )
            seen.add(current)
            routing = self.clusters[current].routing
            port = routing[dst] if dst < len(routing) else NO_ROUTE
            next_cluster = (
                None if port == NO_ROUTE
                else self._cluster_edges.get((current, port))
            )
            if next_cluster is None:
                raise ValueError(
                    f"no route from address {src} (cluster {home}) to "
                    f"address {dst} (cluster {target}); did you call "
                    f"build_routes() after wiring?"
                )
            current = next_cluster
            hops += 1
        return hops

    # -- FabricBackend delivery hooks ---------------------------------------
    def send(self, src: int, packet: "Packet"):
        """Generator: inject at ``src``; completes when the packet is in
        the first downstream buffer (hardware flow control -- the HPC
        never rejects, senders stall instead)."""
        self._require_attached(src)
        yield self.interfaces[src].send(packet)

    def recv(self, address: int):
        """Generator: next packet delivered to ``address``.

        The interface's own ``recv`` generator, returned as it is: no
        wrapping frame per delivery.  An unattached ``address`` raises
        here, at the call, not at the first resume.
        """
        self._require_attached(address)
        return self.interfaces[address].recv()

    def stats(self) -> dict:
        """Aggregate fabric statistics for reports."""
        return {
            "topology": self.topology_name,
            "clusters": len(self.clusters),
            "endpoints": len(self.attachments),
            "unattached_interfaces": len(self.interfaces)
            - len(self.attachments),
            "cluster_links": len(self._cluster_edges) // 2,
            "messages_forwarded": sum(c.messages_forwarded for c in self.clusters),
            "port_utilisation": {
                c.cluster_id: len(c.wired_ports()) for c in self.clusters
            },
        }

    def _links(self):
        for cluster in filter(None, self.clusters):
            for link in cluster.out_links:
                if link is not None:
                    yield link
        for address in self.attachments:
            link = self.interfaces[address].link
            if link is not None:
                yield link

    def fault_sites(self) -> list[str]:
        """Sorted link names -- the sites links hand the injector.

        Covers both directions of every wire: endpoint entry/exit links
        (``"node0->c0"``, ``"c0.p1->node0"``) and cluster-to-cluster
        links (``"c0.p2->c1"``), whatever the topology builder named
        them.
        """
        return sorted({link.name for link in self._links()})

    def contention(self) -> dict:
        """Hardware flow-control pressure summed over every link.

        ``reserve_stalls`` counts transmissions that had to wait for a
        downstream whole-message buffer (Section 2's hardware flow
        control); ``reserve_stall_us`` is the time spent waiting.  The
        HPC never rejects a message, so ``rejections``/``retries`` are
        structurally zero -- reported anyway to keep the shape uniform
        with the S/NET backend.
        """
        stalls = 0
        stall_us = 0.0
        busy_us = 0.0
        max_queue = 0
        n_links = 0
        for link in self._links():
            n_links += 1
            counter = link.metrics.get("link.reserve_stalls")
            if counter is not None:
                stalls += int(counter.value)
            counter = link.metrics.get("link.reserve_stall_us")
            if counter is not None:
                stall_us += counter.value
            busy_us += link.busy_time
            gauge = link.metrics.get("link.queue_depth")
            if gauge is not None:
                max_queue = max(max_queue, int(gauge.max_value))
        return {
            "mode": "hardware-credits",
            "reserve_stalls": stalls,
            "reserve_stall_us": stall_us,
            "rejections": 0,
            "retries": 0,
            "links": n_links,
            "link_busy_us": busy_us,
            "max_queue_depth": max_queue,
        }


# ---------------------------------------------------------------------------
# Topology specs, and the builders that wire them
# ---------------------------------------------------------------------------
def build_fabric(
    sim: "Simulator", costs: "CostModel", spec: TopologySpec
) -> Fabric:
    """Wire ``spec`` into a new :class:`Fabric` on ``sim``."""
    fabric = Fabric(sim, costs)
    fabric.wire(spec)
    return fabric


def single_cluster_spec(n_endpoints: int) -> TopologySpec:
    """A minimal system: up to twelve endpoints on one cluster."""
    if not 2 <= n_endpoints <= PORTS_PER_CLUSTER:
        raise ValueError(
            f"a single cluster supports 2..{PORTS_PER_CLUSTER} endpoints, "
            f"got {n_endpoints}"
        )
    return TopologySpec(
        "star", (PORTS_PER_CLUSTER,), (),
        tuple((port, 0, port, f"node{port}") for port in range(n_endpoints)),
    )


def build_single_cluster(
    sim: "Simulator", costs: "CostModel", n_endpoints: int
) -> Fabric:
    """:func:`single_cluster_spec`, wired."""
    return build_fabric(sim, costs, single_cluster_spec(n_endpoints))


def hypercube_dimensions(n_clusters: int) -> int:
    """Dimensions needed for ``n_clusters`` (incomplete allowed)."""
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster, got {n_clusters}")
    dims = 0
    while (1 << dims) < n_clusters:
        dims += 1
    return dims


def _hypercube_links(n_clusters: int, dims: int) -> tuple:
    """Dimension *k* wires port *k* to port *k*; missing vertices of an
    incomplete hypercube simply lack links."""
    return tuple(
        (cid, dim, cid ^ (1 << dim), dim)
        for cid in range(n_clusters)
        for dim in range(dims)
        if cid < cid ^ (1 << dim) < n_clusters
    )


def _endpoint_slots(
    n_clusters: int,
    nodes_per_cluster: int,
    first_node_port: int,
    n_endpoints: Optional[int],
    what: str,
) -> tuple:
    """Attach endpoints cluster-major onto the node ports.

    ``n_endpoints=None`` fills every node port (the historical
    behaviour); an explicit count occupies the first ``n_endpoints``
    slots and raises a capacity error -- with the arithmetic spelled out
    -- when the request exceeds the available node ports.
    """
    capacity = n_clusters * nodes_per_cluster
    if n_endpoints is None:
        n_endpoints = capacity
    elif n_endpoints > capacity:
        raise ValueError(
            f"requested {n_endpoints} endpoints but {what} has only "
            f"{n_clusters} clusters x {nodes_per_cluster} node ports = "
            f"{capacity} endpoint slots; add clusters or raise "
            f"nodes_per_cluster"
        )
    elif n_endpoints < 1:
        raise ValueError(f"need at least one endpoint, got {n_endpoints}")
    slots = []
    for k in range(n_endpoints):
        cid, slot = divmod(k, nodes_per_cluster)
        slots.append((k, cid, first_node_port + slot, f"node{cid}.{slot}"))
    return tuple(slots)


def hypercube_spec(
    n_clusters: int,
    nodes_per_cluster: int,
    n_endpoints: Optional[int] = None,
) -> TopologySpec:
    """Clusters as a (possibly incomplete) hypercube [Katseff 88].

    Dimension *k* uses cluster port *k*; node ports follow.  The paper's
    1024-node configuration is ``hypercube_spec(256, 4)``: 8 dimension
    ports + 4 node ports per cluster.

    Incomplete hypercubes (``n_clusters`` not a power of two) stay fully
    routable: the vertex set is the contiguous range ``0..n_clusters-1``,
    and clearing the top set bit of any vertex yields a smaller vertex
    that is present, so every cluster has a path to cluster 0 and BFS
    reaches everything (pinned by the all-pairs sweep in
    ``tests/test_fabric_backends.py``).

    ``n_endpoints`` attaches only that many endpoints (cluster-major);
    requesting more than ``n_clusters * nodes_per_cluster`` raises a
    capacity error instead of failing on a missing port.
    """
    dims = hypercube_dimensions(n_clusters)
    if dims + nodes_per_cluster > PORTS_PER_CLUSTER:
        raise ValueError(
            f"{dims} dimension ports + {nodes_per_cluster} node ports exceed "
            f"the {PORTS_PER_CLUSTER}-port cluster"
        )
    return TopologySpec(
        "hypercube", (PORTS_PER_CLUSTER,) * n_clusters,
        _hypercube_links(n_clusters, dims),
        _endpoint_slots(
            n_clusters, nodes_per_cluster, dims, n_endpoints,
            f"a {dims}-dimensional hypercube",
        ),
    )


def build_hypercube(
    sim: "Simulator", costs: "CostModel", n_clusters: int,
    nodes_per_cluster: int, n_endpoints: Optional[int] = None,
) -> Fabric:
    """:func:`hypercube_spec`, wired."""
    spec = hypercube_spec(n_clusters, nodes_per_cluster, n_endpoints)
    return build_fabric(sim, costs, spec)


def hyperx_spec(
    shape: tuple[int, int],
    nodes_per_cluster: int,
    n_endpoints: Optional[int] = None,
) -> TopologySpec:
    """Clusters as a 2-D HyperX (flattened butterfly).

    Clusters sit on an ``s1 x s2`` lattice with *full* connectivity
    along each dimension: cluster ``(x, y)`` links directly to every
    ``(x', y)`` and every ``(x, y')``.  Any pair is at most two cluster
    hops apart, at the price of high-radix clusters -- ``(s1-1) +
    (s2-1) + nodes_per_cluster`` ports each, beyond the HPC's physical
    twelve for large lattices.  The builder allows that deliberately:
    HyperX models the "what if we had high-radix switches" alternative
    the interconnect literature compares against, and
    :class:`~repro.hpc.cluster.Cluster` parameterises its port count.
    """
    s1, s2 = shape
    if s1 < 1 or s2 < 1:
        raise ValueError(f"HyperX shape must be positive, got {shape}")
    dim_ports = (s1 - 1) + (s2 - 1)
    radix = dim_ports + nodes_per_cluster
    if radix < 2:  # refused here, not only once a cluster is wired
        raise ValueError(f"a cluster needs at least 2 ports, got {radix}")
    # Dimension 0 (varying x): ports 0..s1-2, ordered by peer coordinate
    # skipping self; dimension 1 (varying y): ports s1-1..dim_ports-1.
    # Cluster (x, y) has id x * s2 + y.
    links = [
        (x * s2 + y, peer - 1, peer * s2 + y, x)
        for y in range(s2) for x in range(s1) for peer in range(x + 1, s1)
    ]
    links.extend(
        (x * s2 + y, (s1 - 1) + peer - 1, x * s2 + peer, (s1 - 1) + y)
        for x in range(s1) for y in range(s2) for peer in range(y + 1, s2)
    )
    return TopologySpec(
        "hyperx", (radix,) * (s1 * s2), tuple(links),
        _endpoint_slots(
            s1 * s2, nodes_per_cluster, dim_ports, n_endpoints,
            f"a {s1}x{s2} HyperX",
        ),
    )


def build_hyperx(
    sim: "Simulator", costs: "CostModel", shape: tuple[int, int],
    nodes_per_cluster: int, n_endpoints: Optional[int] = None,
) -> Fabric:
    """:func:`hyperx_spec`, wired."""
    spec = hyperx_spec(shape, nodes_per_cluster, n_endpoints)
    return build_fabric(sim, costs, spec)


def mesh2d_spec(
    shape: tuple[int, int],
    nodes_per_cluster: int,
    n_endpoints: Optional[int] = None,
) -> TopologySpec:
    """Clusters as a NoC-style 2-D mesh.

    Cluster ``(x, y)`` links only to its four lattice neighbours (ports
    0..3 = north, east, south, west), so the port budget is constant --
    ``4 + nodes_per_cluster`` fits the physical twelve-port cluster for
    up to eight endpoints each -- but routes grow with Manhattan
    distance, the opposite trade from :func:`hyperx_spec`.
    """
    width, height = shape
    if width < 1 or height < 1:
        raise ValueError(f"mesh shape must be positive, got {shape}")
    if 4 + nodes_per_cluster > PORTS_PER_CLUSTER:
        raise ValueError(
            f"4 neighbour ports + {nodes_per_cluster} node ports exceed "
            f"the {PORTS_PER_CLUSTER}-port cluster"
        )
    north, east, south, west = 0, 1, 2, 3
    links = []
    for x in range(width):
        for y in range(height):
            cid = x * height + y
            if x + 1 < width:
                links.append((cid, east, cid + height, west))
            if y + 1 < height:
                links.append((cid, south, cid + 1, north))
    return TopologySpec(
        "mesh", (PORTS_PER_CLUSTER,) * (width * height), tuple(links),
        _endpoint_slots(
            width * height, nodes_per_cluster, 4, n_endpoints,
            f"a {width}x{height} mesh",
        ),
    )


def build_mesh2d(
    sim: "Simulator", costs: "CostModel", shape: tuple[int, int],
    nodes_per_cluster: int, n_endpoints: Optional[int] = None,
) -> Fabric:
    """:func:`mesh2d_spec`, wired."""
    spec = mesh2d_spec(shape, nodes_per_cluster, n_endpoints)
    return build_fabric(sim, costs, spec)


def lam_system_spec(
    n_nodes: int = 70,
    n_workstations: int = 10,
    nodes_per_cluster: int = 8,
) -> TopologySpec:
    """A "typical local area multicomputer" (Figure 1).

    A hypercube of clusters hosting ``n_nodes`` processing nodes
    (``node{k}``, addresses ``0..n_nodes-1``) and then ``n_workstations``
    host workstations (``ws{k}``).  The default reproduces the paper's
    operational system: 70 nodes + 10 SUN-3 workstations.
    """
    total = n_nodes + n_workstations
    if total < 2:
        raise ValueError("need at least two endpoints")
    n_clusters = -(-total // nodes_per_cluster)  # ceil
    dims = hypercube_dimensions(n_clusters)
    if dims + nodes_per_cluster > PORTS_PER_CLUSTER:
        raise ValueError(
            f"nodes_per_cluster={nodes_per_cluster} leaves too few ports for "
            f"{dims} hypercube dimensions"
        )
    attachments = []
    for k in range(total):
        cid, slot = divmod(k, nodes_per_cluster)
        name = f"node{k}" if k < n_nodes else f"ws{k - n_nodes}"
        attachments.append((k, cid, dims + slot, name))
    return TopologySpec(
        "hypercube", (PORTS_PER_CLUSTER,) * n_clusters,
        _hypercube_links(n_clusters, dims), tuple(attachments),
    )


def build_lam_system(
    sim: "Simulator", costs: "CostModel", n_nodes: int = 70,
    n_workstations: int = 10, nodes_per_cluster: int = 8,
) -> tuple[Fabric, list[int], list[int]]:
    """:func:`lam_system_spec`, wired; returns ``(fabric,
    node_addresses, workstation_addresses)``."""
    spec = lam_system_spec(n_nodes, n_workstations, nodes_per_cluster)
    workstations = list(range(n_nodes, n_nodes + n_workstations))
    return build_fabric(sim, costs, spec), list(range(n_nodes)), workstations
