"""Property-based tests for the hardware substrates and the kernel stack."""

from hypothesis import given, settings, strategies as st

from repro.hpc.cluster import NO_ROUTE
from repro.hpc.message import MessageKind, Packet
from repro.model import DEFAULT_COSTS
from repro.sim import Simulator
from repro.snet.fifo import SNetFifo


# ---------------------------------------------------------------- S/NET fifo
@given(sizes=st.lists(st.integers(0, 1048), min_size=1, max_size=40))
def test_fifo_byte_accounting_invariant(sizes):
    """used + free == capacity at every step; no byte created or lost."""
    fifo = SNetFifo(DEFAULT_COSTS.snet_fifo_bytes,
                    DEFAULT_COSTS.snet_header_bytes)
    for i, size in enumerate(sizes):
        fifo.offer(Packet(src=i + 1, dst=0, size=size,
                          kind=MessageKind.CHANNEL_DATA))
        assert 0 <= fifo.used_bytes <= fifo.capacity
        assert fifo.used_bytes + fifo.free_bytes == fifo.capacity
    # Drain everything; accounting must return to empty.
    while fifo.peek() is not None:
        fifo.consume(64)
        assert 0 <= fifo.used_bytes <= fifo.capacity
    assert fifo.used_bytes == 0
    assert fifo.depth == 0


@given(sizes=st.lists(st.integers(0, 1048), min_size=1, max_size=30))
def test_fifo_accepted_messages_survive_intact(sizes):
    fifo = SNetFifo(DEFAULT_COSTS.snet_fifo_bytes,
                    DEFAULT_COSTS.snet_header_bytes)
    accepted = []
    for i, size in enumerate(sizes):
        packet = Packet(src=i + 1, dst=0, size=size,
                        kind=MessageKind.CHANNEL_DATA)
        if fifo.offer(packet):
            accepted.append(packet.seq)
    drained = []
    while True:
        entry = fifo.read()
        if entry is None:
            break
        if not entry.partial:
            drained.append(entry.packet.seq)
    assert drained == accepted


# ---------------------------------------------------------------- hypercube
@settings(deadline=None)
@given(n_clusters=st.integers(1, 20), nodes_per=st.integers(1, 4))
def test_incomplete_hypercube_full_reachability(n_clusters, nodes_per):
    from repro.hpc.topology import build_hypercube, hypercube_dimensions

    dims = hypercube_dimensions(n_clusters)
    if dims + nodes_per > 12:
        return  # invalid configuration; covered by the ValueError test
    sim = Simulator()
    fabric = build_hypercube(sim, DEFAULT_COSTS, n_clusters, nodes_per)
    addresses = sorted(fabric.interfaces)
    for src in addresses:
        for dst in addresses:
            if src != dst:
                assert fabric.reachable(src, dst), (src, dst)


@settings(deadline=None)
@given(n_clusters=st.integers(2, 16))
def test_hypercube_routes_are_shortest(n_clusters):
    """BFS routing gives hop counts equal to Hamming-distance-based
    shortest paths on the (possibly incomplete) cluster graph."""
    import networkx as nx
    from repro.hpc.topology import build_hypercube, hypercube_dimensions

    dims = hypercube_dimensions(n_clusters)
    sim = Simulator()
    fabric = build_hypercube(sim, DEFAULT_COSTS, n_clusters, 1)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_clusters))
    for cid in range(n_clusters):
        for dim in range(dims):
            neighbour = cid ^ (1 << dim)
            if cid < neighbour < n_clusters:
                graph.add_edge(cid, neighbour)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    # Walk the routing tables and count cluster hops per destination.
    for src_cluster in range(n_clusters):
        cluster = fabric.clusters[src_cluster]
        # A connected hypercube routes every address: no ``NO_ROUTE`` hole.
        assert len(cluster.routing) == len(fabric.attachments)
        for dst_addr, first_port in enumerate(cluster.routing):
            assert first_port != NO_ROUTE
            home = fabric.attachments[dst_addr][0]
            hops = 0
            at = src_cluster
            while at != home:
                port = fabric.clusters[at].routing[dst_addr]
                at = fabric._cluster_edges[(at, port)]
                hops += 1
                assert hops <= n_clusters, "routing loop"
            assert hops == lengths[src_cluster][home]


# ---------------------------------------------------------------- channels
@settings(deadline=None, max_examples=25)
@given(sizes=st.lists(st.integers(0, 4000), min_size=1, max_size=12))
def test_channels_preserve_order_and_bytes_for_any_pattern(sizes):
    from repro.vorx.system import VorxSystem

    system = VorxSystem(n_nodes=2)

    def sender(env):
        ch = yield from env.open("prop")
        for i, size in enumerate(sizes):
            yield from env.write(ch, size, payload=("msg", i))

    def receiver(env):
        ch = yield from env.open("prop")
        got = []
        for size in sizes:
            total, payload = 0, None
            first = True
            while first or total < size:
                first = False
                nbytes, part = yield from env.read(ch)
                total += nbytes
                if part is not None:
                    payload = part
            got.append((total, payload))
        return got

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run_until_complete([rx])
    assert rx.result == [(size, ("msg", i)) for i, size in enumerate(sizes)]


@settings(deadline=None, max_examples=15)
@given(
    n_buffers=st.integers(1, 32),
    message_bytes=st.integers(1, 1024),
)
def test_sliding_window_never_loses_messages(n_buffers, message_bytes):
    from repro.vorx.sliding_window import run_sliding_window

    result = run_sliding_window(n_buffers, message_bytes, n_messages=30)
    assert result.elapsed_us > 0
    # Latency is bounded below by the pure wire time and above by a
    # generous serialized bound.
    wire = DEFAULT_COSTS.hpc_wire_time(message_bytes)
    assert result.us_per_message > wire
    assert result.us_per_message < 5000 + 3 * message_bytes
