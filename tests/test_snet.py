"""Unit tests for the S/NET bus, fifo, and overflow semantics (Section 2)."""

import pytest

from repro import create_fabric
from repro.model import DEFAULT_COSTS
from repro.sim import Simulator
from repro.hpc.message import Packet, MessageKind
from repro.snet import SNetBus, SNetInterface, SNetFifo


def make_system(n):
    sim = Simulator()
    bus = SNetBus(sim, DEFAULT_COSTS)
    ifaces = []
    for i in range(n):
        iface = SNetInterface(sim, DEFAULT_COSTS, bus, address=i)
        bus.register(iface)
        ifaces.append(iface)
    return sim, bus, ifaces


def packet(src, dst, size):
    return Packet(src=src, dst=dst, size=size, kind=MessageKind.CHANNEL_DATA)


# -------------------------------------------------------------------- fifo
def test_fifo_accepts_until_full():
    fifo = SNetFifo(capacity_bytes=2048, header_bytes=12)
    # Twelve 150-byte messages fit: 12 * 162 = 1944 <= 2048 (paper's rule).
    for i in range(12):
        assert fifo.offer(packet(i, 99, 150)) is True
    assert fifo.used_bytes == 12 * 162
    # The thirteenth overflows.
    assert fifo.offer(packet(12, 99, 150)) is False
    assert fifo.rejected == 1


def test_fifo_retains_partial_on_overflow():
    fifo = SNetFifo(capacity_bytes=2048, header_bytes=12)
    assert fifo.offer(packet(0, 9, 1000))  # 1012
    assert fifo.offer(packet(1, 9, 1000))  # 2024
    assert not fifo.offer(packet(2, 9, 1000))  # only 24 bytes free
    assert fifo.used_bytes == 2048
    assert fifo.partial_bytes_retained == 24
    # Reads: two full messages then the partial to discard.
    first = fifo.read()
    assert first is not None and not first.partial and first.stored_bytes == 1012
    second = fifo.read()
    assert second is not None and not second.partial
    third = fifo.read()
    assert third is not None and third.partial and third.stored_bytes == 24
    assert fifo.read() is None
    assert fifo.used_bytes == 0


def test_fifo_rejects_with_no_space_retains_nothing():
    fifo = SNetFifo(capacity_bytes=100, header_bytes=12)
    assert fifo.offer(packet(0, 9, 88))  # exactly fills
    depth_before = fifo.depth
    assert not fifo.offer(packet(1, 9, 50))
    assert fifo.depth == depth_before  # nothing retained
    assert fifo.partial_bytes_retained == 0


def test_fifo_invalid_capacity():
    with pytest.raises(ValueError):
        SNetFifo(capacity_bytes=0, header_bytes=12)


# -------------------------------------------------------------------- bus
def test_bus_delivery_and_interrupt():
    sim, bus, ifaces = make_system(3)
    fired = []
    ifaces[2].set_rx_interrupt(lambda: fired.append(sim.now))
    results = []

    def sender():
        accepted = yield from ifaces[0].send(packet(0, 2, 100))
        results.append(accepted)

    sim.process(sender())
    sim.run()
    assert results == [True]
    assert len(fired) == 1
    entry = ifaces[2].fifo.read()
    assert entry is not None and entry.packet.size == 100


def test_bus_serializes_transmissions():
    sim, bus, ifaces = make_system(3)
    finish = []

    def sender(i):
        yield from ifaces[i].send(packet(i, 2, 1000))
        finish.append((i, sim.now))

    sim.process(sender(0))
    sim.process(sender(1))
    sim.run()
    wire = DEFAULT_COSTS.snet_wire_time(1000)
    assert finish[0][1] == pytest.approx(wire)
    assert finish[1][1] == pytest.approx(2 * wire)


def test_bus_fifo_full_signal_returned_to_sender():
    sim, bus, ifaces = make_system(4)
    results = {}

    def sender(i):
        accepted = yield from ifaces[i].send(packet(i, 3, 1000))
        results[i] = accepted

    for i in range(3):
        sim.process(sender(i))
    sim.run()
    # Two 1012-byte messages fit in 2048; the third is rejected.
    assert results[0] is True
    assert results[1] is True
    assert results[2] is False
    assert ifaces[2].sends_rejected == 1
    assert bus.rejections == 1


def test_bus_unknown_destination():
    sim, bus, ifaces = make_system(2)

    def sender():
        yield from ifaces[0].send(packet(0, 77, 10))

    p = sim.process(sender())
    with pytest.raises(KeyError):
        sim.run(until=p)


def test_bus_duplicate_address_rejected():
    sim, bus, ifaces = make_system(2)
    dup = SNetInterface(sim, DEFAULT_COSTS, bus, address=0)
    with pytest.raises(ValueError):
        bus.register(dup)


def test_wrong_source_rejected():
    sim, bus, ifaces = make_system(2)

    def sender():
        yield from ifaces[0].send(packet(1, 0, 10))

    p = sim.process(sender())
    with pytest.raises(ValueError, match="src"):
        sim.run(until=p)


def test_unmasking_a_bare_endpoint_drains_its_backlog():
    """Two messages sent to a masked endpoint of the bare fabric are
    delivered once it unmasks, though nothing arrives after that."""
    sim = Simulator()
    fabric = create_fabric("snet", sim, DEFAULT_COSTS, n_endpoints=2)
    receiver_iface = fabric.iface(0)
    receiver_iface.disable_interrupts()
    received = []

    def sender():
        for i in range(2):
            message = packet(1, 0, 100)
            message.payload = i
            yield from fabric.send(1, message)

    def unmask():
        yield sim.timeout(1_000.0)
        receiver_iface.enable_interrupts()

    def receiver():
        for _ in range(2):
            message = yield from fabric.recv(0)
            received.append(message.payload)

    for program in (sender, unmask, receiver):
        sim.process(program())
    sim.run()
    assert received == [0, 1]
    assert receiver_iface.fifo.depth == 0
