"""Tests for Meglos named channels with the centralized host manager."""

import pytest

from repro.meglos import MeglosSystem
from repro.meglos.channels import install_channels
from repro.vorx.errors import ChannelStateError


def make_system(n):
    system = MeglosSystem(n_nodes=n)
    services = install_channels(system)
    return system, services


def test_open_pairs_through_host_manager():
    system, services = make_system(3)

    def a(env):
        ch = yield from services[1].open(env.subprocess, "link")
        return ch.peer_addr

    def b(env):
        ch = yield from services[2].open(env.subprocess, "link")
        return ch.peer_addr

    sa = system.spawn(1, a)
    sb = system.spawn(2, b)
    system.run()
    assert sa.result == 2
    assert sb.result == 1
    # Every open was handled by node 0's manager (the "host").
    assert services[0].opens_handled == 2
    assert services[1].opens_handled == 0


def test_write_read_roundtrip():
    system, services = make_system(3)

    def sender(env):
        ch = yield from services[0].open(env.subprocess, "d")
        yield from services[0].write(env.subprocess, ch, 200,
                                     payload={"v": 7})

    def receiver(env):
        ch = yield from services[2].open(env.subprocess, "d")
        size, payload = yield from services[2].read(env.subprocess, ch)
        return size, payload

    system.spawn(0, sender)
    rx = system.spawn(2, receiver)
    system.run()
    assert rx.result == (200, {"v": 7})


def test_message_order_preserved():
    system, services = make_system(2)
    n = 6

    def sender(env):
        ch = yield from services[0].open(env.subprocess, "seq")
        for i in range(n):
            yield from services[0].write(env.subprocess, ch, 64, payload=i)

    def receiver(env):
        ch = yield from services[1].open(env.subprocess, "seq")
        got = []
        for _ in range(n):
            _, payload = yield from services[1].read(env.subprocess, ch)
            got.append(payload)
        return got

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    assert rx.result == list(range(n))


def test_side_buffering_when_reader_late():
    system, services = make_system(2)

    def sender(env):
        ch = yield from services[0].open(env.subprocess, "buf")
        for i in range(3):
            yield from services[0].write(env.subprocess, ch, 64, payload=i)

    def receiver(env):
        ch = yield from services[1].open(env.subprocess, "buf")
        yield from env.sleep(100_000.0)
        got = []
        for _ in range(3):
            _, payload = yield from services[1].read(env.subprocess, ch)
            got.append(payload)
        return got

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    assert rx.result == [0, 1, 2]


def test_write_before_open_rejected():
    system, services = make_system(2)
    from repro.meglos.channels import MeglosEndpoint

    def program(env):
        fake = MeglosEndpoint(9, "fake", env.subprocess)
        with pytest.raises(ChannelStateError):
            yield from services[0].write(env.subprocess, fake, 4)
        return "ok"

    sp = system.spawn(0, program)
    system.run()
    assert sp.result == "ok"


def test_centralized_opens_serialize_on_host():
    """The Section 3.2 bottleneck, on real Meglos: many simultaneous
    opens all queue at node 0."""
    system, services = make_system(9)
    jobs = []

    # Nodes 1..8 pair up through four channel names.
    def opener(env, service, name):
        yield from service.open(env.subprocess, name)
        return env.now

    for i in range(1, 9):
        name = f"pair-{(i - 1) // 2}"
        jobs.append(system.spawn(
            i, lambda env, s=services[i], n=name: opener(env, s, n)
        ))
    system.run()
    assert services[0].opens_handled == 8
    finish = max(sp.result for sp in jobs)
    # Eight serialized manager requests at ~9 ms each dominate.
    assert finish > 8 * system.costs.central_manager_request * 0.5


def burst_at_masked_reader(recovery):
    """Three writers each send two 700-byte channel messages at 100 ms to
    one reader whose interrupts are masked from 90 ms to 103 ms.
    Returns (messages delivered, partials discarded, bus rejections)."""
    system = MeglosSystem(n_nodes=5, recovery=recovery)
    services = install_channels(system)
    delivered = []

    def writer(env, i):
        ch = yield from services[i].open(env.subprocess, f"c{i}")
        yield from env.sleep(100_000.0 - env.now)
        for _ in range(2):
            yield from services[i].write(env.subprocess, ch, 700)

    def reader(env, i):
        ch = yield from services[4].open(env.subprocess, f"c{i}")
        for _ in range(2):
            size, _ = yield from services[4].read(env.subprocess, ch)
            delivered.append(size)

    def masker(env):
        yield from env.sleep(90_000.0)
        env.disable_interrupts()
        yield from env.sleep(13_000.0)
        env.enable_interrupts()

    for i in (1, 2, 3):
        system.spawn(i, lambda env, i=i: writer(env, i))
        system.spawn(4, lambda env, i=i: reader(env, i))
    system.spawn(4, masker)
    system.run(until=400_000.0)
    return (len(delivered), system.node(4).partials_discarded,
            system.bus.rejections)


def test_channels_follow_the_system_recovery_policy():
    """Channel opens and writes default to ``MeglosSystem(recovery=...)``;
    a reservation write runs the request/grant handshake, and channel
    data releases the grant so the next writer is authorized."""
    delivered, partials, rejections = burst_at_masked_reader(
        "busy-retransmit"
    )
    # Section 2: busy retransmission locks the masked reader out.
    assert delivered == 0
    assert partials > 1000 and rejections > 1000
    delivered, _, _ = burst_at_masked_reader("random-backoff")
    assert delivered == 6
    assert burst_at_masked_reader("reservation") == (6, 0, 0)
