"""Tests for the Meglos kernel on the S/NET: delivery, overflow recovery,
and the Section 2 lockout pathology."""

import pytest

from repro.meglos import (
    BusyRetransmit,
    MeglosSystem,
    RandomBackoff,
    Reservation,
)


def test_simple_send_receive():
    system = MeglosSystem(n_nodes=3)

    def sender(env):
        attempts = yield from env.send(2, 100, payload="hi")
        return attempts

    def receiver(env):
        packet = yield from env.recv()
        return packet.payload

    tx = system.spawn(0, sender)
    rx = system.spawn(2, receiver)
    system.run()
    assert tx.result == 1  # no overflow, first attempt accepted
    assert rx.result == "hi"


def test_size_limit_enforced():
    with pytest.raises(ValueError):
        MeglosSystem(n_nodes=20)
    with pytest.raises(ValueError):
        MeglosSystem(n_nodes=1)


def test_send_larger_than_the_fifo_is_refused_not_retransmitted():
    # No fifo can hold it, so every retransmission would be rejected
    # forever: the one S/NET send loop refuses it before the bus.
    system = MeglosSystem(n_nodes=2)

    def sender(env):
        yield from env.send(1, 3000)

    system.spawn(0, sender)
    with pytest.raises(ValueError, match="never fit"):
        system.run(until=20_000.0)
    assert system.node(1).iface.fifo.rejected == 0
    assert system.node(0).iface.packets_sent == 0


def burst_fit(n_senders, nbytes, extra_sender_messages=0):
    """Many-to-one burst while the receiver has interrupts masked.

    This is the paper's "natural synchronization in which many processors
    send a message to a single processor at nearly the same time": every
    message must sit in the 2048-byte fifo simultaneously.  Returns the
    receiver fifo's rejection count.
    """
    system = MeglosSystem(n_nodes=n_senders + 1)
    dst = n_senders

    def sender(env, who):
        for _ in range(1 + (extra_sender_messages if who == 0 else 0)):
            yield from env.send(dst, nbytes, strategy=RandomBackoff(seed=who))

    def receiver(env):
        env.disable_interrupts()  # busy in a device critical section
        yield from env.sleep(50_000.0)
        env.enable_interrupts()
        got = 0
        expected = n_senders + extra_sender_messages
        while got < expected:
            yield from env.recv()
            got += 1
        return got

    for i in range(n_senders):
        system.spawn(i, lambda env, i=i: sender(env, i))
    rx = system.spawn(dst, receiver)
    system.run()
    assert not rx.process.is_alive  # everything eventually delivered
    return system.node(dst).iface.fifo.rejected


def test_twelve_short_messages_fit_without_overflow():
    """Paper: 12 x 150-byte messages never overflow the 2048-byte fifo."""
    assert burst_fit(12, 150) == 0


def test_thirteenth_short_message_overflows():
    """One message more than the sizing rule allows gets fifo-full."""
    assert burst_fit(12, 150, extra_sender_messages=1) >= 1


def test_busy_retransmit_lockout_with_long_messages():
    """Section 2's lockout: many-to-one long messages under busy
    retransmission make no progress -- the receiver drains partial
    messages forever."""
    system = MeglosSystem(n_nodes=7)
    n_senders = 6
    done = []

    def sender(env, who):
        yield from env.send(6, 1000, strategy=BusyRetransmit())
        done.append(who)

    def receiver(env):
        received = 0
        while received < n_senders:
            yield from env.recv()
            received += 1
        return received

    for i in range(n_senders):
        system.spawn(i, lambda env, i=i: sender(env, i))
    rx = system.spawn(6, receiver)
    # Run for two simulated seconds: ample for six 1000-byte messages
    # (which need ~1 ms each), yet the system must still be thrashing.
    system.run(until=2_000_000.0)
    assert rx.process.is_alive  # receiver never got all messages
    assert len(done) < n_senders  # at least one sender is locked out
    node = system.node(6)
    assert node.partials_discarded > 100  # busy discarding partial prefixes


def test_random_backoff_recovers_but_slowly():
    system = MeglosSystem(n_nodes=7)
    n_senders = 6
    finish = {}

    def sender(env, who):
        yield from env.send(6, 1000, strategy=RandomBackoff(seed=who))
        finish[who] = env.now

    def receiver(env):
        received = 0
        while received < n_senders:
            yield from env.recv()
            received += 1
        return env.now

    for i in range(n_senders):
        system.spawn(i, lambda env, i=i: sender(env, i))
    rx = system.spawn(6, receiver)
    system.run()
    assert not rx.process.is_alive  # everyone eventually got through
    # But it took much longer than the no-contention transfer time.
    assert rx.result > 6 * system.costs.snet_wire_time(1000)


def test_reservation_protocol_eliminates_overflow():
    system = MeglosSystem(n_nodes=7)
    n_senders = 6

    def sender(env, who):
        attempts = yield from env.send(6, 1000, strategy=Reservation())
        return attempts

    def receiver(env):
        received = 0
        while received < n_senders:
            yield from env.recv()
            received += 1
        return env.now

    senders = [system.spawn(i, lambda env, i=i: sender(env, i))
               for i in range(n_senders)]
    rx = system.spawn(6, receiver)
    system.run()
    assert not rx.process.is_alive
    # One authorized sender at a time: the data messages never overflow.
    assert all(tx.result == 1 for tx in senders)
    assert system.node(6).partials_discarded == 0


def test_reservation_slower_than_uncontended_direct_send():
    """The paper rejected reservations because the handshake taxes every
    message even without contention."""

    def one_send(strategy):
        system = MeglosSystem(n_nodes=2)

        def sender(env):
            t0 = env.now
            yield from env.send(1, 200, strategy=strategy)
            return env.now - t0

        def receiver(env):
            yield from env.recv()

        tx = system.spawn(0, sender)
        system.spawn(1, receiver)
        system.run()
        return tx.result

    assert one_send(Reservation()) > one_send(BusyRetransmit())
