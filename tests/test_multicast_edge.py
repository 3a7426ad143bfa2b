"""Edge cases for the flow-controlled multicast service."""

import pytest

from repro import VorxSystem
from repro.vorx.errors import ChannelStateError


def test_sender_blocks_until_enough_members_join():
    system = VorxSystem(n_nodes=4)
    times = {}

    def sender(env):
        handle = yield from env.mc_open_send("late", 3)
        times["opened"] = env.now
        yield from env.mc_send(handle, 64)

    def receiver(env, delay):
        yield from env.sleep(delay)
        group = yield from env.mc_join("late")
        yield from env.mc_read(group)

    system.spawn(0, sender)
    for i, delay in enumerate((1_000.0, 5_000.0, 30_000.0)):
        system.spawn(i + 1, lambda env, d=delay: receiver(env, d))
    system.run()
    # The open completed only after the slowest member joined.
    assert times["opened"] >= 30_000.0


def test_manager_on_remote_node():
    """The group name may hash to a node that is neither sender nor
    receiver; rendezvous still works through that manager."""
    system = VorxSystem(n_nodes=6)
    # Find a name managed by a node other than 0 and 5.
    manager_of = system.node(0).manager.node_for
    name = next(
        f"grp-{i}" for i in range(100)
        if manager_of(f"grp-{i}") not in (system.node(0).address,
                                          system.node(5).address)
    )

    def sender(env):
        handle = yield from env.mc_open_send(name, 1)
        yield from env.mc_send(handle, 32, payload="via remote manager")

    def receiver(env):
        group = yield from env.mc_join(name)
        _, payload = yield from env.mc_read(group)
        return payload

    system.spawn(0, sender)
    rx = system.spawn(5, receiver)
    system.run()
    assert rx.result == "via remote manager"


def test_empty_group_send_rejected():
    from repro.vorx.multicast import MulticastSendHandle

    system = VorxSystem(n_nodes=2)

    def sender(env):
        handle = MulticastSendHandle("ghost", [])
        with pytest.raises(ChannelStateError):
            yield from env.mc_send(handle, 8)
        return "rejected"

    sp = system.spawn(0, sender)
    system.run()
    assert sp.result == "rejected"


def test_invalid_receiver_count():
    system = VorxSystem(n_nodes=2)

    def sender(env):
        with pytest.raises(ValueError):
            yield from env.mc_open_send("x", 0)
        return "ok"

    sp = system.spawn(0, sender)
    system.run()
    assert sp.result == "ok"


def test_two_senders_same_group():
    """Two senders can open overlapping member sets of one group."""
    system = VorxSystem(n_nodes=4)

    def sender(env, tag):
        handle = yield from env.mc_open_send("shared", 2)
        yield from env.mc_send(handle, 16, payload=tag)

    def receiver(env):
        group = yield from env.mc_join("shared")
        got = []
        for _ in range(2):
            _, payload = yield from env.mc_read(group)
            got.append(payload)
        return sorted(got)

    system.spawn(0, lambda env: sender(env, "s0"))
    system.spawn(1, lambda env: sender(env, "s1"))
    r1 = system.spawn(2, receiver)
    r2 = system.spawn(3, receiver)
    system.run()
    assert r1.result == ["s0", "s1"]
    assert r2.result == ["s0", "s1"]
