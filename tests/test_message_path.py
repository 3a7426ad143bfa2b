"""The kernel's one message path: the reply-token table and the object
manager's op table."""

import pytest

from repro import VorxSystem
from repro.hpc.message import MessageKind
from repro.vorx.stub import attach_stubs


def remote_name(system, prefix, exclude):
    """A name whose manager is none of the ``exclude`` addresses."""
    node_for = system.node(0).manager.node_for
    return next(
        f"{prefix}-{i}" for i in range(100)
        if node_for(f"{prefix}-{i}") not in exclude
    )


def test_concurrent_waits_each_get_their_own_reply():
    """A forwarded syscall, a channel open and a multicast join wait on
    one node at once; each wakes with its own reply."""
    system = VorxSystem(n_nodes=3, n_workstations=1)
    attach_stubs(system, 0, [0])
    node = system.node(0)
    channel = remote_name(system, "chan", {node.address})
    group = remote_name(system, "grp", {node.address})
    spans = {}
    in_flight = []

    def timed(key, call):
        def program(env):
            start = env.now
            result = yield from call(env)
            spans[key] = (start, env.now)
            return result
        return program

    def peer_open(env):
        yield from env.sleep(20_000.0)
        yield from env.open(channel)

    def probe():
        yield system.sim.timeout(500.0)
        in_flight.append(len(node._replies))

    syscall = system.spawn(
        0, timed("syscall", lambda env: env.syscall("getpid"))
    )
    opened = system.spawn(0, timed("open", lambda env: env.open(channel)))
    joined = system.spawn(0, timed("join", lambda env: env.mc_join(group)))
    system.spawn(1, peer_open)
    system.sim.process(probe())
    system.run()

    assert isinstance(syscall.result, int)
    assert opened.result.peer_addr == system.node(1).address
    assert joined.result.name == group
    # All three waits overlapped, each in its own slot of the node's one
    # token table, and every slot is closed afterwards.
    assert max(s for s, _ in spans.values()) < 500.0 < min(
        e for _, e in spans.values()
    )
    assert in_flight == [3]
    assert node._replies == {}


def test_late_manager_reply_is_ignored():
    """A duplicate reply for a token already resolved wakes nobody and
    raises nothing, whether the waiter is still waking or long gone."""
    system = VorxSystem(n_nodes=2)
    node, peer = system.node(0), system.node(1)
    token, event = node.expect_reply()

    def waiter(env):
        return (yield from node.await_reply(env.subprocess, token, event))

    def replier():
        for result, delay in (("first", 1_000.0), ("echo", 0.0),
                              ("late", 50_000.0)):
            yield system.sim.timeout(delay)
            peer.post(dst=node.address, size=48, kind=MessageKind.MANAGER,
                      payload={"op": "reply", "token": token,
                               "result": result})

    sp = system.spawn(0, waiter)
    system.sim.process(replier())
    system.run()
    assert sp.result == "first"
    assert node._replies == {}
    assert node.trace.count("dropped-packet") == 0


def test_register_op_rejects_duplicates():
    manager = VorxSystem(n_nodes=1).node(0).manager
    for op in ("open", "mc-join", "mc-open", "reply"):
        with pytest.raises(ValueError, match="already present"):
            manager.register_op(op, lambda request: None)
    manager.register_op("lookup", lambda request: None)
    with pytest.raises(ValueError, match="already present"):
        manager.register_op("lookup", lambda request: None)

