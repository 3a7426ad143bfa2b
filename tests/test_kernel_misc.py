"""Miscellaneous kernel behaviours: handlers, drops, interrupt coalescing."""

import pytest

from repro import VorxSystem
from repro.hpc.message import MessageKind


def test_register_handler_rejects_duplicates():
    system = VorxSystem(n_nodes=1, n_workstations=1)
    kernel = system.node(0)

    def handler(packet):
        yield kernel.isr_exec(1.0)

    kernel.register_handler(MessageKind.DOWNLOAD, handler)
    with pytest.raises(ValueError, match="already present"):
        kernel.register_handler(MessageKind.DOWNLOAD, handler)


def test_unhandled_kind_is_logged_and_dropped():
    system = VorxSystem(n_nodes=2)
    kernel = system.node(1)
    system.node(0).post(dst=kernel.address, size=16,
                        kind=MessageKind.DOWNLOAD)
    system.run()
    assert kernel.trace.count("dropped-packet") == 1


def test_interrupt_coalescing_single_overhead_per_burst():
    """A burst of arrivals is drained under one interrupt charge."""
    system = VorxSystem(n_nodes=2)
    receiver = system.node(1)
    received = []

    def rx_program(env):
        def handler(packet):
            # A slow handler (long ISR body) so arrivals outpace the
            # drain and a backlog forms behind the running ISR.
            yield env.kernel.isr_exec(400.0)
            received.append(packet.seq)

        yield from env.create_object("burst", handler=handler)
        yield from env.sleep(500_000.0)

    def tx_program(env):
        obj = yield from env.create_object("burst")
        for _ in range(10):
            yield from env.obj_send(obj, 1000)

    # Count ISR activations (each pays one interrupt_overhead charge).
    activations = []
    original_isr = receiver._isr

    def counting_isr():
        activations.append(system.sim.now)
        return original_isr()

    receiver._isr = counting_isr  # type: ignore[method-assign]
    system.spawn(1, rx_program)
    system.spawn(0, tx_program)
    system.run(until=1_000_000.0)
    assert len(received) == 10
    # The handler is slower than the arrival rate, so one running ISR
    # drains many queued messages: far fewer activations than messages.
    assert len(activations) < 6


def test_dispatch_out_of_band():
    """Packets found while polling are re-dispatched properly."""
    system = VorxSystem(n_nodes=2)
    results = {}

    def receiver(env):
        obj = yield from env.create_object("oob")
        env.disable_interrupts()
        # Wait for BOTH the user message and a channel-open request from
        # the peer to be sitting in the interface, then poll: the poll
        # must hand the non-object packet back to the kernel.
        yield env.kernel.sim.timeout(50_000.0)
        packet = yield from env.obj_poll(obj)
        results["polled"] = packet is not None
        env.enable_interrupts()
        ch = yield from env.open("late-channel")
        size, payload = yield from env.read(ch)
        results["channel"] = payload

    def sender(env):
        obj = yield from env.create_object("oob")
        yield from env.obj_send(obj, 8, payload="direct")
        ch = yield from env.open("late-channel")
        yield from env.write(ch, 8, payload="via-channel")

    system.spawn(0, receiver)
    system.spawn(1, sender)
    system.run(until=5_000_000.0)
    assert results.get("polled") is True
    assert results.get("channel") == "via-channel"


def test_kernel_repr():
    system = VorxSystem(n_nodes=1)
    assert "node0" in repr(system.node(0))


@pytest.mark.parametrize("masked_us", [100.0, 2_000.0])
def test_unmasking_drains_a_backlog_that_arrived_while_masked(masked_us):
    """A message that lands while the receiver is masked is read once it
    unmasks, however long the mask lasted: no later arrival is needed
    to raise the interrupt."""
    system = VorxSystem(n_nodes=2)
    done = {}

    def receiver(env):
        ch = yield from env.open("backlog")
        env.disable_interrupts()
        yield from env.compute(masked_us)
        env.enable_interrupts()
        done["read"] = yield from env.read(ch)

    def sender(env):
        ch = yield from env.open("backlog")
        yield from env.write(ch, 100, payload="x")
        done["written"] = True

    system.spawn(0, receiver)
    system.spawn(1, sender)
    system.run()
    assert done == {"read": (100, "x"), "written": True}
    assert system.node(0).iface.rx_pending == 0
