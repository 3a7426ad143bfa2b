"""Unit tests for the Meglos kernel itself (beyond the flow-control
experiments)."""


from repro.meglos import BusyRetransmit, MeglosSystem


def test_spawn_compute_and_profiling():
    system = MeglosSystem(n_nodes=2)

    def program(env):
        yield from env.compute(500.0, label="hot")
        yield from env.compute(100.0, label="cold")
        return env.node

    sp = system.spawn(0, program)
    system.run()
    assert sp.result == 0
    samples = system.node(0).prof_samples
    assert samples[(sp.process_name, "hot")] == 500.0


def test_sleep_blocks_and_resumes():
    system = MeglosSystem(n_nodes=2)
    times = []

    def program(env):
        yield from env.sleep(10_000.0)
        times.append(env.now)

    system.spawn(0, program)
    system.run()
    # 80 us initial dispatch + 10 ms sleep + wake overheads.
    assert 10_000.0 < times[0] < 11_000.0


def test_partial_discard_work_is_visible():
    """The kernel counts the partial messages it reads and discards."""
    system = MeglosSystem(n_nodes=4)

    def sender(env, who):
        yield from env.send(3, 900, strategy=BusyRetransmit())

    def receiver(env):
        got = 0
        while got < 3:
            yield from env.recv()
            got += 1

    for i in range(3):
        system.spawn(i, lambda env, i=i: sender(env, i))
    system.spawn(3, receiver)
    system.run(until=500_000.0)
    node = system.node(3)
    # Three 912-byte messages need 2736 bytes: the fifo (2048) overflows,
    # so at least one partial prefix was read and discarded.
    assert node.partials_discarded + node.iface.fifo.rejected > 0


def test_interrupt_masking_accumulates_in_fifo():
    system = MeglosSystem(n_nodes=2)

    def receiver(env):
        env.disable_interrupts()
        yield from env.sleep(50_000.0)
        depth_before = env.kernel.iface.fifo.depth
        env.enable_interrupts()
        packet = yield from env.recv()
        return depth_before, packet.size

    def sender(env):
        yield from env.send(1, 300)

    rx = system.spawn(1, receiver)
    system.spawn(0, sender)
    system.run()
    depth_before, size = rx.result
    assert depth_before == 1  # sat in the fifo while masked
    assert size == 300


def test_context_switch_accounting():
    system = MeglosSystem(n_nodes=2)

    def program(env):
        for _ in range(3):
            yield from env.sleep(100.0)

    system.spawn(0, program)
    system.run()
    # 1 initial dispatch + 3 sleep wakes.
    assert system.node(0).context_switches == 4


def test_send_returns_attempt_count():
    system = MeglosSystem(n_nodes=2)

    def sender(env):
        attempts = yield from env.send(1, 100)
        return attempts

    def receiver(env):
        yield from env.recv()

    tx = system.spawn(0, sender)
    system.spawn(1, receiver)
    system.run()
    assert tx.result == 1


def _reserve_twice_toward_node2(second_sender_node):
    system = MeglosSystem(n_nodes=3, recovery="reservation")

    def sender(env):
        yield from env.send(2, 200)
        return env.now

    def receiver(env):
        for _ in range(2):
            yield from env.recv()
        return env.now

    senders = [system.spawn(0, sender), system.spawn(second_sender_node, sender)]
    rx = system.spawn(2, receiver)
    system.run()
    return senders, rx


def test_two_reservations_from_one_node_toward_one_destination():
    """Each reserving subprocess gets its own grant, oldest first."""
    senders, rx = _reserve_twice_toward_node2(second_sender_node=0)
    assert all(not sp.is_live for sp in senders + [rx])
    assert all(sp.result is not None for sp in senders)
    assert rx.result > max(sp.result for sp in senders)


def test_reservations_from_two_nodes_toward_one_destination():
    senders, rx = _reserve_twice_toward_node2(second_sender_node=1)
    assert all(not sp.is_live for sp in senders + [rx])


def test_receiver_waiting_for_input_is_filed_idle_input():
    """The oscilloscope files a Meglos receiver's wait as idle-input."""
    from repro.sim.trace import Category
    from repro.tools.oscilloscope import SoftwareOscilloscope

    system = MeglosSystem(n_nodes=2)
    scope = SoftwareOscilloscope(system.nodes)

    def sender(env):
        yield from env.compute(5_000.0)
        yield from env.send(1, 100)

    def receiver(env):
        yield from env.recv()

    system.spawn(0, sender)
    system.spawn(1, receiver)
    system.run()
    idle = scope.capture().breakdown["m1"]
    assert idle[Category.IDLE_INPUT] > 5_000.0
    assert idle[Category.IDLE_OTHER] == 0.0


def test_kernel_counters_in_vstat():
    system = MeglosSystem(n_nodes=2)

    def program(env):
        yield from env.sleep(100.0)

    system.spawn(0, program)
    system.run()
    node = system.node(0)
    assert node.metrics.value("kernel.context_switches") == 2
    assert node.context_switches == 2
    assert node.metrics.value("kernel.blocks", labels=("timer",)) == 1
