"""Trace-fingerprint determinism tests for the engine's event ordering.

The engine promises a total order on simultaneous occurrences -- time,
then urgent before normal, then arrival -- and every experiment in the paper
reproduction leans on it.  These tests pin that order down with a
cryptographic fingerprint over the full structured trace (every
``TraceEvent`` plus the final metric snapshots, clock, and processed
count) of seeded workloads:

* the Table 2 channel stream (stop-and-wait, the hot path every
  benchmark exercises);
* the E19 faultstorm (seeded drop/corrupt/duplicate faults, timeout
  retransmission, watchdogs -- the most schedule-sensitive code paths);
* the Meglos kernel on the S/NET (software overflow recovery, the
  reservation handshake, centralized channel opens).

Each workload is run twice and must produce identical digests
(run-to-run determinism), and the digest must equal a recorded golden
value, so any engine change that reorders events -- however subtly --
fails loudly here instead of silently skewing measurements.  The golden
values were recorded on the pre-fast-path heap-only engine; the
immediate-event lane must preserve them bit-for-bit.
"""

import hashlib

from repro import FaultPlan, VorxSystem, create_fabric, run_all_pairs
from repro.hpc.message import MessageKind, Packet
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.vorx.sliding_window import run_channel_stream

#: sha256 over the channel-stream trace.  If an engine change alters
#: this, event ordering changed: do not update the constant without
#: understanding why.  Re-recorded once when the adaptive-window
#: metrics (``chan.window.size`` / ``chan.window.shrinks``) joined the
#: per-kernel registry snapshot -- the event schedule itself was
#: verified bit-identical (events-only digest unchanged).  Re-recorded
#: again when the always-zero ``cpu.context_switches`` counter left
#: every CPU's registry (the CPU lost its unused ``switch_cost`` mode):
#: 79df3ce9... -> 6928e96b....  The events-only digest (trace events
#: plus ``now`` and ``processed``) stayed b3c775ce7012df99... with
#: processed 1953, and re-registering the counter restores 79df3ce9....
GOLDEN_CHANNELS = (
    "6928e96bd2d96d6066806f5718781d8f9c5abcc433ea94a3c9b839157ccb97a8"
)

#: Same, for the seeded faultstorm workload (re-recorded alongside
#: GOLDEN_CHANNELS both times, for the same registry-snapshot reasons:
#: 52b49476... -> 352f376c...; events-only digest 15820b8d96866e88...
#: with processed 1797 throughout, and re-registering the counter
#: restores 52b49476...).
GOLDEN_FAULTSTORM = (
    "352f376cf20a51afb24c603c1696bdf06fdef861cc1794d833e98b5e046d9517"
)

#: Schedule-sensitive :meth:`TrafficResult.fingerprint` of 1024
#: endpoints on the 256-cluster incomplete hypercube, bounded all-pairs
#: traffic (4 partners, 64-byte messages, 4096 deliveries).  Pins the
#: fabric layer's routing, link arbitration and flow-control schedule
#: at paper-plus scale.
GOLDEN_HYPERCUBE_1024 = (
    "45b0e74688f4bbf6182a47e103f9ce6baf52137087d7b27e50e43efd64d40243"
)


def fingerprint(sim) -> str:
    """Digest of everything observable about a finished simulation."""
    digest = hashlib.sha256()
    for line in sim.vstat.to_jsonl():
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    digest.update(f"now={sim.now!r} processed={sim.processed}".encode())
    return digest.hexdigest()


def run_channels() -> str:
    """Table 2 channel stream: 40 4-byte stop-and-wait messages."""
    result = run_channel_stream(4, n_messages=40)
    return fingerprint(result.sim)


def run_faultstorm() -> str:
    """E19 storm: two channel pairs under seeded message faults."""
    plan = FaultPlan(
        seed=7, drop=0.08, corrupt=0.05, duplicate=0.05,
        channel_retry_timeout_us=2_000.0,
    )
    system = VorxSystem(n_nodes=4, faults=plan)

    def sender(env, pair):
        with (yield from env.channel(f"det{pair}")) as ch:
            for i in range(12):
                yield from env.write(ch, 256, payload=f"m{pair}.{i}")

    def receiver(env, pair):
        got = []
        with (yield from env.channel(f"det{pair}")) as ch:
            for _ in range(12):
                _, payload = yield from env.read(ch)
                got.append(payload)
        return got

    receivers = []
    for pair in range(2):
        system.spawn(2 * pair, lambda env, pair=pair: sender(env, pair))
        receivers.append(
            system.spawn(2 * pair + 1, lambda env, pair=pair: receiver(env, pair))
        )
    system.run()
    for pair, rx in enumerate(receivers):
        assert rx.result == [f"m{pair}.{i}" for i in range(12)]
    return fingerprint(system.sim)


def test_channels_fingerprint_run_to_run():
    assert run_channels() == run_channels()


def test_channels_fingerprint_golden():
    assert run_channels() == GOLDEN_CHANNELS


def test_faultstorm_fingerprint_run_to_run():
    assert run_faultstorm() == run_faultstorm()


def test_faultstorm_fingerprint_golden():
    assert run_faultstorm() == GOLDEN_FAULTSTORM


def run_hypercube_1024():
    """The hypercube side of README's 1024-endpoint topology comparison
    (the HyperX and mesh sides are pinned in test_fabric_backends)."""
    sim = Simulator()
    sim.vstat.events.disable()
    fabric = create_fabric("hypercube", sim, CostModel(), n_endpoints=1024)
    result = run_all_pairs(fabric, size=64, partners=4)
    assert result.delivered == result.sent == 4096
    return result.fingerprint()


def test_hypercube_1024_fingerprint_run_to_run():
    assert run_hypercube_1024() == run_hypercube_1024()


def test_hypercube_1024_fingerprint_golden():
    assert run_hypercube_1024() == GOLDEN_HYPERCUBE_1024


#: sha256 over the Meglos/S-NET schedules: E7's many-to-one burst under
#: each overflow-recovery policy, the reservation handshake with its
#: request and grant both rejected and retried, channel exchanges
#: through the centralized manager (the E9 path) with data, open
#: replies and acknowledgements rejected and retried, and hot-spot
#: traffic on the bare ``snet`` fabric backend.  Pins every transmit-until-
#: accepted loop, the kernel's subprocess scheduling and the fifo drain.  Whole node-registry
#: snapshots are left out so that kernel counters can be added to the
#: Meglos nodes without moving it.
GOLDEN_MEGLOS_SNET = (
    "225a7e54570287e913c65fdef690095b0a19c9bf76e1269cf15d6ff6a85edfba"
)


def _snet_state(digest, sim, partials) -> None:
    """Fold the schedule-sensitive S/NET state of ``sim`` into ``digest``."""
    for line in sim.vstat.events.to_jsonl():
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    for name, snapshot in sim.vstat.snapshot().items():
        if name.startswith("snet"):
            digest.update(f"{name}={snapshot!r}\n".encode())
    digest.update(f"partials={partials!r}\n".encode())
    digest.update(f"now={sim.now!r} processed={sim.processed}\n".encode())


def _meglos_state(digest, system, delivered) -> None:
    _snet_state(
        digest, system.sim, [node.partials_discarded for node in system.nodes]
    )
    for node in system.nodes:
        cpu = node.cpu
        digest.update(
            f"{node.name} user={cpu.user_us!r} sys={cpu.system_us!r}\n".encode()
        )
    for record in delivered:
        digest.update(f"{record!r}\n".encode())


def run_meglos_snet() -> str:
    from repro.meglos import MeglosSystem, RandomBackoff, install_channels

    digest = hashlib.sha256()
    # E7: four senders, one per node, burst 1000-byte messages at node 4.
    for policy, until in (("busy-retransmit", 60_000.0),
                          ("random-backoff", None),
                          ("reservation", None)):
        system = MeglosSystem(n_nodes=5, recovery=policy)
        delivered = []

        def sender(env):
            attempts = yield from env.send(4, 1000, payload=f"n{env.node}")
            delivered.append(("sent", env.node, attempts, env.now))

        def receiver(env):
            for _ in range(4):
                packet = yield from env.recv()
                delivered.append(
                    (env.now, packet.src, packet.size, packet.payload)
                )

        for node in range(4):
            system.spawn(node, sender)
        system.spawn(4, receiver)
        system.run(until=until)
        digest.update(f"policy={policy}\n".encode())
        _meglos_state(digest, system, delivered)

    # The reservation handshake under pressure: random-backoff fillers
    # cram the fifos of two masked nodes, so node 0's request to node 2
    # and node 2's grant back to node 0 are each rejected and retried.
    system = MeglosSystem(n_nodes=4, recovery="reservation")
    delivered = []

    def masked_receiver(count, unmask_at):
        def program(env):
            env.disable_interrupts()
            yield from env.sleep(unmask_at - env.now)
            env.enable_interrupts()
            for _ in range(count):
                packet = yield from env.recv()
                delivered.append((env.now, env.node, packet.src,
                                  packet.size, packet.payload))
        return program

    def filler(dst):
        def program(env):
            for i in range(2):
                attempts = yield from env.send(
                    dst, 1010, strategy=RandomBackoff(seed=env.node),
                    payload=i,
                )
                delivered.append(("sent", env.node, attempts, env.now))
        return program

    def reserver(env):
        yield from env.sleep(1_000.0)
        attempts = yield from env.send(2, 500, payload="reserved")
        delivered.append(("sent", env.node, attempts, env.now))

    system.spawn(2, masked_receiver(3, 3_000.0))
    system.spawn(0, masked_receiver(2, 6_000.0))
    system.spawn(1, filler(2))
    system.spawn(3, filler(0))
    system.spawn(0, reserver)
    system.run()
    assert len(delivered) == 10
    digest.update(b"reservation-retries\n")
    _meglos_state(digest, system, delivered)

    # E9 path: three writers open channels through the host's manager,
    # then burst 700-byte messages (random backoff) at a reader whose
    # receive interrupt is masked, so the fifo overflows and the channel
    # sends retry.
    system = MeglosSystem(n_nodes=5)
    services = install_channels(system)
    delivered = []

    def writer(env):
        service = services[env.node]
        ch = yield from service.open(env.subprocess, f"golden{env.node}")
        yield from env.sleep(80_000.0 - env.now)
        for i in range(2):
            yield from service.write(
                env.subprocess, ch, 700, payload=(env.node, i),
                strategy=RandomBackoff(seed=env.node),
            )

    def reader(env):
        service = services[env.node]
        channels = []
        for node in (1, 2, 3):
            ch = yield from service.open(env.subprocess, f"golden{node}")
            channels.append(ch)
        env.disable_interrupts()
        yield from env.sleep(83_000.0 - env.now)
        env.enable_interrupts()
        for ch in channels:
            for _ in range(2):
                size, payload = yield from service.read(env.subprocess, ch)
                delivered.append((env.now, size, payload))

    for node in (1, 2, 3):
        system.spawn(node, writer)
    system.spawn(4, reader)
    system.run()
    assert len(delivered) == 6
    digest.update(b"channels\n")
    _meglos_state(digest, system, delivered)

    # Channel control messages under pressure: random-backoff fillers
    # cram masked fifos, so the manager's open replies to nodes 1 and 3
    # and node 1's data acknowledgement to node 3 are rejected and
    # retried.
    system = MeglosSystem(n_nodes=5)
    services = install_channels(system)
    delivered = []

    def masked_window(mask_at, unmask_at, count):
        def program(env):
            yield from env.sleep(mask_at)
            env.disable_interrupts()
            yield from env.sleep(unmask_at - env.now)
            env.enable_interrupts()
            for _ in range(count):
                packet = yield from env.recv()
                delivered.append((env.now, env.node, packet.src,
                                  packet.size, packet.payload))
        return program

    def late_filler(dst, start):
        def program(env):
            yield from env.sleep(start)
            for i in range(2):
                yield from env.send(
                    dst, 1010, strategy=RandomBackoff(seed=env.node),
                    payload=i,
                )
        return program

    def ctrl_reader(env):
        service = services[env.node]
        ch = yield from service.open(env.subprocess, "ctrl")
        delivered.append(("opened", env.node, env.now))
        size, payload = yield from service.read(env.subprocess, ch)
        delivered.append((env.now, size, payload))

    def ctrl_writer(env):
        service = services[env.node]
        ch = yield from service.open(env.subprocess, "ctrl")
        delivered.append(("opened", env.node, env.now))
        yield from env.sleep(60_000.0 - env.now)
        yield from service.write(env.subprocess, ch, 300, payload="w",
                                 strategy=RandomBackoff(seed=env.node))
        delivered.append(("acked", env.node, env.now))

    system.spawn(1, masked_window(1.0, 20_000.0, 2))
    system.spawn(1, ctrl_reader)
    system.spawn(2, late_filler(1, 1.0))
    system.spawn(3, ctrl_writer)
    system.spawn(3, masked_window(10_000.0, 40_000.0, 2))
    system.spawn(4, late_filler(3, 12_000.0))
    system.spawn(3, masked_window(50_000.0, 80_000.0, 2))
    system.spawn(4, late_filler(3, 52_000.0))
    system.run()
    assert len(delivered) == 10
    digest.update(b"channel-control-retries\n")
    _meglos_state(digest, system, delivered)

    # The bare fabric backend: three senders burst 900-byte messages at
    # endpoint 0 while its receive interrupt is masked for 3 ms, so the
    # fifo overflows and SNetFabric.send retries.
    sim = Simulator()
    fabric = create_fabric("snet", sim, CostModel(), n_endpoints=4)
    delivered = []
    fabric.iface(0).interrupts_enabled = False

    def unmask():
        yield sim.timeout(3_000.0)
        fabric.iface(0).interrupts_enabled = True

    def fabric_sender(src):
        for i in range(3):
            packet = Packet(src=src, dst=0, size=900,
                            kind=MessageKind.USER_OBJECT, payload=(src, i))
            yield from fabric.send(src, packet)

    def fabric_receiver():
        for _ in range(9):
            packet = yield from fabric.recv(0)
            delivered.append((sim.now, packet.src, packet.size,
                              packet.payload, packet.hops))

    sim.process(unmask())
    sim.process(fabric_receiver())
    for src in (1, 2, 3):
        sim.process(fabric_sender(src))
    sim.run()
    assert len(delivered) == 9
    digest.update(b"fabric\n")
    _snet_state(digest, sim, fabric.partials_discarded)
    digest.update(f"retries={fabric.retries}\n".encode())
    for record in delivered:
        digest.update(f"{record!r}\n".encode())
    return digest.hexdigest()


def test_meglos_snet_fingerprint_run_to_run():
    assert run_meglos_snet() == run_meglos_snet()


def test_meglos_snet_fingerprint_golden():
    assert run_meglos_snet() == GOLDEN_MEGLOS_SNET
