"""Trace-fingerprint determinism tests for the engine's event ordering.

The engine promises a total order on simultaneous occurrences -- time,
then urgent before normal, then arrival -- and every experiment in the paper
reproduction leans on it.  These tests pin that order down with two
cryptographic digests of each seeded workload:

* the *schedule* digest: every ``TraceEvent``, the final clock and the
  processed count -- what moves only when the event schedule moves;
* the *state* digest: all of that plus the metric-registry snapshots
  and the delivered records -- what also moves when a counter is added
  or a delivered value changes.

A change that adds a metric moves only the state digest; a change that
reorders events moves both.  The workloads:

* the Table 2 channel stream (stop-and-wait, the hot path every
  benchmark exercises);
* the E19 faultstorm (seeded drop/corrupt/duplicate faults, timeout
  retransmission, watchdogs -- the most schedule-sensitive code paths);
* multi-fragment channel writes: fixed windows of 2 and 8 under seeded
  loss, and the E23 adaptive window with a slow reader;
* the Meglos kernel on the S/NET (software overflow recovery, the
  reservation handshake, centralized channel opens);
* hot-spot traffic on the bare ``snet`` fabric backend.

Each workload is run twice and must produce identical digests
(run-to-run determinism), and the digests must equal recorded golden
values, so any engine change that reorders events -- however subtly --
fails loudly here instead of silently skewing measurements.  The golden
values were recorded on the pre-fast-path heap-only engine; the
immediate-event lane must preserve them bit-for-bit.
"""

import hashlib
import json

from repro import FaultPlan, VorxSystem, create_fabric, run_all_pairs
from repro.hpc.message import MessageKind, Packet
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.vorx.sliding_window import run_channel_stream, run_large_write

#: ``(schedule, state)`` sha256 digests of the channel stream (processed
#: 1953).  If an engine change alters the schedule digest, event
#: ordering changed: do not update the constant without understanding
#: why.  The schedule digest has not moved since it was first taken.
#: The state digest was re-recorded twice, each time with the schedule
#: verified unchanged: once when the adaptive-window metrics
#: (``chan.window.size`` / ``chan.window.shrinks``) joined the per-kernel
#: registry snapshot, and once when the always-zero
#: ``cpu.context_switches`` counter left every CPU's registry
#: (79df3ce9... -> 6928e96b...; re-registering the counter restores
#: 79df3ce9...).
GOLDEN_CHANNELS = (
    "b3c775ce7012df9960740880868b5f765f0f09afc6f82b0c20206a01dfeb74d7",
    "6928e96bd2d96d6066806f5718781d8f9c5abcc433ea94a3c9b839157ccb97a8",
)

#: Same, for the seeded faultstorm workload (processed 1797; its state
#: digest was re-recorded alongside GOLDEN_CHANNELS both times, for the
#: same registry-snapshot reasons: 52b49476... -> 352f376c...).
GOLDEN_FAULTSTORM = (
    "15820b8d96866e88a729e7c6220f92353fcee8045baea74cc27f82106723493f",
    "352f376cf20a51afb24c603c1696bdf06fdef861cc1794d833e98b5e046d9517",
)

#: Schedule-sensitive :meth:`TrafficResult.fingerprint` of 1024
#: endpoints on the 256-cluster incomplete hypercube, bounded all-pairs
#: traffic (4 partners, 64-byte messages, 4096 deliveries).  Pins the
#: fabric layer's routing, link arbitration and flow-control schedule
#: at paper-plus scale.
GOLDEN_HYPERCUBE_1024 = (
    "45b0e74688f4bbf6182a47e103f9ce6baf52137087d7b27e50e43efd64d40243"
)


class Digests:
    """The schedule and state digests of one workload, fed together."""

    def __init__(self) -> None:
        self.schedule = hashlib.sha256()
        self.state = hashlib.sha256()

    def both(self, text: str) -> None:
        self.schedule.update(text.encode("utf-8"))
        self.state.update(text.encode("utf-8"))

    def add_state(self, text: str) -> None:
        self.state.update(text.encode("utf-8"))

    def simulation(self, sim, end: str = "") -> None:
        """Fold in a finished simulation: its trace and clock into both
        digests, its registry snapshots (between the two) into state."""
        for line in sim.vstat.events.to_jsonl():
            self.both(line + "\n")
        for name, snapshot in sorted(sim.vstat.snapshot().items()):
            self.add_state(json.dumps({"snapshot": name, **snapshot},
                                      default=repr) + "\n")
        self.both(f"now={sim.now!r} processed={sim.processed}{end}")

    def hexdigests(self) -> tuple[str, str]:
        return self.schedule.hexdigest(), self.state.hexdigest()


def fingerprints(sim) -> tuple[str, str]:
    """``(schedule, state)`` digests of a finished simulation."""
    digests = Digests()
    digests.simulation(sim)
    return digests.hexdigests()


def fingerprint(sim) -> str:
    """State digest of everything observable about a finished simulation."""
    return fingerprints(sim)[1]


def run_channels() -> tuple[str, str]:
    """Table 2 channel stream: 40 4-byte stop-and-wait messages."""
    result = run_channel_stream(4, n_messages=40)
    return fingerprints(result.sim)


def run_faultstorm() -> tuple[str, str]:
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
    return fingerprints(system.sim)


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


#: ``(schedule, state)`` digests of multi-fragment channel writes: fixed
#: windows of 2 and 8 fragments under seeded drop and corrupt faults
#: (the 8-window with a slow reader), the E23 adaptive window with a
#: slow lossy reader, and an adaptive window under heavy duplication,
#: where re-acks race deferred acks and timeout re-sends.  Pins the
#: batched path's go-back-N re-sends, cumulative, deferred and
#: duplicate acks, watchdogs and window moves, which the
#: single-fragment workloads above never reach.  Re-pinned once (from
#: c577877f... / d135b546...) when the receiver stopped re-acking a
#: duplicate whose original still owed its deferred ack.
GOLDEN_WINDOWS = (
    "5234d190353bf412c3dabbf3c45b8e102738dd656f6524e885ea4419b774be4c",
    "28282499b190060c12f462c2f8ab926e4a14e347bd2c2be4a652518b7ff3501c",
)


def run_windows() -> tuple[str, str]:
    digests = Digests()
    def plan(seed, drop=0.04, corrupt=0.02, duplicate=0.0):
        return FaultPlan(seed=seed, drop=drop, corrupt=corrupt,
                         duplicate=duplicate,
                         channel_retry_timeout_us=2_000.0)

    cases = (
        # name, costs, chunk bytes, reader delay, fault plan
        ("batched2", CostModel().batched(window=2), 16_384, 0.0,
         plan(1990)),
        ("batched8", CostModel().batched(window=8), 16_384, 60.0,
         plan(31337)),
        ("adaptive", CostModel().adaptive(), 65_536, 120.0,
         plan(1990, drop=0.02, corrupt=0.01)),
        ("duplicates", CostModel().adaptive(initial=16), 32_768, 300.0,
         plan(1990, duplicate=0.2)),
    )
    for name, costs, chunk_bytes, delay, faults in cases:
        result = run_large_write(
            total_bytes=4 * chunk_bytes, chunk_bytes=chunk_bytes,
            costs=costs, reader_delay_us=delay, faults=faults,
        )
        digests.both(f"{name}\n")
        digests.simulation(result.sim, end="\n")
        digests.add_state(f"elapsed={result.elapsed_us!r}\n")
    return digests.hexdigests()


def test_windows_fingerprint_run_to_run():
    assert run_windows() == run_windows()


def test_windows_fingerprint_golden():
    assert run_windows() == GOLDEN_WINDOWS


def test_hypercube_1024_fingerprint_run_to_run():
    assert run_hypercube_1024() == run_hypercube_1024()


def test_hypercube_1024_fingerprint_golden():
    assert run_hypercube_1024() == GOLDEN_HYPERCUBE_1024


#: ``(schedule, state)`` sha256 digests of the Meglos kernel on the
#: S/NET: E7's many-to-one burst under each overflow-recovery policy,
#: the reservation handshake with its request and grant both rejected
#: and retried, and channel exchanges through the centralized manager
#: (the E9 path) with data, open replies and acknowledgements rejected
#: and retried.  Pins every transmit-until-accepted loop, the kernel's
#: subprocess scheduling and the ISR's fifo drain.  The state digest
#: takes only the ``snet*`` registry snapshots, so that kernel counters
#: can be added to the Meglos nodes without moving it.  Split from the
#: bare-fabric cell below; the pair reads the same on the tree before
#: the ISR moved onto the shared drain of :mod:`repro.snet.recovery`,
#: so that move changed no Meglos event.
GOLDEN_MEGLOS_KERNEL = (
    "2cf0462a3a257fc7aa00352bb5c4aaadaf482384f6c455e0a4a2530097bec4d8",
    "6592b8074c57fe3689777e82331ec08102e5aeedac093a534434ef88cea265a7",
)

#: Same, for hot-spot traffic on the bare ``snet`` fabric backend: its
#: random-backoff sends and its timed receive drain.  Pinned when the
#: bare fabric moved onto that shared recovery code; the combined pair
#: before the split was 3027321f... / 225a7e54....
GOLDEN_SNET_FABRIC = (
    "3e07ede717beffcccc5734274e989dbee03a2113838c11ddd5ed9fecf2c8fd2b",
    "1694d59cf1363d824e6684a9b1662c3e582124b84b9585bbc28d7d2ef7bf6ace",
)


def _snet_state(digests, sim, partials) -> None:
    """Fold the schedule-sensitive S/NET state of ``sim`` into ``digests``."""
    for line in sim.vstat.events.to_jsonl():
        digests.both(line + "\n")
    for name, snapshot in sim.vstat.snapshot().items():
        if name.startswith("snet"):
            digests.add_state(f"{name}={snapshot!r}\n")
    digests.add_state(f"partials={partials!r}\n")
    digests.both(f"now={sim.now!r} processed={sim.processed}\n")


def _meglos_state(digests, system, delivered) -> None:
    _snet_state(
        digests, system.sim, [node.partials_discarded for node in system.nodes]
    )
    for node in system.nodes:
        cpu = node.cpu
        digests.add_state(
            f"{node.name} user={cpu.user_us!r} sys={cpu.system_us!r}\n"
        )
    for record in delivered:
        digests.add_state(f"{record!r}\n")


def run_meglos_kernel() -> tuple[str, str]:
    from repro.meglos import MeglosSystem, RandomBackoff, install_channels

    digests = Digests()
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
        digests.both(f"policy={policy}\n")
        _meglos_state(digests, system, delivered)

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
    digests.both("reservation-retries\n")
    _meglos_state(digests, system, delivered)

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
    digests.both("channels\n")
    _meglos_state(digests, system, delivered)

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
    digests.both("channel-control-retries\n")
    _meglos_state(digests, system, delivered)
    return digests.hexdigests()


def run_snet_fabric() -> tuple[str, str]:
    """The bare fabric backend: three senders burst 900-byte messages at
    endpoint 0 while its receive interrupt is masked for 3 ms, so the
    fifo overflows and SNetFabric.send retries."""
    digests = Digests()
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
    digests.both("fabric\n")
    _snet_state(digests, sim, fabric.partials_discarded)
    digests.add_state(f"retries={fabric.retries}\n")
    for record in delivered:
        digests.add_state(f"{record!r}\n")
    return digests.hexdigests()


def test_meglos_kernel_fingerprint_run_to_run():
    assert run_meglos_kernel() == run_meglos_kernel()


def test_meglos_kernel_fingerprint_golden():
    assert run_meglos_kernel() == GOLDEN_MEGLOS_KERNEL


def test_snet_fabric_fingerprint_run_to_run():
    assert run_snet_fabric() == run_snet_fabric()


def test_snet_fabric_fingerprint_golden():
    assert run_snet_fabric() == GOLDEN_SNET_FABRIC
