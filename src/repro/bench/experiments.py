"""Runners for every table, figure, and in-text measurement in the paper.

Each ``experiment_*`` function regenerates one row of the DESIGN.md
experiment index and returns a structured result carrying both the
measured data and a :class:`~repro.bench.harness.ComparisonTable` against
the paper's published numbers where they exist.  The pytest-benchmark
modules under ``benchmarks/`` and ``scripts/run_experiments.py`` are thin
wrappers around these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.bench.harness import ComparisonTable, format_table

# ---------------------------------------------------------------------------
# Paper-published values
# ---------------------------------------------------------------------------
#: Table 1: (buffers, bytes) -> us/message.
PAPER_TABLE1 = {
    (1, 4): 414, (1, 64): 451, (1, 256): 574, (1, 1024): 1071,
    (2, 4): 290, (2, 64): 317, (2, 256): 412, (2, 1024): 787,
    (4, 4): 227, (4, 64): 251, (4, 256): 330, (4, 1024): 644,
    (8, 4): 196, (8, 64): 218, (8, 256): 289, (8, 1024): 573,
    (16, 4): 179, (16, 64): 200, (16, 256): 267, (16, 1024): 535,
    (32, 4): 172, (32, 64): 192, (32, 256): 257, (32, 1024): 518,
    (64, 4): 164, (64, 64): 184, (64, 256): 248, (64, 1024): 504,
}
#: Table 2: bytes -> us/message.
PAPER_TABLE2 = {4: 303, 64: 341, 256: 474, 1024: 997}
PAPER_CHANNEL_KBPS = 1027.0  # Section 4, 1024-byte messages
PAPER_UD_LATENCY_US = 60.0  # Section 4.1, 64-byte, no protocol
PAPER_BITMAP_MBPS = 3.2  # Section 4.1
PAPER_CONTEXT_SWITCH_US = 80.0  # Section 5
PAPER_DOWNLOAD_PER_PROCESS_S = 12.0  # Section 3.3, 70 processes
PAPER_DOWNLOAD_TREE_S = 2.0  # Section 3.3, 70 processes
PAPER_FIFO_RULE = (12, 150)  # Section 2: 12 x 150-byte messages fit


@dataclass
class ExperimentResult:
    """Uniform wrapper: id, data, text report, paper comparison."""

    experiment_id: str
    title: str
    data: Any
    report: str
    comparison: Optional[ComparisonTable] = None

    def markdown(self) -> str:
        lines = [f"## {self.experiment_id}: {self.title}", ""]
        if self.comparison is not None:
            lines.append(self.comparison.markdown())
            lines.append("")
        lines.append("```")
        lines.append(self.report)
        lines.append("```")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# E1 / Table 1
# ---------------------------------------------------------------------------
def experiment_table1(
    n_messages: int = 1000,
    buffers=(1, 2, 4, 8, 16, 32, 64),
    sizes=(4, 64, 256, 1024),
) -> ExperimentResult:
    """Table 1: reader-active sliding-window latency."""
    from repro.vorx.sliding_window import run_sliding_window

    measured: dict[tuple[int, int], float] = {}
    for k in buffers:
        for size in sizes:
            result = run_sliding_window(k, size, n_messages=n_messages)
            measured[(k, size)] = result.us_per_message
    comparison = ComparisonTable("Table 1: sliding-window latency (us/msg)")
    for key in sorted(measured):
        if key in PAPER_TABLE1:
            comparison.add(
                f"k={key[0]}, {key[1]}B", PAPER_TABLE1[key], measured[key],
                "us/msg",
            )
    comparison.note(
        "shape fidelity: monotone 1/k falloff, k=1 worse than channels, "
        "k>=2 better -- all reproduced; mid-k cells run 10-20% fast "
        "because our receiver pipelines credit generation with "
        "consumption slightly more aggressively than the 1988 code did"
    )
    rows = []
    for k in buffers:
        rows.append([k] + [measured[(k, s)] for s in sizes])
    report = format_table(
        ["buffers"] + [f"{s}B us/msg" for s in sizes], rows
    )
    return ExperimentResult("E1", "Sliding-window protocol (Table 1)",
                            measured, report, comparison)


# ---------------------------------------------------------------------------
# E2+E3 / Table 2 and channel bandwidth
# ---------------------------------------------------------------------------
def experiment_table2(
    n_messages: int = 1000, sizes=(4, 64, 256, 1024)
) -> ExperimentResult:
    """Table 2: channel (stop-and-wait) latency + Section 4 bandwidth."""
    from repro.vorx.sliding_window import run_channel_stream

    measured = {}
    kbps_1024 = None
    for size in sizes:
        result = run_channel_stream(size, n_messages=n_messages)
        measured[size] = result.us_per_message
        if size == 1024:
            kbps_1024 = result.kbytes_per_sec
    comparison = ComparisonTable("Table 2: channel latency (us/msg)")
    for size in sizes:
        if size in PAPER_TABLE2:
            comparison.add(f"{size}B", PAPER_TABLE2[size], measured[size],
                           "us/msg")
    if kbps_1024 is not None:
        comparison.add("bandwidth @1024B", PAPER_CHANNEL_KBPS, kbps_1024,
                       "kbyte/s")
    report = format_table(
        ["bytes", "us/msg"], [[s, measured[s]] for s in sizes]
    )
    return ExperimentResult("E2", "Channel stop-and-wait (Table 2)",
                            measured, report, comparison)


# ---------------------------------------------------------------------------
# E4: user-defined objects, no protocol
# ---------------------------------------------------------------------------
def experiment_userdefined_latency(rounds: int = 500) -> ExperimentResult:
    from repro.apps.spice import measure_userdefined_latency

    result = measure_userdefined_latency(message_bytes=64, rounds=rounds)
    comparison = ComparisonTable("E4: no-protocol user-defined objects")
    comparison.add("64B one-way latency", PAPER_UD_LATENCY_US,
                   result.one_way_us, "us")
    report = (
        f"polling ping-pong, {rounds} rounds, 64-byte messages, "
        f"interrupts disabled\none-way latency: {result.one_way_us:.1f} us"
    )
    return ExperimentResult("E4", "SPICE-style direct hardware access",
                            result, report, comparison)


# ---------------------------------------------------------------------------
# E5: bitmap streaming
# ---------------------------------------------------------------------------
def experiment_bitmap(frames: int = 3) -> ExperimentResult:
    from repro.apps.bitmap import run_bitmap_stream

    result = run_bitmap_stream(frames=frames)
    comparison = ComparisonTable("E5: real-time bitmap streaming")
    comparison.add("stream rate", PAPER_BITMAP_MBPS, result.mbytes_per_sec,
                   "Mbyte/s")
    comparison.add("900x900 bi-level refresh", 30.0, result.frames_per_sec,
                   "frames/s")
    report = (
        f"{frames} frames of {result.frame_bytes} bytes, no software flow "
        f"control\nrate: {result.mbytes_per_sec:.2f} Mbyte/s, "
        f"{result.frames_per_sec:.1f} frames/s "
        f"(30 Hz target {'met' if result.refreshes_900x900_at_30hz else 'MISSED'})"
    )
    return ExperimentResult("E5", "Bitmap streaming to a workstation",
                            result, report, comparison)


# ---------------------------------------------------------------------------
# E6: 2DFFT, multicast vs point-to-point
# ---------------------------------------------------------------------------
def experiment_fft2d(n: int = 32, ps=(2, 4, 8)) -> ExperimentResult:
    from repro.apps.fft2d import run_fft2d

    rows = []
    data = {}
    for p in ps:
        mc = run_fft2d(n=n, p=p, strategy="multicast")
        pp = run_fft2d(n=n, p=p, strategy="point-to-point")
        assert mc.correct and pp.correct
        rows.append([
            p, round(mc.elapsed_ms, 1), round(pp.elapsed_ms, 1),
            round(mc.bytes_read_per_node), round(pp.bytes_read_per_node),
            f"{mc.bytes_read_per_node / pp.bytes_read_per_node:.1f}x",
        ])
        data[p] = {"multicast": mc, "point-to-point": pp}
    report = (
        f"{n}x{n} image, both strategies verified against numpy.fft.fft2\n"
        + format_table(
            ["P", "mc ms", "p2p ms", "mc B/node", "p2p B/node", "waste"],
            rows,
        )
        + "\npaper's example at N=P=256: each multicast receiver reads "
        "65536 values needing only 256 (256x waste)."
    )
    comparison = ComparisonTable("E6: multicast is inappropriate (2DFFT)")
    biggest = max(ps)
    comparison.add(
        f"waste ratio at P={biggest} (expect P)", float(biggest),
        data[biggest]["multicast"].bytes_read_per_node
        / data[biggest]["point-to-point"].bytes_read_per_node,
        "x",
    )
    return ExperimentResult("E6", "2DFFT result distribution", data, report,
                            comparison)


# ---------------------------------------------------------------------------
# E7 + E13: flow control under many-to-one
# ---------------------------------------------------------------------------
def experiment_flow_control(
    n_senders: int = 6,
    message_bytes: int = 1000,
    deadline_us: float = 2_000_000.0,
) -> ExperimentResult:
    """Many-to-one long messages: four recovery schemes vs. HPC hardware."""
    from repro.meglos import (
        BusyRetransmit, MeglosSystem, RandomBackoff, Reservation,
    )
    from repro.vorx.system import VorxSystem

    rows = []
    data = {}

    def run_meglos(strategy_factory, label):
        system = MeglosSystem(n_nodes=n_senders + 1)
        completed = []

        def sender(env, who):
            yield from env.send(n_senders, message_bytes,
                                strategy=strategy_factory(who))
            completed.append(env.now)

        def receiver(env):
            got = 0
            while got < n_senders:
                yield from env.recv()
                got += 1
            return env.now

        for i in range(n_senders):
            system.spawn(i, lambda env, i=i: sender(env, i))
        rx = system.spawn(n_senders, receiver)
        system.run(until=deadline_us)
        finished = not rx.process.is_alive
        elapsed = rx.result if finished else float("inf")
        node = system.node(n_senders)
        data[label] = {
            "finished": finished,
            "elapsed_us": elapsed,
            "senders_done": len(completed),
            "partials_discarded": node.partials_discarded,
        }
        rows.append([
            label,
            "yes" if finished else "LOCKOUT",
            f"{elapsed / 1000:.1f}" if finished else f">{deadline_us / 1000:.0f}",
            len(completed),
            node.partials_discarded,
        ])

    run_meglos(lambda i: BusyRetransmit(), "snet busy-retransmit")
    run_meglos(lambda i: RandomBackoff(seed=i), "snet random-backoff")
    run_meglos(lambda i: Reservation(), "snet reservation")

    # The same workload on HPC/VORX channels (hardware flow control).
    vorx = VorxSystem(n_nodes=n_senders + 1)

    def v_sender(env, who):
        ch = yield from env.open(f"m2o-{who}")
        yield from env.write(ch, message_bytes)

    def v_receiver(env):
        channels = []
        for who in range(n_senders):
            ch = yield from env.open(f"m2o-{who}")
            channels.append(ch)
        for _ in range(n_senders):
            yield from env.read_any(channels)
        return env.now

    for i in range(n_senders):
        vorx.spawn(i, lambda env, i=i: v_sender(env, i))
    v_rx = vorx.spawn(n_senders, v_receiver)
    vorx.run()
    data["hpc hardware"] = {
        "finished": True, "elapsed_us": v_rx.result,
        "senders_done": n_senders, "partials_discarded": 0,
    }
    rows.append(["hpc hardware", "yes", f"{v_rx.result / 1000:.1f}",
                 n_senders, 0])
    report = (
        f"{n_senders} senders -> 1 receiver, {message_bytes}-byte messages\n"
        + format_table(
            ["scheme", "completed", "ms", "senders done", "partials read"],
            rows,
        )
    )
    return ExperimentResult(
        "E7", "Flow control: S/NET schemes vs HPC hardware", data, report
    )


# ---------------------------------------------------------------------------
# E8: the fifo sizing rule
# ---------------------------------------------------------------------------
def experiment_fifo_sizing(max_extra: int = 2) -> ExperimentResult:
    """Burst fit: 12 x 150-byte messages fit; more overflow."""
    from repro.snet.fifo import SNetFifo
    from repro.model.costs import DEFAULT_COSTS

    rows = []
    data = {}
    for n in range(10, 13 + max_extra):
        fifo = SNetFifo(DEFAULT_COSTS.snet_fifo_bytes,
                        DEFAULT_COSTS.snet_header_bytes)
        from repro.hpc.message import MessageKind, Packet

        rejected = 0
        for i in range(n):
            ok = fifo.offer(Packet(src=i, dst=99, size=150,
                                   kind=MessageKind.CHANNEL_DATA))
            rejected += 0 if ok else 1
        rows.append([n, n * 162, rejected])
        data[n] = rejected
    report = (
        "simultaneous 150-byte messages into one 2048-byte fifo "
        "(12-byte headers)\n"
        + format_table(["senders", "bytes offered", "rejected"], rows)
    )
    comparison = ComparisonTable("E8: fifo sizing rule (Section 2)")
    comparison.add("rejections at 12 senders", 0, float(data[12]), "msgs")
    comparison.add("first overflow at N senders", 13.0,
                   float(min(n for n, r in data.items() if r > 0)), "senders")
    return ExperimentResult("E8", "S/NET fifo sizing rule", data, report,
                            comparison)


# ---------------------------------------------------------------------------
# E9: object manager organisation
# ---------------------------------------------------------------------------
def experiment_object_manager(
    node_counts=(2, 4, 8, 16), opens_per_node: int = 4
) -> ExperimentResult:
    """Channel-open setup time: centralized vs distributed manager."""
    from repro.vorx.system import VorxSystem

    rows = []
    data = {}
    for p in node_counts:
        times = {}
        for organisation in ("centralized", "distributed"):
            system = VorxSystem(n_nodes=p, manager=organisation)
            jobs = []

            def opener(env, me):
                # Ring channels: each name "ring-<i>-<c>" is opened by
                # node i and node i+1, so every open pairs exactly once.
                # Parity-alternating order avoids a circular wait among
                # the (sequential, blocking) opens.
                own = [f"ring-{me}-{c}" for c in range(opens_per_node)]
                prev = [f"ring-{(me - 1) % p}-{c}"
                        for c in range(opens_per_node)]
                ordered = own + prev if me % 2 == 0 else prev + own
                channels = []
                for name in ordered:
                    ch = yield from env.open(name)
                    channels.append(ch)
                return len(channels)

            for i in range(p):
                jobs.append(system.spawn(i, lambda env, i=i: opener(env, i)))
            system.run_until_complete(jobs)
            times[organisation] = system.sim.now
        # The real thing for context: Meglos channels on the S/NET, every
        # open through the host's centralized manager (possible only up
        # to the S/NET's 12-processor limit).
        meglos_ms = None
        if p + 1 <= 12:
            from repro.meglos import MeglosSystem
            from repro.meglos.channels import install_channels

            msystem = MeglosSystem(n_nodes=p + 1)  # +1 = the host
            mservices = install_channels(msystem)
            mjobs = []

            def m_opener(env, me, service):
                # Nodes are 1..p (0 is the host/manager); ring channels
                # with parity-alternating order, as in the VORX runs.
                own = [f"mring-{me}-{c}" for c in range(opens_per_node)]
                prev_node = (me - 2) % p + 1
                prev = [f"mring-{prev_node}-{c}"
                        for c in range(opens_per_node)]
                ordered = own + prev if me % 2 == 0 else prev + own
                for name in ordered:
                    yield from service.open(env.subprocess, name)

            for i in range(1, p + 1):
                mjobs.append(msystem.spawn(
                    i, lambda env, i=i: m_opener(env, i, mservices[i])
                ))
            msystem.run()
            if all(not sp.process.is_alive for sp in mjobs):
                meglos_ms = msystem.sim.now / 1000
        speedup = times["centralized"] / times["distributed"]
        rows.append([p, "-" if meglos_ms is None else round(meglos_ms, 1),
                     round(times["centralized"] / 1000, 1),
                     round(times["distributed"] / 1000, 1),
                     f"{speedup:.1f}x"])
        data[p] = dict(times, meglos_ms=meglos_ms)
    report = (
        f"{opens_per_node} channel opens per node during application "
        "start-up\n"
        + format_table(
            ["nodes", "meglos/snet ms", "centralized ms",
             "distributed ms", "speedup"],
            rows,
        )
        + "\npaper: centralization is 'a serious performance bottleneck "
        "for systems with over ten processors' (Section 3.2)"
    )
    return ExperimentResult("E9", "Object manager: centralized vs distributed",
                            data, report)


# ---------------------------------------------------------------------------
# E10: download schemes
# ---------------------------------------------------------------------------
def experiment_download(node_counts=(10, 30, 50, 70)) -> ExperimentResult:
    from repro.vorx.download import download_per_process, download_tree
    from repro.vorx.system import VorxSystem

    rows = []
    data = {}
    for n in node_counts:
        system = VorxSystem(n_nodes=n, n_workstations=1)
        per_process = download_per_process(system, 0, list(range(n)))
        system2 = VorxSystem(n_nodes=n, n_workstations=1)
        tree = download_tree(system2, 0, list(range(n)))
        rows.append([n, round(per_process.seconds, 2), round(tree.seconds, 2),
                     f"{per_process.seconds / tree.seconds:.1f}x"])
        data[n] = {"per-process": per_process, "tree": tree}
    comparison = ComparisonTable("E10: program download, 70 processes")
    comparison.add("per-process stubs", PAPER_DOWNLOAD_PER_PROCESS_S,
                   data[70]["per-process"].seconds, "s")
    comparison.add("tree download", PAPER_DOWNLOAD_TREE_S,
                   data[70]["tree"].seconds, "s")
    report = format_table(
        ["processes", "per-process s", "tree s", "speedup"], rows
    )
    return ExperimentResult("E10", "Download and start N processes",
                            data, report, comparison)


# ---------------------------------------------------------------------------
# E11: program structuring + context switch
# ---------------------------------------------------------------------------
def experiment_structuring(n_messages: int = 200) -> ExperimentResult:
    from repro.apps.structuring import (
        STRUCTURES, measure_context_switch, run_structuring,
    )

    switch = measure_context_switch()
    rows = []
    data = {"context_switch_us": switch}
    for structure in STRUCTURES:
        result = run_structuring(structure, n_messages=n_messages)
        rows.append([structure, round(result.us_per_message, 1),
                     result.context_switches])
        data[structure] = result
    comparison = ComparisonTable("E11: subprocesses and their alternatives")
    comparison.add("context switch", PAPER_CONTEXT_SWITCH_US, switch, "us")
    report = (
        f"measured context switch: {switch:.1f} us (paper: 80)\n"
        f"stream workload, {n_messages} messages:\n"
        + format_table(["structure", "us/msg", "ctx switches"], rows)
    )
    return ExperimentResult("E11", "Program structuring techniques", data,
                            report, comparison)


# ---------------------------------------------------------------------------
# E12: allocation policies
# ---------------------------------------------------------------------------
def experiment_allocation() -> ExperimentResult:
    from repro.vorx.resource_manager import simulate_development

    meglos = simulate_development("meglos")
    vorx = simulate_development("vorx")
    rows = [
        ["meglos (allocate-on-run)", meglos.total_failures,
         f"{100 * meglos.failure_rate:.1f}%",
         f"{100 * meglos.held_idle_fraction:.1f}%", meglos.force_frees],
        ["vorx (reserve session)", vorx.total_failures,
         f"{100 * vorx.failure_rate:.1f}%",
         f"{100 * vorx.held_idle_fraction:.1f}%", vorx.force_frees],
    ]
    report = (
        "3 developers x 40 edit/run cycles, 8 processors, 4 per app\n"
        + format_table(
            ["policy", "'not available' failures", "failure rate",
             "held-idle", "force frees"],
            rows,
        )
        + "\npaper: Meglos's mid-session grabs caused 'processors not "
        "available'; VORX reserves but users forget to free (Section 3.1)"
    )
    return ExperimentResult(
        "E12", "Processor allocation policies",
        {"meglos": meglos, "vorx": vorx}, report,
    )


# ---------------------------------------------------------------------------
# E14 / Figure 1: topology
# ---------------------------------------------------------------------------
def experiment_topology() -> ExperimentResult:
    from repro.model.costs import DEFAULT_COSTS
    from repro.sim.engine import Simulator
    from repro.hpc.topology import build_hypercube, build_lam_system

    sim = Simulator()
    fabric, nodes, workstations = build_lam_system(sim, DEFAULT_COSTS)
    lam_stats = fabric.stats()

    sim2 = Simulator()
    flagship = build_hypercube(sim2, DEFAULT_COSTS, 256, 4)
    flagship_stats = flagship.stats()

    diagram = "\n".join([
        "          A Typical Local Area Multicomputer (Figure 1)",
        "",
        "   processing node pool                workstations / LAN side",
        "  +---------------------+             +----------------------+",
        "  | 70 nodes (68020)    |   HPC       | 10 SUN-3 hosts       |",
        "  | o o o o o o o o ... |==fabric====| [ws0] [ws1] ... [ws9] |",
        "  | o o o o o o o o ... | 160 Mb/s    | file srv, displays   |",
        "  +---------------------+  clusters   +----------------------+",
        "",
        f"  clusters: {lam_stats['clusters']}   endpoints: "
        f"{lam_stats['endpoints']}   inter-cluster links: "
        f"{lam_stats['cluster_links']}",
    ])
    rows = [
        ["operational system", lam_stats["clusters"], lam_stats["endpoints"],
         lam_stats["cluster_links"]],
        ["1024-node flagship", flagship_stats["clusters"],
         flagship_stats["endpoints"], flagship_stats["cluster_links"]],
    ]
    report = (
        diagram + "\n\n"
        + format_table(
            ["configuration", "clusters", "endpoints", "cluster links"], rows
        )
        + "\nflagship port budget: 8 hypercube ports + 4 node ports = 12 "
        "per cluster (Section 1)"
    )
    comparison = ComparisonTable("Figure 1 / Section 1 topology accounting")
    comparison.add("flagship nodes", 1024, float(flagship_stats["endpoints"]),
                   "nodes")
    comparison.add("flagship clusters", 256,
                   float(flagship_stats["clusters"]), "clusters")
    data = {"lam": lam_stats, "flagship": flagship_stats}
    return ExperimentResult("F1", "Local area multicomputer topology", data,
                            report, comparison)


# ---------------------------------------------------------------------------
# E15: software oscilloscope
# ---------------------------------------------------------------------------
def experiment_oscilloscope() -> ExperimentResult:
    from repro.apps.manytoone import run_many_to_one

    result = run_many_to_one(n_workers=5, rounds=4, imbalance=3.0)
    scope = result.scope
    view = scope.capture(bins=48)
    report = scope.render(view, bins=48)
    return ExperimentResult(
        "E15", "Software oscilloscope on an imbalanced application",
        {"view": view, "imbalance": view.load_imbalance()}, report,
    )


# ---------------------------------------------------------------------------
# E16: cdb on a deadlock
# ---------------------------------------------------------------------------
def experiment_cdb() -> ExperimentResult:
    from repro.tools import Cdb
    from repro.vorx.system import VorxSystem

    system = VorxSystem(n_nodes=3)

    def stage(env, first, second, rx_name):
        # Open order chosen so the opens themselves pair cleanly; the
        # deadlock comes from everyone reading before writing.
        a = yield from env.open(first)
        b = yield from env.open(second)
        rx = a if first == rx_name else b
        tx = b if first == rx_name else a
        yield from env.read(rx)
        yield from env.write(tx, 64)

    system.spawn(0, lambda env: stage(env, "a-b", "c-a", "c-a"), name="procA")
    system.spawn(1, lambda env: stage(env, "a-b", "b-c", "a-b"), name="procB")
    system.spawn(2, lambda env: stage(env, "b-c", "c-a", "b-c"), name="procC")
    system.run()
    cdb = Cdb(system)
    table = cdb.format(cdb.channels(blocked_only=True))
    deadlocks = cdb.report_deadlocks()
    report = table + "\n\n" + deadlocks
    return ExperimentResult(
        "E16", "cdb: communications state of a deadlocked application",
        {"cycles": cdb.find_deadlocks()}, report,
    )


# ---------------------------------------------------------------------------
# E17: stub pathologies
# ---------------------------------------------------------------------------
def experiment_stubs() -> ExperimentResult:
    from repro.vorx.stub import attach_stubs
    from repro.vorx.system import VorxSystem

    data = {}
    rows = []
    for shared in (False, True):
        system = VorxSystem(n_nodes=2, n_workstations=1)
        attach_stubs(system, 0, [0, 1], shared=shared)
        times = {}

        def blocker(env):
            yield from env.syscall("stdin_read", 500_000.0)

        def worker(env):
            yield from env.sleep(5_000.0)
            t0 = env.now
            yield from env.syscall("getpid")
            times["worker_wait"] = env.now - t0

        jobs = [system.spawn(0, blocker), system.spawn(1, worker)]
        system.run_until_complete(jobs)
        label = "shared stub" if shared else "stub per process"
        data[label] = times["worker_wait"]
        rows.append([label, round(times["worker_wait"] / 1000, 1)])
    report = (
        "getpid() latency while a sibling process blocks in a 0.5 s "
        "keyboard read\n"
        + format_table(["organisation", "worker syscall wait ms"], rows)
        + "\nshared stubs also split SunOS's 32 descriptors across the "
        "whole application (tested in tests/test_vorx_stubs.py)"
    )
    return ExperimentResult("E17", "Host stub pathologies", data, report)


# ---------------------------------------------------------------------------
# E18 (extension): decentralized system calls (Section 3.3 future work)
# ---------------------------------------------------------------------------
def experiment_decentralized_syscalls(
    n_nodes: int = 6, calls_per_node: int = 10, host_counts=(1, 2, 4)
) -> ExperimentResult:
    """Aggregate syscall throughput versus host count.

    The paper's planned fix for the single-host syscall bottleneck:
    "allowing a process to direct system calls to any of the host
    workstations".
    """
    from repro.vorx.syscalls import attach_decentralized_stubs
    from repro.vorx.system import VorxSystem

    rows = []
    data = {}
    for n_hosts in host_counts:
        system = VorxSystem(n_nodes=n_nodes, n_workstations=n_hosts)
        attach_decentralized_stubs(
            system, list(range(n_hosts)), list(range(n_nodes))
        )

        def caller(env, me):
            fd = yield from env.syscall("open", f"/out/{me}", "w")
            for i in range(calls_per_node):
                yield from env.syscall("write", fd, b"x" * 64)
            yield from env.syscall("close", fd)

        jobs = [system.spawn(i, lambda env, i=i: caller(env, i))
                for i in range(n_nodes)]
        system.run_until_complete(jobs)
        elapsed = system.sim.now
        total_calls = n_nodes * (calls_per_node + 2)
        data[n_hosts] = {
            "elapsed_us": elapsed,
            "calls_per_sec": total_calls / (elapsed / 1e6),
        }
        rows.append([n_hosts, round(elapsed / 1000, 1),
                     round(data[n_hosts]["calls_per_sec"])])
    report = (
        f"{n_nodes} node processes x {calls_per_node} file writes each\n"
        + format_table(["hosts", "elapsed ms", "syscalls/s"], rows)
        + "\nextension: the Section 3.3 'decentralized scheme that "
        "distributes the overhead of system calls'"
    )
    return ExperimentResult(
        "E18", "Decentralized system calls (extension)", data, report
    )


#: Every runner, in experiment-id order (used by scripts/run_experiments.py).
ALL_EXPERIMENTS = [
    experiment_table1,
    experiment_table2,
    experiment_userdefined_latency,
    experiment_bitmap,
    experiment_fft2d,
    experiment_flow_control,
    experiment_fifo_sizing,
    experiment_object_manager,
    experiment_download,
    experiment_structuring,
    experiment_allocation,
    experiment_topology,
    experiment_oscilloscope,
    experiment_cdb,
    experiment_stubs,
    experiment_decentralized_syscalls,
]
