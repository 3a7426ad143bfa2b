"""Additional coverage for the development tools: filters, edge cases."""

import pytest

from repro import VorxSystem
from repro.tools import Cdb, Prof, SoftwareOscilloscope, Vdb


def run_two_channel_app():
    system = VorxSystem(n_nodes=3)

    def peer(env, names_and_counts):
        channels = {}
        for name in names_and_counts:
            channels[name] = yield from env.open(name)
        for name, (writes, reads) in names_and_counts.items():
            for _ in range(writes):
                yield from env.write(channels[name], 32)
            for _ in range(reads):
                yield from env.read(channels[name])

    system.spawn(0, lambda env: peer(env, {"alpha": (3, 0)}))
    system.spawn(1, lambda env: peer(env, {"alpha": (0, 3),
                                           "beta": (2, 0)}))
    system.spawn(2, lambda env: peer(env, {"beta": (0, 2)}))
    system.run()
    return system


def test_cdb_filter_by_name():
    system = run_two_channel_app()
    cdb = Cdb(system)
    rows = cdb.channels(name="alpha")
    assert len(rows) == 2
    assert all(row.name == "alpha" for row in rows)


def test_cdb_filter_by_node():
    system = run_two_channel_app()
    cdb = Cdb(system)
    rows = cdb.channels(node=1)
    # Node 1 has two endpoints: alpha (reader) and beta (writer).
    assert sorted(row.name for row in rows) == ["alpha", "beta"]


def test_cdb_counts_both_directions():
    system = run_two_channel_app()
    cdb = Cdb(system)
    alpha = {row.node: row for row in cdb.channels(name="alpha")}
    sender_node = system.node(0).address
    receiver_node = system.node(1).address
    assert alpha[sender_node].sent == 3
    assert alpha[receiver_node].received == 3


def test_prof_empty_report():
    system = VorxSystem(n_nodes=1)
    prof = Prof(system.nodes)
    assert prof.report() == []
    assert prof.hotspot() is None
    assert "name" in prof.format()


def test_prof_filters_by_process():
    system = VorxSystem(n_nodes=1)

    def appa(env):
        yield from env.compute(100.0, label="work")

    def appb(env):
        yield from env.compute(900.0, label="work")

    system.node(0).spawn(appa, process_name="a")
    system.node(0).spawn(appb, process_name="b")
    system.run()
    prof = Prof(system.nodes)
    assert prof.hotspot("a").time_us == pytest.approx(100.0)
    assert prof.hotspot("b").time_us == pytest.approx(900.0)
    assert prof.hotspot().time_us == pytest.approx(1000.0)  # combined


def test_oscilloscope_requires_processors():
    with pytest.raises(ValueError):
        SoftwareOscilloscope([])


def test_metrics_overlay_on_vorx_and_meglos_nodes():
    from repro import MeglosSystem

    system = run_two_channel_app()
    vorx = SoftwareOscilloscope(system.nodes[:1]).metrics_overlay()
    header, row = vorx.splitlines()
    assert header.split() == [
        "PROCESSOR", "POSTED", "INTR", "CTXSW", "SYSCALL", "NAK", "RETX",
    ]
    node = system.nodes[0]
    assert row.split() == [
        "node0", str(node.packets_posted),
        str(int(node.metrics.value("kernel.interrupts"))),
        str(node.context_switches),
        str(int(node.metrics.value("kernel.syscalls"))), "0", "0",
    ]
    assert node.packets_posted > 0
    # Meglos shares the kernel core's interrupt and context-switch
    # counters but keeps none of VORX's posting, syscall or channel
    # counters: dashes, not a false 0.
    meglos = MeglosSystem(n_nodes=2)
    rows = SoftwareOscilloscope(meglos.nodes).metrics_overlay().splitlines()
    assert [r.split() for r in rows[1:]] == [
        [kernel.name, "-", "0", "0", "-", "-", "-"] for kernel in meglos.nodes
    ]


def test_vdb_inspect_running_process_waits():
    system = VorxSystem(n_nodes=1)

    def sleeper(env):
        yield from env.sleep(1_000_000.0)

    sp = system.spawn(0, sleeper)
    system.run(until=500_000.0)
    vdb = Vdb(system)
    info = vdb.inspect(sp)
    assert info.state == "blocked"
    assert info.blocked_on == "timer"
    assert info.waiting_for is not None
    assert any("sleeper" in frame or "sleep" in frame
               for frame in info.backtrace)
