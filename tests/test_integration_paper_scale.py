"""Integration test at the paper's operational scale: the 70-node +
10-workstation machine, exercised end to end."""

import pytest

from repro import VorxSystem
from repro.tools import SoftwareOscilloscope
from repro.vorx.download import download_tree


@pytest.fixture(scope="module")
def machine():
    machine = VorxSystem(n_nodes=70, n_workstations=10)
    # Arm the oscilloscope before any phase runs.
    SoftwareOscilloscope.for_system(machine)
    return machine


def test_paper_machine_shape(machine):
    stats = machine.fabric.stats()
    assert stats["endpoints"] == 80
    assert len(machine.nodes) == 70
    assert len(machine.workstations) == 10


def test_download_then_run_application_across_the_machine(machine):
    # Phase 1: tree-download the "application" onto all 70 nodes.
    download = download_tree(machine, 0, list(range(70)))
    assert download.n_processes == 70
    assert download.seconds < 3.0

    # Phase 2: a 70-way fan-in application across the whole pool,
    # reporting to a process on a *workstation* (spanning hosts + nodes).
    received = []

    def master(env):
        channels = []
        for who in range(70):
            ch = yield from env.open(f"wide-{who}")
            channels.append(ch)
        for _ in range(70):
            _, _, payload = yield from env.read_any(channels)
            received.append(payload)

    def worker(env, who):
        ch = yield from env.open(f"wide-{who}")
        yield from env.compute(1_000.0 + 10.0 * who, label="work")
        yield from env.write(ch, 128, payload=who)

    jobs = [machine.workstation(0).spawn(master, name="master")]
    for who in range(70):
        jobs.append(machine.spawn(who, lambda env, who=who: worker(env, who)))
    machine.run_until_complete(jobs)
    assert sorted(received) == list(range(70))


def test_aggregated_oscilloscope_fits_the_machine(machine):
    scope = SoftwareOscilloscope.for_system(machine)
    text = scope.render_aggregated(group_size=10, bins=40)
    lines = text.splitlines()
    # 70 nodes in 7 group strips + header + summary = 9 lines.
    assert len(lines) == 9
    assert "utilisation across 70 processors" in text


def test_machine_routing_spans_every_cluster(machine):
    stats = machine.fabric.stats()
    assert stats["clusters"] == 10
    assert stats["messages_forwarded"] > 0
