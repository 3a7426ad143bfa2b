"""Tests for repro.exp and the redesigned public facade.

The acceptance surface: ``Experiment`` round-trips through ``repro``
with no private reach-ins, the run-table smoke emits valid
``runtable/v1`` rows with non-empty percentiles, and interconnect
selection is uniform across ``VorxSystem`` / ``MeglosSystem`` /
``create_fabric``.
"""

import pytest

# Everything the tests need comes off the public facade.
from repro import (
    DEFAULT_COSTS,
    Experiment,
    MeglosSystem,
    PoissonArrivals,
    RunTable,
    Scenario,
    Simulator,
    VorxSystem,
    Workload,
    create_fabric,
)
from repro.exp import rep_seed, validate_row


def _workload(n=40, rate=4000):
    return Workload(arrivals=PoissonArrivals(rate_per_s=rate), n_requests=n)


# ----------------------------------------------------------------------
# Experiment through the facade
# ----------------------------------------------------------------------
def test_experiment_facade_round_trip():
    result = Experiment(
        topology="hypercube", n_nodes=16, workload=_workload(),
        reps=2, seed=42,
    ).run()
    assert result.arm == "hypercube/16"
    assert result.completed == result.offered == 80
    pcts = result.percentiles()
    assert pcts["p50"] > 0 and pcts["p50"] <= pcts["p95"] <= pcts["p99"]


def test_experiment_contrast_returns_mann_whitney():
    wl = _workload()
    a = Experiment(topology="hypercube", n_nodes=16, workload=wl,
                   reps=2, seed=42).run()
    b = Experiment(topology="mesh", n_nodes=16, workload=wl,
                   reps=2, seed=42).run()
    contrast = a.contrast(b)
    assert contrast.arm_a == "hypercube/16"
    assert contrast.arm_b == "mesh/16"
    assert 0.0 < contrast.p_value <= 1.0
    assert contrast.n_a == len(a.latencies_us)


def test_experiment_is_deterministic():
    fingerprints = []
    for _ in range(2):
        result = Experiment(topology="mesh", n_nodes=16,
                            workload=_workload(), reps=2, seed=9).run()
        fingerprints.append([rep.fingerprint() for rep in result.reps])
    assert fingerprints[0] == fingerprints[1]
    # repetitions are independently seeded, not replays of each other
    assert fingerprints[0][0] != fingerprints[0][1]


def test_experiment_rejects_ambiguous_forms():
    wl = _workload()
    with pytest.raises(ValueError, match="not both"):
        Experiment(workload=wl, topology="mesh", n_nodes=8,
                   scenario=Scenario(topology="mesh", n_nodes=8))
    with pytest.raises(ValueError, match="topology"):
        Experiment(workload=wl)
    with pytest.raises(ValueError, match="n_nodes"):
        Experiment(workload=wl, topology="mesh")
    with pytest.raises(TypeError, match="workload"):
        Experiment(workload="lots", topology="mesh", n_nodes=8)


def test_rep_seed_is_stable_and_distinct():
    assert rep_seed(7, "mesh/16", 0) == "7:mesh/16:0"
    assert rep_seed(7, "mesh/16", 0) != rep_seed(7, "mesh/16", 1)
    assert rep_seed(7, "mesh/16", 0) != rep_seed(7, "hypercube/16", 0)


# ----------------------------------------------------------------------
# RunTable smoke: 2 topologies x 2 reps
# ----------------------------------------------------------------------
def test_run_table_smoke_schema_and_percentiles():
    table = RunTable(topologies=("hypercube", "mesh"), sizes=(16,),
                     workload=_workload(), reps=2, seed=11)
    result = table.run()
    rows = result.rows()
    assert len(rows) == 4  # 2 topologies x 2 reps
    for row in rows:
        validate_row(row)
        assert row["p50_us"] > 0
        assert row["completed"] > 0
    assert {row["topology"] for row in rows} == {"hypercube", "mesh"}
    assert [c.arm_a for c in result.contrasts()] == ["hypercube/16"]
    # same table, same digest
    again = RunTable(topologies=("hypercube", "mesh"), sizes=(16,),
                     workload=_workload(), reps=2, seed=11).run()
    assert result.digest() == again.digest()


def test_run_table_write_jsonl(tmp_path):
    table = RunTable(topologies=("star",), sizes=(8,),
                     workload=_workload(n=20), reps=2, seed=3)
    result = table.run()
    path = tmp_path / "rows.jsonl"
    assert result.write_jsonl(path) == 2
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all('"schema":"runtable/v1"' in line for line in lines)


def test_validate_row_rejects_bad_rows():
    with pytest.raises(ValueError, match="schema"):
        validate_row({"schema": "nonsense/v9"})
    good = RunTable(topologies=("star",), sizes=(8,),
                    workload=_workload(n=10), reps=1, seed=1).run().rows()[0]
    bad = dict(good, failure_rate=2.0)
    with pytest.raises(ValueError, match="failure_rate"):
        validate_row(bad)
    missing = dict(good)
    del missing["p95_us"]
    with pytest.raises(ValueError, match="p95_us"):
        validate_row(missing)
    with pytest.raises(ValueError, match="!= offered"):
        validate_row(dict(good, failed=good["failed"] + 1))
    with pytest.raises(ValueError, match="chaos"):
        validate_row(dict(good, chaos=0))
    with pytest.raises(ValueError, match="offered"):
        validate_row(dict(good, offered=True))


def test_runtable_cli_smoke_roundtrip(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    env = {"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"}
    out = tmp_path / "runtable.jsonl"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "runtable.py"),
         "--smoke", "--quiet", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "digest:" in proc.stdout
    check = subprocess.run(
        [sys.executable, str(repo / "scripts" / "runtable.py"),
         "--validate", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert check.returncode == 0, check.stderr
    assert "12 rows OK (runtable/v1)" in check.stdout
    out.write_text(out.read_text().replace('"failed":0', '"failed":1', 1))
    tampered = subprocess.run(
        [sys.executable, str(repo / "scripts" / "runtable.py"),
         "--validate", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert tampered.returncode == 1
    assert "!= offered" in tampered.stderr


# ----------------------------------------------------------------------
# uniform interconnect selection
# ----------------------------------------------------------------------
def test_create_fabric_passes_instances_through():
    sim = Simulator()
    fabric = create_fabric("mesh", sim, DEFAULT_COSTS, n_endpoints=8)
    assert create_fabric(fabric, sim, DEFAULT_COSTS, n_endpoints=8) is fabric
    with pytest.raises(ValueError, match="different simulator"):
        create_fabric(fabric, Simulator(), DEFAULT_COSTS, n_endpoints=8)
    with pytest.raises(ValueError, match="endpoints"):
        create_fabric(fabric, sim, DEFAULT_COSTS, n_endpoints=64)


def test_vorx_system_accepts_fabric_instance():
    sim = Simulator()
    fabric = create_fabric("hyperx", sim, DEFAULT_COSTS, n_endpoints=8)
    system = VorxSystem(fabric=fabric, n_nodes=6, n_workstations=2)
    assert system.fabric is fabric
    assert system.sim is sim
    assert system.topology == "hyperx"
    assert len(system.nodes) == 6 and len(system.workstations) == 2


def test_vorx_system_rejects_topology_and_fabric_together():
    sim = Simulator()
    fabric = create_fabric("mesh", sim, DEFAULT_COSTS, n_endpoints=8)
    with pytest.raises(ValueError, match="not both"):
        VorxSystem(topology="mesh", fabric=fabric)
    with pytest.raises(TypeError, match="topology=<name>"):
        VorxSystem(fabric="mesh")
    with pytest.raises(ValueError, match="drop sim="):
        VorxSystem(fabric=fabric, sim=Simulator())
    with pytest.raises(ValueError, match="endpoints"):
        VorxSystem(fabric=fabric, n_nodes=64)


def test_vorx_system_positional_is_gone():
    with pytest.raises(TypeError):
        VorxSystem(3)


def test_meglos_system_uniform_selection():
    system = MeglosSystem(4, topology="snet")
    assert system.fabric.topology_name == "snet"

    sim = Simulator()
    fabric = create_fabric("snet", sim, DEFAULT_COSTS, n_endpoints=4)
    adopted = MeglosSystem(4, fabric=fabric)
    assert adopted.fabric is fabric and adopted.sim is sim

    with pytest.raises(ValueError, match="not both"):
        MeglosSystem(4, topology="snet", fabric=fabric)
    with pytest.raises(ValueError, match="VorxSystem"):
        MeglosSystem(4, topology="hypercube")
    hpc = create_fabric("mesh", Simulator(), DEFAULT_COSTS, n_endpoints=8)
    with pytest.raises(ValueError, match="VorxSystem"):
        MeglosSystem(4, fabric=hpc)
