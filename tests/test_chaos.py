"""Tests for the chaos-campaign subsystem (repro.chaos)."""

import json

import pytest

from repro import (
    DEFAULT_COSTS,
    Brownout,
    CascadingCrashes,
    ChaosCampaign,
    FaultRegime,
    LinkGroupFailure,
    NetworkPartition,
    PoissonArrivals,
    RecoveryPolicy,
    SLO,
    Simulator,
    Workload,
    boundary_cut_sites,
    create_fabric,
    validate_chaos_row,
)
from repro.chaos import FAULT_FREE
from repro.chaos.slo import SLOObjective, SLOReport, SLOVerdict
from repro.exp import validate_row


def fabric(topology="hypercube", n_endpoints=32, **options):
    return create_fabric(
        topology, Simulator(), DEFAULT_COSTS,
        n_endpoints=n_endpoints, **options
    )


def small_campaign(**overrides):
    kwargs = dict(
        policies=[
            RecoveryPolicy("none"),
            RecoveryPolicy("retry", retries=2, retry_timeout_us=3_000.0,
                           retry_backoff=2.0, reroute=True),
        ],
        regimes=[
            FaultRegime("partition", shapes=(
                NetworkPartition(fraction=0.25, start_us=2_000.0,
                                 duration_us=30_000.0),
            )),
            FaultRegime("brownout", shapes=(
                Brownout(multiplier=6.0, duration_us=40_000.0),
            )),
        ],
        slo=SLO(p99_us=15_000.0, failure_rate=0.05),
        topologies=("hypercube",), n_nodes=32,
        rate_per_s=3_000.0, n_requests=40, timeout_us=15_000.0,
        reps=2, seed=1990, name="testcamp",
    )
    kwargs.update(overrides)
    return ChaosCampaign(**kwargs)


# ----------------------------------------------------------------------
# shapes
# ----------------------------------------------------------------------
def test_link_group_failure_needs_exactly_one_selector():
    with pytest.raises(ValueError, match="exactly one"):
        LinkGroupFailure()
    with pytest.raises(ValueError, match="exactly one"):
        LinkGroupFailure(clusters=(0,), mesh_row=1)


def test_link_group_patterns_cover_both_directions():
    spec = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    LinkGroupFailure(clusters=(1,)).contribute(fabric(), None, spec)
    patterns = [entry[0] for entry in spec["site_windows"]]
    assert "c1.p*->*" in patterns
    assert "*->c1" in patterns


def test_mesh_row_walks_the_row():
    mesh = fabric("mesh", n_endpoints=16, shape=(4, 2),
                  nodes_per_cluster=2)
    spec = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    shape = LinkGroupFailure(mesh_row=1)
    shape.contribute(mesh, None, spec)
    # Row y=1 in a 4x2 mesh (cid = x*height + y): clusters 1,3,5,7.
    patterns = {entry[0] for entry in spec["site_windows"]}
    assert {"c1.p*->*", "c3.p*->*", "c5.p*->*", "c7.p*->*"} <= patterns
    assert "c0.p*->*" not in patterns


def test_mesh_row_rejects_non_mesh_and_non_leftmost():
    with pytest.raises(ValueError, match="mesh"):
        LinkGroupFailure(mesh_row=0).contribute(fabric(), None, {
            "node_crashes": {}, "site_windows": [], "link_brownouts": []})
    mesh = fabric("mesh", n_endpoints=16, shape=(4, 2),
                  nodes_per_cluster=2)
    with pytest.raises(ValueError, match="leftmost"):
        LinkGroupFailure(mesh_row=3).contribute(mesh, None, {
            "node_crashes": {}, "site_windows": [], "link_brownouts": []})


def test_cascading_crashes_is_seeded_and_bounded():
    import random

    hyper = fabric()
    spec_a = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    spec_b = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    shape = CascadingCrashes(seeds=2, hazard=0.6, max_crashes=5)
    shape.contribute(hyper, random.Random("x"), spec_a)
    shape.contribute(hyper, random.Random("x"), spec_b)
    assert spec_a["node_crashes"] == spec_b["node_crashes"]
    assert 2 <= len(spec_a["node_crashes"]) <= 5


def test_partition_uses_boundary_cut_sites():
    hyper = fabric()
    spec = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    NetworkPartition(fraction=0.5).contribute(hyper, None, spec)
    sites = [entry[0] for entry in spec["site_windows"]]
    n = len(hyper.clusters)
    assert sites == boundary_cut_sites(hyper, range(n // 2))
    assert all(entry[3] == {"drop": 1.0} for entry in spec["site_windows"])


def test_boundary_cut_sites_rejects_bad_cluster_ids():
    with pytest.raises(ValueError):
        boundary_cut_sites(fabric(), [0, 99])


def test_shape_on_clusterless_backend_raises():
    snet = fabric("snet", n_endpoints=4)
    spec = {"node_crashes": {}, "site_windows": [], "link_brownouts": []}
    with pytest.raises(ValueError, match="no\\s+clusters"):
        CascadingCrashes().contribute(snet, None, spec)


# ----------------------------------------------------------------------
# regimes
# ----------------------------------------------------------------------
def test_fault_free_regime_compiles_to_none():
    assert FAULT_FREE.is_fault_free
    assert FAULT_FREE.compile(fabric(), seed=1) is None


def test_regime_compilation_is_deterministic():
    regime = FaultRegime("storm", shapes=(
        CascadingCrashes(seeds=2, max_crashes=6),
        Brownout(multiplier=3.0),
    ), drop=0.01)
    plan_a = regime.compile(fabric(), seed=42)
    plan_b = regime.compile(fabric(), seed=42)
    assert plan_a.node_crashes == plan_b.node_crashes
    assert plan_a.link_brownouts == plan_b.link_brownouts
    other = regime.compile(fabric(), seed=43)
    assert plan_a.node_crashes != other.node_crashes


def test_regime_rejects_bad_names_and_shapes():
    with pytest.raises(ValueError, match="'\\|'-free"):
        FaultRegime("a|b")
    with pytest.raises(TypeError, match="fault shapes"):
        FaultRegime("x", shapes=("not-a-shape",))


def test_compiled_plan_attaches_to_fresh_fabric():
    from types import SimpleNamespace

    regime = FaultRegime("partition", shapes=(NetworkPartition(),))
    plan = regime.compile(fabric(), seed=7)
    fresh = fabric()  # same topology/size, different instance
    plan.attach(SimpleNamespace(sim=fresh.sim, fabric=fresh))
    assert fresh.sim.faults is not None


# ----------------------------------------------------------------------
# SLO
# ----------------------------------------------------------------------
def test_slo_needs_at_least_one_objective():
    with pytest.raises(ValueError, match="at least one"):
        SLO()


def test_slo_evaluates_only_declared_objectives():
    slo = SLO(p99_us=1_000.0)
    objectives = slo.evaluate(p95_us=5.0, p99_us=999.0, failure_rate=1.0)
    assert [o.name for o in objectives] == ["p99_us"]
    assert objectives[0].passed
    failing = slo.evaluate(p95_us=5.0, p99_us=1_001.0, failure_rate=0.0)
    assert not failing[0].passed


def test_slo_verdict_pass_requires_every_objective():
    good = SLOObjective("p95_us", 100.0, 50.0)
    bad = SLOObjective("failure_rate", 0.05, 0.5)
    verdict = SLOVerdict(
        arm="a", policy="p", regime="r", topology="hypercube",
        n_endpoints=32, objectives=(good, bad), injected=3,
    )
    assert not verdict.passed
    assert verdict.failed_objectives == (bad,)
    report = SLOReport(SLO(p95_us=100.0), [verdict])
    assert report.failed == [verdict]
    assert "FAIL" in report.summary()


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def test_campaign_digest_is_deterministic():
    a = small_campaign().run()
    b = small_campaign().run()
    assert a.digest() == b.digest()
    assert a.jsonl() == b.jsonl()


def test_campaign_rows_validate_and_carry_the_matrix():
    result = small_campaign().run()
    rows = result.rows()
    # fault-free control is auto-prepended: 2 policies x 3 regimes x 2.
    assert len(rows) == 2 * 3 * 2
    for index, row in enumerate(rows):
        validate_chaos_row(row, where=f"row {index}")
    assert {row["regime"] for row in rows} == {
        "fault-free", "partition", "brownout"
    }
    assert {row["policy"] for row in rows} == {"none", "retry"}
    # The partition cells actually injected site faults.
    assert sum(
        row["injected"] for row in rows if row["regime"] == "partition"
    ) > 0


def test_campaign_slo_report_contrasts_against_fault_free():
    result = small_campaign().run()
    report = result.slo_report()
    baselines = [v for v in report.verdicts if v.is_baseline]
    chaos = report.chaos_verdicts
    assert len(baselines) == 2 and len(chaos) == 4
    assert all(v.contrast is None for v in baselines)
    brownouts = [v for v in chaos if v.regime == "brownout"]
    assert all(
        v.contrast is not None and v.contrast.significant
        for v in brownouts
    )
    # Degradation under partition: the no-recovery policy fails the
    # failure-rate objective; the report renders both verdict words.
    assert any(not v.passed for v in chaos)
    summary = report.summary()
    assert "base" in summary and "FAIL" in summary


def test_campaign_cell_accessor():
    result = small_campaign().run()
    cell = result.cell(policy="retry", regime="partition")
    assert cell.result.retries > 0
    with pytest.raises(KeyError, match="no cell"):
        result.cell(policy="nope", regime="partition")


def test_campaign_validates_inputs():
    with pytest.raises(ValueError, match="cannot be empty"):
        small_campaign(policies=[])
    with pytest.raises(ValueError, match="unique"):
        small_campaign(policies=[RecoveryPolicy("x"), RecoveryPolicy("x")])
    with pytest.raises(TypeError, match="must be an SLO"):
        small_campaign(slo="tight")
    with pytest.raises(ValueError, match="registered names"):
        small_campaign(topologies=("ring-of-power",))
    with pytest.raises(ValueError, match="timeout_us"):
        small_campaign(timeout_us=0.0)
    with pytest.raises(ValueError, match="retry_timeout_us"):
        RecoveryPolicy("r", retries=1)


def test_validate_chaos_row_rejects_tampering():
    result = small_campaign().run()
    row = result.rows()[0]
    validate_chaos_row(row)
    with pytest.raises(ValueError, match="schema"):
        validate_chaos_row({**row, "schema": "runtable/v1"})
    with pytest.raises(ValueError, match="missing field"):
        bad = dict(row)
        del bad["injected"]
        validate_chaos_row(bad)
    with pytest.raises(ValueError, match="failure_rate"):
        validate_chaos_row({**row, "failure_rate": 1.5})
    with pytest.raises(ValueError, match="!= offered"):
        validate_chaos_row({**row, "completed": row["completed"] + 1})
    with pytest.raises(ValueError, match="!= offered"):
        validate_chaos_row({**row, "failed": row["failed"] + 1})


def test_chaos_rows_are_runtable_rows_plus_three_columns():
    for row in small_campaign().run().rows():
        base = {key: value for key, value in row.items()
                if key not in ("campaign", "policy", "regime")}
        validate_row({**base, "schema": "runtable/v1"})
        assert row["arm"] == (f"{row['topology']}/{row['n_endpoints']}"
                              f"|{row['policy']}|{row['regime']}")
        assert row["chaos"] == (row["regime"] != "fault-free")


BAD_RETRY_KNOBS = [
    dict(retries=-1),
    dict(retries=1),
    dict(retries=1, retry_timeout_us=0.0),
    dict(retry_backoff=0.5),
]


@pytest.mark.parametrize("knobs", BAD_RETRY_KNOBS)
def test_policy_and_workload_share_the_retry_check(knobs):
    with pytest.raises(ValueError) as policy_error:
        RecoveryPolicy("p", **knobs)
    with pytest.raises(ValueError) as workload_error:
        Workload(arrivals=PoissonArrivals(rate_per_s=1000.0), **knobs)
    assert (str(policy_error.value).replace("RecoveryPolicy", "Workload")
            == str(workload_error.value))


def test_chaos_cli_smoke_roundtrip(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    out = tmp_path / "chaos.jsonl"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "chaos.py"),
         "--quiet", "--nodes", "32", "--requests", "30",
         "--regimes", "partition", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "digest:" in proc.stdout
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows and all(row["schema"] == "chaos/v1" for row in rows)
    check = subprocess.run(
        [sys.executable, str(repo / "scripts" / "chaos.py"),
         "--validate", str(out)],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert check.returncode == 0, check.stderr
