"""Tests for repro.workload: arrivals, planning, runs, trace replay."""

import gc
import weakref

import pytest

from repro import (
    DEFAULT_COSTS,
    FixedRateArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Simulator,
    Workload,
    create_fabric,
)
from repro.workload import dump_trace, load_trace, trace_fingerprint

import random


def _fresh_fabric(topology="hypercube", n=16):
    sim = Simulator()
    return create_fabric(topology, sim, DEFAULT_COSTS, n_endpoints=n)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
def test_fixed_rate_intervals_are_constant():
    proc = FixedRateArrivals(rate_per_s=2000)
    rng = random.Random(1)
    gaps = [next(proc.intervals(rng)) for _ in range(5)]
    assert gaps == [500.0] * 5  # 2000/s -> 500us apart
    assert proc.mean_rate_per_s == 2000


def test_poisson_measured_rate_matches_lambda():
    proc = PoissonArrivals(rate_per_s=1000)
    rng = random.Random(42)
    it = proc.intervals(rng)
    n = 5000
    total_us = sum(next(it) for _ in range(n))
    measured = n / (total_us / 1_000_000.0)
    assert measured == pytest.approx(1000, rel=0.05)


def test_mmpp_mean_rate_between_states():
    proc = MMPPArrivals(rates_per_s=(500, 5000))
    rng = random.Random(7)
    it = proc.intervals(rng)
    n = 8000
    total_us = sum(next(it) for _ in range(n))
    measured = n / (total_us / 1_000_000.0)
    assert 500 < measured < 5000
    # dwell-weighted mean, not the arithmetic mean of the two rates
    assert proc.mean_rate_per_s == pytest.approx(
        (500 * 200_000 + 5000 * 50_000) / 250_000
    )


def test_arrival_validation_names_arguments():
    with pytest.raises(ValueError, match="rate_per_s"):
        PoissonArrivals(rate_per_s=0)
    with pytest.raises(ValueError, match="rates_per_s"):
        MMPPArrivals(rates_per_s=(0, 100))
    with pytest.raises(ValueError, match="dwell_us"):
        MMPPArrivals(rates_per_s=(1, 2), dwell_us=(0.0, 1.0))


# ----------------------------------------------------------------------
# seeded determinism
# ----------------------------------------------------------------------
def test_same_seed_same_request_trace_fingerprint():
    wl = Workload(arrivals=PoissonArrivals(rate_per_s=3000),
                  n_requests=50, fanout=(1, 3))
    plan_a = wl.plan(16, seed=9)
    plan_b = wl.plan(16, seed=9)
    assert trace_fingerprint(plan_a) == trace_fingerprint(plan_b)
    assert trace_fingerprint(plan_a) != trace_fingerprint(wl.plan(16, seed=10))


def test_same_seed_identical_run_fingerprint_across_fresh_fabrics():
    wl = Workload(arrivals=PoissonArrivals(rate_per_s=3000), n_requests=40)
    r1 = wl.run(_fresh_fabric(), seed=3, arm="a")
    r2 = wl.run(_fresh_fabric(), seed=3, arm="a")
    assert r1.completed == r1.offered == 40
    assert r1.fingerprint() == r2.fingerprint()
    r3 = wl.run(_fresh_fabric(), seed=4, arm="a")
    assert r1.fingerprint() != r3.fingerprint()


def test_run_measures_rate_near_offered():
    wl = Workload(arrivals=FixedRateArrivals(rate_per_s=2000),
                  n_requests=100)
    result = wl.run(_fresh_fabric(n=16), seed=1, arm="rate")
    assert result.offered_rate_per_s == pytest.approx(2000, rel=0.05)
    assert result.percentiles()["p50"] > 0


def test_fabric_is_freed_after_a_run():
    """The per-fabric router hub must not keep its fabric (and so the
    whole simulator) alive once the caller drops it."""
    fabric = _fresh_fabric()
    Workload(arrivals=PoissonArrivals(rate_per_s=3000), n_requests=20).run(
        fabric, seed=1, arm="gc"
    )
    assert fabric.workload_hub is not None
    ref = weakref.ref(fabric)
    del fabric
    gc.collect()
    assert ref() is None


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------
def test_trace_round_trip(tmp_path):
    wl = Workload(arrivals=PoissonArrivals(rate_per_s=2500),
                  n_requests=30, fanout=2)
    plan = wl.plan(16, seed=5)
    path = tmp_path / "trace.jsonl"
    assert dump_trace(plan, path) == 30
    loaded = load_trace(path)
    assert trace_fingerprint(loaded) == trace_fingerprint(plan)

    replay = Workload(trace=path)
    replayed = replay.plan(16, seed=999)  # seed must not matter for replay
    assert trace_fingerprint(replayed) == trace_fingerprint(plan)


def test_trace_replay_runs_identically_to_synthetic(tmp_path):
    wl = Workload(arrivals=PoissonArrivals(rate_per_s=2500), n_requests=25)
    plan = wl.plan(16, seed=5)
    path = tmp_path / "trace.jsonl"
    dump_trace(plan, path)

    synth = wl.run(_fresh_fabric(), seed=5, arm="x")
    replay = Workload(trace=path).run(_fresh_fabric(), seed=5, arm="x")
    assert replay.plan_fingerprint == synth.plan_fingerprint
    assert replay.fingerprint() == synth.fingerprint()


def test_load_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t_us": -1.0, "frontend": 0, "targets": [[1,8,8,0]]}\n')
    with pytest.raises(ValueError, match="negative arrival"):
        load_trace(path)


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_timeout_counts_slow_requests_as_failed():
    wl = Workload(arrivals=FixedRateArrivals(rate_per_s=5000),
                  n_requests=20, timeout_us=1.0)
    result = wl.run(_fresh_fabric(), seed=2, arm="t")
    assert result.failed == result.offered
    assert result.completed == 0
    assert result.failure_rate == 1.0


def test_late_replies_count_as_failed_only():
    # Replies arrive, but after the deadline: each request is failed
    # once and not also completed.
    wl = Workload(arrivals=PoissonArrivals(rate_per_s=4000),
                  n_requests=100, timeout_us=60.0)
    result = wl.run(_fresh_fabric(n=64), seed=1, arm="late")
    assert len(result.completions_us) == result.offered == 100
    assert result.completed == len(result.latencies_us) == 0
    assert result.failed == 100


def test_workload_needs_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        Workload()
    with pytest.raises(ValueError, match="exactly one"):
        Workload(arrivals=PoissonArrivals(rate_per_s=1), trace=[])
