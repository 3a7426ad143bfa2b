"""Unit tests for scripts/perf.py: the min/median/max CPU-time record,
the call counts of the profiled rep, the determinism check across reps,
smoke-only workloads and the v3 schema."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import perf  # noqa: E402  (path setup above)


def fake_workload(monkeypatch, reps):
    reps = iter(reps)
    monkeypatch.setitem(
        perf.WORKLOADS, "fake",
        {"fn": lambda params: dict(next(reps)), "description": "fake",
         "full": {"n": 1}, "smoke": {}},
    )


def rep(cpu_s, events=1000, **extra):
    return {"events": events, "sim_us": 10.0, "cpu_s": cpu_s, **extra}


def test_record_is_min_median_max_over_reps(monkeypatch):
    # Three timed reps, then the profiled one, whose time is not kept.
    fake_workload(monkeypatch, [rep(2.0), rep(1.0), rep(4.0), rep(0.5)])
    record = perf.measure("fake", "full", repeat=3)
    assert record["events"] == 1000 and record["sim_us"] == 10.0
    assert record["repeat"] == 3
    assert record["cpu_s"] == {"min": 1.0, "median": 2.0, "max": 4.0}
    assert record["events_per_sec"] == 1000.0
    assert perf.median_rate(record) == 500.0
    assert perf.validate({"schema": perf.SCHEMA,
                          "workloads": {"fake": record}}) == []


def test_profiled_rep_counts_calls_per_layer(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0), rep(1.0)])
    calls = perf.measure("fake", "full", repeat=1)["calls"]
    assert set(perf.LAYERS) <= set(calls)
    assert calls["total"] == sum(
        value for key, value in calls.items() if key != "total"
    )
    # The fake workload is a lambda in this test file and ``dict`` and
    # ``next`` are builtins: no frame of ``repro`` ran.
    assert calls["python"] == calls["total"] > 0
    assert calls["sim"] == calls["hpc"] == 0


def test_workload_code_of_the_script_counts_as_workload():
    record = perf.measure("cancel_churn", "smoke", repeat=1)
    calls = record["calls"]
    assert calls["workload"] > 0 and calls["sim"] > 0
    assert record["events"] == 220


def test_rep_with_different_events_raises(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0), rep(1.0, events=1001)])
    with pytest.raises(RuntimeError, match=r"reps differ in \['events'\]"):
        perf.measure("fake", "full", repeat=2)


def test_profiled_rep_with_different_events_raises(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0), rep(1.0, events=1001)])
    with pytest.raises(RuntimeError, match=r"reps differ in \['events'\]"):
        perf.measure("fake", "full", repeat=1)


def test_smoke_only_workload_refused_in_full_mode(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert perf.main(["--workloads", "hypercube_1024",
                      "--output", str(out)]) == 2
    assert "openloop_hc1024" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_v1_file(tmp_path):
    v1 = {"schema": "simcore-bench/v1", "workloads": {"a": {
        "description": "d",
        "current": {"events": 1000, "wall_s": 1.0, "sim_us": 10.0,
                    "events_per_sec": 1000.0, "sim_us_per_wall_s": 10.0},
    }}}
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1))
    assert perf.main(["--validate", str(path)]) == 1
    assert any(perf.SCHEMA in p for p in perf.validate(v1))


def test_validate_rejects_v2_file(tmp_path):
    v2 = {"schema": "simcore-bench/v2", "workloads": {"a": {
        "description": "d", "events": 1000, "sim_us": 10.0, "repeat": 1,
        "wall_s": {"min": 1.0, "median": 1.0, "max": 1.0},
        "events_per_sec": {"min": 1000.0, "median": 1000.0, "max": 1000.0},
    }}}
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(v2))
    assert perf.main(["--validate", str(path)]) == 1
    problems = perf.validate(v2)
    assert any("simcore-bench/v3" in p for p in problems)
    assert any("a.calls" in p for p in problems)
    assert any("a.cpu_s" in p for p in problems)


def test_validate_rejects_bool_and_nonpositive_values(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0), rep(1.0)])
    good = perf.measure("fake", "full", repeat=1)

    def problems(**change):
        return perf.validate({"schema": perf.SCHEMA,
                              "workloads": {"a": dict(good, **change)}})

    assert any("events" in p for p in problems(events=True))
    assert any("must be positive" in p for p in problems(events=0))
    assert any("must be positive" in p for p in problems(events_per_sec=0))
    assert any("min <= median <= max" in p for p in problems(
        cpu_s={"min": 2.0, "median": 1.0, "max": 3.0}))
    calls = good["calls"]
    assert any("missing ['sim']" in p for p in problems(
        calls={k: v for k, v in calls.items() if k != "sim"}))
    assert any("sum of the layers" in p for p in problems(
        calls=dict(calls, total=calls["total"] + 1)))
    assert any("integer counts" in p for p in problems(
        calls=dict(calls, sim=1.5)))


def test_committed_bench_file_validates():
    bench = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
    doc = json.loads(bench.read_text())
    assert perf.validate(doc) == []
    assert doc["mode"] == "full"
    assert set(doc["workloads"]) == {
        name for name, spec in perf.WORKLOADS.items() if "full" in spec
    }
