"""Unit tests for scripts/perf.py: the min/median/max record, the
determinism check across reps, smoke-only workloads and the v2 schema."""

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


def rep(wall_s, events=1000, **extra):
    return {"events": events, "sim_us": 10.0, "wall_s": wall_s, **extra}


def test_record_is_min_median_max_over_reps(monkeypatch):
    fake_workload(monkeypatch, [rep(2.0), rep(1.0), rep(4.0)])
    record = perf.measure("fake", "full", repeat=3)
    assert record["events"] == 1000 and record["sim_us"] == 10.0
    assert record["repeat"] == 3
    assert record["wall_s"] == {"min": 1.0, "median": 2.0, "max": 4.0}
    assert record["events_per_sec"] == {
        "min": 250.0, "median": 500.0, "max": 1000.0,
    }
    assert perf.validate({"schema": perf.SCHEMA,
                          "workloads": {"fake": record}}) == []


def test_rep_with_different_events_raises(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0), rep(1.0, events=1001)])
    with pytest.raises(RuntimeError, match=r"reps differ in \['events'\]"):
        perf.measure("fake", "full", repeat=2)


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
    assert any("simcore-bench/v2" in p for p in perf.validate(v1))


def test_validate_rejects_bool_and_nonpositive_values(monkeypatch):
    fake_workload(monkeypatch, [rep(1.0)])
    good = perf.measure("fake", "full", repeat=1)
    bad = dict(good, events=True)
    problems = perf.validate({"schema": perf.SCHEMA, "workloads": {"a": bad}})
    assert any("events" in p for p in problems)
    bad = dict(good, events=0)
    problems = perf.validate({"schema": perf.SCHEMA, "workloads": {"a": bad}})
    assert any("must be positive" in p for p in problems)
    bad = dict(good, wall_s={"min": 2.0, "median": 1.0, "max": 3.0})
    problems = perf.validate({"schema": perf.SCHEMA, "workloads": {"a": bad}})
    assert any("min <= median <= max" in p for p in problems)


def test_committed_bench_file_validates():
    bench = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
    doc = json.loads(bench.read_text())
    assert perf.validate(doc) == []
    assert doc["mode"] == "full"
    assert set(doc["workloads"]) == {
        name for name, spec in perf.WORKLOADS.items() if "full" in spec
    }
