"""Checks of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` (about 20 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
#: Request-count scale per workload: small enough to run in a second or
#: two, large enough that the partition window still catches requests.
TINY = {
    "openloop_hc1024": 0.02,
    "chanrpc_70x10": 0.05,
    "bulk_lossy_8x": 0.05,
    "sharded_hc1024": 0.1,
    "chaos_partition_hc256": 0.2,
}


def names(section: str) -> set:
    return {metric["name"] for metric in SPEC[section]}


@pytest.fixture(scope="module", params=run.workload_names(SPEC))
def measured(request):
    """One plain and one profiled in-process run of a workload."""
    name = request.param
    plain = child.measure(name, 7, scale=TINY[name])
    mode = "workers1" if name == "sharded_hc1024" else ""
    profiled = child.measure(name, 7, mode=mode, profile=True,
                             scale=TINY[name])
    return plain, profiled


def test_spec_lists_every_workload_with_a_setup_metric():
    assert set(TINY) == set(run.workload_names(SPEC))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_emitted_metrics_match_the_spec(measured):
    plain, profiled = measured
    assert not plain["problems"] and not profiled["problems"]
    values = run.end_to_end_values(dict(plain, setup_s=1.0))
    assert set(values) == names("end_to_end")
    assert all(value > 0 for value in values.values())
    layer_metrics = ledger.per_layer_metrics(
        profiled["layers"], profiled["counts"],
        traced_wall_s=profiled["wall_s"], wall_s=plain["wall_s"],
        parallel={},
    )
    assert set(layer_metrics) == names("per_layer")
    fractions = sum(layer_metrics[f"{layer}.self_frac"]
                    for layer in ledger.LAYERS)
    assert fractions == pytest.approx(1.0, abs=run.SELF_FRAC_TOLERANCE)


def test_simulated_metrics_repeat_exactly(measured):
    plain, profiled = measured
    assert plain["digest"] == profiled["digest"]
    assert plain["sim"] == profiled["sim"]
    assert plain["ops"] == profiled["ops"]


@pytest.mark.parametrize("filename, layer", [
    (str(ROOT / "src" / "repro" / "sim" / "engine.py"), "sim"),
    ("/usr/lib/python3/site-packages/repro/hpc/link.py", "hpc"),
    (str(ROOT / "src" / "repro" / "vorx" / "channels.py"), "vorx"),
    (str(HERE / "workloads.py"), "workload"),
    ("/usr/lib/python3.11/heapq.py", "python"),
    ("~", "python"),
])
def test_layer_of_maps_frames_to_packages(filename, layer):
    assert ledger.layer_of(filename) == layer


def _set(values: dict) -> dict:
    metrics = {
        metric["name"]: {"values": values.get(metric["name"], [1.0] * 5)}
        for metric in SPEC["end_to_end"]
    }
    return {"workloads": {"w": {"digest": "d", "metrics": metrics}}}


@pytest.mark.parametrize("after, label", [
    ([1.0, 1.01, 0.99, 1.0, 1.02], "unchanged"),
    ([1.5, 1.51, 1.49, 1.5, 1.52], "worse"),
    ([0.5, 0.51, 0.49, 0.5, 0.52], "better"),
    ([1.0, 2.0, 0.5, 1.0, 1.6], "unresolved"),
    ([0.2, 0.3, 0.1, 0.2, 0.35], "better"),
])
def test_compare_verdicts(after, label):
    wall = next(m for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    assert run.verdict(wall, [1.0, 1.01, 0.99, 1.0, 1.02], after) == label


def test_compare_exits_nonzero_only_on_worse(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "workload_names", lambda spec: ["w"])
    base = tmp_path / "a.json"
    base.write_text(json.dumps(_set({})))
    slower = tmp_path / "b.json"
    slower.write_text(json.dumps(_set({"wall_s": [2.0] * 5})))
    faster = tmp_path / "c.json"
    faster.write_text(json.dumps(_set({"wall_s": [0.5] * 5})))
    assert run.compare(SPEC, base, base) == 0
    assert run.compare(SPEC, base, faster) == 0
    assert run.compare(SPEC, base, slower) == 1


def test_harness_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "openloop_hc1024", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
