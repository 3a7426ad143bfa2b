"""Tests for the many-processor oscilloscope extension (Section 6.2
future work: "ways to effectively display data for more processors")."""

import pytest

from repro import VorxSystem
from repro.apps import run_many_to_one
from repro.tools import SoftwareOscilloscope


def build_busy_system(n_nodes=12):
    """Run ``n_nodes`` unequal workers under a scope armed before the run."""
    system = VorxSystem(n_nodes=n_nodes)
    scope = SoftwareOscilloscope.for_system(system)

    def worker(env, amount):
        yield from env.compute(amount)

    for i in range(n_nodes):
        system.spawn(i, lambda env, i=i: worker(env, 1_000.0 * (i + 1)))
    system.run()
    return system, scope


def test_aggregation_groups_processors():
    _system, scope = build_busy_system(12)
    view = scope.capture_aggregated(group_size=4, bins=20)
    assert len(view.groups) == 3
    assert all(len(members) == 4 for members in view.groups.values())
    assert len(view.utilisation) == 12
    for strip in view.strips.values():
        assert len(strip) == 20


def test_aggregation_uneven_group_sizes():
    _system, scope = build_busy_system(10)
    view = scope.capture_aggregated(group_size=4)
    sizes = [len(members) for members in view.groups.values()]
    assert sizes == [4, 4, 2]


def test_aggregate_breakdown_is_mean_of_members():
    from repro.sim.trace import Category

    system, scope = build_busy_system(4)
    view = scope.capture_aggregated(group_size=4)
    (label,) = view.groups
    per_node = [
        kernel.cpu.timeline.breakdown(view.t0, view.t1)[Category.USER]
        for kernel in system.nodes
    ]
    assert view.mean_breakdown[label][Category.USER] == pytest.approx(
        sum(per_node) / 4
    )


def test_utilisation_percentiles():
    _system, scope = build_busy_system(8)
    view = scope.capture_aggregated(group_size=3)
    stats = view.utilisation_percentiles()
    assert 0.0 <= stats["min"] <= stats["median"] <= stats["max"] <= 1.0
    # The most-loaded node computed 8x what the least-loaded one did.
    assert stats["max"] > stats["min"]


def test_render_aggregated_fits_large_machine():
    result = run_many_to_one(n_workers=12, rounds=3)
    text = result.scope.render_aggregated(group_size=5, bins=30)
    # 13 processors collapse to 3 group lines + header + summary.
    assert len(text.splitlines()) <= 6
    assert "utilisation across 13 processors" in text


def test_aggregation_validates_arguments():
    _system, scope = build_busy_system(2)
    with pytest.raises(ValueError):
        scope.capture_aggregated(group_size=0)
    with pytest.raises(ValueError):
        scope.capture_aggregated(t0=10.0, t1=10.0)
