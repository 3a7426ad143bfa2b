"""Experiment orchestration: ``Experiment`` arms and ``RunTable`` sweeps.

The redesigned single entry point for measurements::

    from repro import Experiment, Workload, PoissonArrivals

    wl = Workload(arrivals=PoissonArrivals(rate_per_s=2000), n_requests=300)
    a = Experiment(topology="hypercube", n_nodes=64, workload=wl,
                   reps=3, seed=42).run()
    b = Experiment(topology="mesh", n_nodes=64, workload=wl,
                   reps=3, seed=42).run()
    print(a.percentiles(), a.contrast(b))

For full matrices (topologies x sizes x reps, optional chaos twins),
use :class:`RunTable`, which emits seeded ``runtable/v1`` JSONL plus a
summary table and rank-statistic contrasts.  :mod:`repro.exp.records`
owns the row format every sweep shares.
"""

from repro.exp.experiment import (
    Contrast,
    Experiment,
    RunResult,
    Scenario,
    rep_seed,
)
from repro.exp.records import ROW_SCHEMA, validate_row
from repro.exp.runtable import RunTable, RunTableResult

__all__ = [
    "Contrast",
    "Experiment",
    "RunResult",
    "RunTable",
    "RunTableResult",
    "ROW_SCHEMA",
    "Scenario",
    "rep_seed",
    "validate_row",
]
