"""repro.chaos: seeded chaos campaigns with SLO-style verdicts.

The fault-injection subsystem (:mod:`repro.faults`) answers "what does
one fault do to one run"; this package answers the operational question
the systems literature actually asks at scale: *which recovery policy
holds its service-level objectives under which fault regimes, on which
topology -- and is the degradation statistically real?*

* :mod:`repro.chaos.shapes` -- campaign-scale fault shapes (correlated
  link-group failures, cascading crashes, network partitions, link
  brownouts) and :class:`FaultRegime`, which compiles shapes into a
  :class:`~repro.faults.plan.FaultPlan` against a built fabric;
* :mod:`repro.chaos.slo` -- declared objectives (:class:`SLO`), per-cell
  verdicts, and the :class:`SLOReport`;
* :mod:`repro.chaos.campaign` -- :class:`ChaosCampaign`, the driver that
  sweeps policies x regimes x topologies through the run-table pipeline
  and emits digest-pinned ``chaos/v1`` JSONL: run-table rows plus the
  ``campaign``, ``policy`` and ``regime`` columns
  (:mod:`repro.exp.records` owns the format).

Quick start::

    from repro import (ChaosCampaign, RecoveryPolicy, FaultRegime,
                       CascadingCrashes, SLO)

    campaign = ChaosCampaign(
        policies=[RecoveryPolicy("none"),
                  RecoveryPolicy("retry", retries=2,
                                 retry_timeout_us=4000, reroute=True)],
        regimes=[FaultRegime("cascade",
                             shapes=(CascadingCrashes(seeds=2),))],
        slo=SLO(p99_us=20_000, failure_rate=0.05),
        n_nodes=256, reps=2, seed=1990,
    )
    result = campaign.run(log=print)
    print(result.summary())          # SLO verdict table
    print(result.digest())           # determinism anchor
"""

from repro.chaos.campaign import (
    ChaosCampaign,
    ChaosCell,
    ChaosResult,
    RecoveryPolicy,
)
from repro.chaos.shapes import (
    FAULT_FREE,
    Brownout,
    CascadingCrashes,
    FaultRegime,
    LinkGroupFailure,
    NetworkPartition,
)
from repro.chaos.slo import SLO, SLOObjective, SLOReport, SLOVerdict
from repro.exp.records import CHAOS_SCHEMA, validate_chaos_row

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosCampaign",
    "ChaosCell",
    "ChaosResult",
    "RecoveryPolicy",
    "validate_chaos_row",
    "FAULT_FREE",
    "Brownout",
    "CascadingCrashes",
    "FaultRegime",
    "LinkGroupFailure",
    "NetworkPartition",
    "SLO",
    "SLOObjective",
    "SLOReport",
    "SLOVerdict",
]
