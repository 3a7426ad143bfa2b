"""The run-table orchestrator: topologies x sizes x repetitions.

The experiment methodology the interconnect literature settled on --
and the reason PR 6's five fabric backends exist -- is a *matrix* of
configurations, each repeated with independent seeds, compared with
rank statistics rather than eyeballed means.  :class:`RunTable` builds
that matrix out of :class:`~repro.exp.experiment.Scenario` rows, runs
each cell through :class:`~repro.exp.experiment.Experiment`, and
renders three artefacts:

* **JSONL rows** (``runtable/v1``, defined in :mod:`repro.exp.records`)
  -- one line per repetition, the machine-readable record downstream
  analysis (and CI) consumes;
* **summary table** -- per-arm percentiles, throughput, failure rate;
* **contrasts** -- pairwise Mann-Whitney U between topology arms at
  each size (plus a Kruskal-Wallis omnibus when three or more arms
  share a size).

Everything is seeded: the same ``RunTable`` call produces byte-identical
JSONL, which the CI smoke job pins by digest.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.exp.experiment import Contrast, Experiment, RunResult, Scenario
from repro.exp.records import RecordSet
from repro.fabric.base import FabricBackend
from repro.model.costs import CostModel
from repro.workload.generator import Workload
from repro.workload.stats import kruskal_wallis


class RunTableResult(RecordSet):
    """Everything a run-table sweep produced."""

    def __init__(self, results: list[RunResult]) -> None:
        #: One aggregated :class:`RunResult` per arm, in run order.
        self.results = list(results)

    def arm(self, name: str) -> RunResult:
        for result in self.results:
            if result.arm == name:
                return result
        raise KeyError(
            f"no arm {name!r}; have {[r.arm for r in self.results]}"
        )

    # -- JSONL ------------------------------------------------------------
    def rows(self) -> list[dict]:
        return [row for result in self.results for row in result.rows()]

    # -- human-readable summary ------------------------------------------
    def summary(self) -> str:
        """A fixed-width per-arm table (percentiles in microseconds)."""
        header = (
            f"{'arm':<24} {'reps':>4} {'offered':>8} {'fail%':>6} "
            f"{'tput/s':>9} {'p50us':>8} {'p95us':>8} {'p99us':>8}"
        )
        lines = [header, "-" * len(header)]
        for result in self.results:
            pcts = result.percentiles()
            lines.append(
                f"{result.arm:<24} {len(result.reps):>4} "
                f"{result.offered:>8} "
                f"{100.0 * result.failure_rate:>6.2f} "
                f"{result.throughput_per_s:>9.1f} "
                f"{pcts['p50']:>8.1f} {pcts['p95']:>8.1f} "
                f"{pcts['p99']:>8.1f}"
            )
        return "\n".join(lines)

    # -- statistics -------------------------------------------------------
    def contrasts(self) -> list[Contrast]:
        """Pairwise Mann-Whitney contrasts between topology arms.

        Arms are compared within a group sharing the same size and
        chaos flag (comparing a 64-endpoint arm against a 256-endpoint
        arm answers no question the table asked).
        """
        groups: dict[tuple, list[RunResult]] = {}
        for result in self.results:
            key = (result.scenario.n_nodes,
                   result.scenario.faults is not None)
            groups.setdefault(key, []).append(result)
        contrasts: list[Contrast] = []
        for key in sorted(groups):
            members = [r for r in groups[key] if r.latencies_us]
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    contrasts.append(a.contrast(b))
        return contrasts

    def omnibus(self) -> list[dict]:
        """Kruskal-Wallis across each >= 3-arm size group."""
        groups: dict[tuple, list[RunResult]] = {}
        for result in self.results:
            key = (result.scenario.n_nodes,
                   result.scenario.faults is not None)
            groups.setdefault(key, []).append(result)
        out = []
        for key in sorted(groups):
            members = [r for r in groups[key] if r.latencies_us]
            if len(members) < 3:
                continue
            h, p = kruskal_wallis([r.latencies_us for r in members])
            out.append({
                "n_endpoints": key[0],
                "chaos": key[1],
                "arms": [r.arm for r in members],
                "h_statistic": round(h, 4),
                "p_value": p,
            })
        return out


class RunTable:
    """A seeded sweep: topologies x sizes x repetitions (x chaos).

    All arguments are keyword-only.

    Parameters
    ----------
    topologies:
        Topology names and/or pre-built fabric instances; each becomes
        one arm per size (instances ignore ``sizes`` and use their own
        endpoint count).
    sizes:
        Endpoint counts to build each named topology at.
    workload:
        The :class:`~repro.workload.generator.Workload` offered to every
        cell.
    reps:
        Repetitions per cell, independently seeded.
    seed:
        Root seed; every cell derives its streams from
        ``(seed, arm, rep)``.
    cooldown_us:
        Idle separation between repetitions on shared fabric instances.
    chaos:
        Optional :class:`~repro.faults.plan.FaultPlan`; when given,
        every row also runs a ``+chaos`` twin with the plan attached.
    costs:
        Cost model for fabric construction.
    options:
        Builder options applied to every named-topology arm.
    scenarios:
        Prepared :class:`Scenario` rows to run verbatim, mutually
        exclusive with ``topologies``/``sizes``/``chaos``/``options``
        (the chaos campaign driver builds its matrix this way).
    """

    def __init__(
        self,
        *,
        topologies: Optional[Sequence[Union[str, FabricBackend]]] = None,
        sizes: Sequence[int] = (64,),
        workload: Workload,
        reps: int = 3,
        seed: int = 1990,
        cooldown_us: float = 10_000.0,
        chaos=None,
        costs: Optional[CostModel] = None,
        options: Optional[dict] = None,
        scenarios: Optional[Sequence[Scenario]] = None,
    ) -> None:
        if scenarios is not None:
            if topologies is not None or chaos is not None or options:
                raise ValueError(
                    "RunTable(): give scenarios= or the "
                    "topologies=/sizes=/chaos=/options= form, not both"
                )
            if not scenarios:
                raise ValueError("RunTable(scenarios=...) cannot be empty")
            for scenario in scenarios:
                if not isinstance(scenario, Scenario):
                    raise TypeError(
                        f"RunTable(scenarios=...) entries must be "
                        f"Scenario, got {scenario!r}"
                    )
            self.workload = workload
            self.reps = reps
            self.seed = seed
            self.cooldown_us = cooldown_us
            self.costs = costs
            self.scenarios = list(scenarios)
            return
        if not topologies:
            raise ValueError("RunTable(topologies=...) cannot be empty")
        if not sizes:
            raise ValueError("RunTable(sizes=...) cannot be empty")
        if chaos is not None and not hasattr(chaos, "attach"):
            raise TypeError(
                f"RunTable(chaos=...) must be a FaultPlan or None, "
                f"got {chaos!r}"
            )
        self.workload = workload
        self.reps = reps
        self.seed = seed
        self.cooldown_us = cooldown_us
        self.costs = costs
        self.scenarios = []
        for topology in topologies:
            arm_sizes: Sequence[int]
            if isinstance(topology, FabricBackend):
                arm_sizes = (len(topology.addresses),)
            else:
                arm_sizes = sizes
            for size in arm_sizes:
                self.scenarios.append(Scenario(
                    topology=topology, n_nodes=size,
                    options=dict(options or {}),
                ))
                if chaos is not None:
                    self.scenarios.append(Scenario(
                        topology=topology, n_nodes=size, faults=chaos,
                        options=dict(options or {}),
                    ))

    def run(
        self, log: Optional[Callable[[str], None]] = None
    ) -> RunTableResult:
        """Run every cell; ``log`` (e.g. ``print``) narrates progress."""
        results: list[RunResult] = []
        for scenario in self.scenarios:
            if log is not None:
                log(f"runtable: {scenario.arm} x{self.reps} "
                    f"({self.workload.describe()})")
            experiment = Experiment(
                scenario=scenario, workload=self.workload, reps=self.reps,
                seed=self.seed, cooldown_us=self.cooldown_us,
                costs=self.costs,
            )
            results.append(experiment.run())
        return RunTableResult(results)
