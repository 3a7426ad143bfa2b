"""The redesigned experiment-facing API: ``Experiment`` -> ``RunResult``.

One keyword-only builder is the single entry point for "run this
workload on that cluster, N times, and tell me if the arms differ"::

    from repro import Experiment, Workload, PoissonArrivals

    wl = Workload(arrivals=PoissonArrivals(rate_per_s=2000), n_requests=300)
    hypercube = Experiment(topology="hypercube", n_nodes=256,
                           workload=wl, reps=3, seed=42).run()
    mesh = Experiment(topology="mesh", n_nodes=256,
                      workload=wl, reps=3, seed=42).run()
    print(hypercube.percentiles())
    print(hypercube.contrast(mesh))   # Mann-Whitney U on the latencies

Each repetition gets a fresh simulator and fabric (unless the scenario
pins a pre-built :class:`~repro.fabric.base.FabricBackend` instance, in
which case repetitions share it and are separated by the cooldown), and
a seed derived deterministically from ``(seed, arm, rep)`` -- the same
``Experiment`` call always measures the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Union

from repro.exp.records import RUNTABLE
from repro.fabric.base import FabricBackend
from repro.fabric.registry import available_topologies, create_fabric
from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.workload.generator import Workload, WorkloadResult
from repro.workload.stats import mann_whitney_u, percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class Scenario:
    """One experimental arm: which cluster, how big, what faults.

    ``topology`` is either a registered name (``"hypercube"``,
    ``"mesh"``, ...) or an already-built fabric instance; run-table rows
    accept both interchangeably.
    """

    topology: Union[str, FabricBackend]
    n_nodes: int
    faults: Optional["FaultPlan"] = None
    options: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            if self.topology not in available_topologies():
                raise ValueError(
                    f"Scenario(topology=...) must be a FabricBackend "
                    f"instance or one of {available_topologies()}, "
                    f"got {self.topology!r}"
                )
        elif not isinstance(self.topology, FabricBackend):
            raise TypeError(
                f"Scenario(topology=...) must be a name or a "
                f"FabricBackend instance, got {self.topology!r}"
            )
        if not isinstance(self.n_nodes, int) or isinstance(
            self.n_nodes, bool
        ) or self.n_nodes < 2:
            raise ValueError(
                f"Scenario(n_nodes=...) must be an int >= 2, "
                f"got {self.n_nodes!r}"
            )

    @property
    def topology_name(self) -> str:
        if isinstance(self.topology, str):
            return self.topology
        return self.topology.topology_name

    @property
    def arm(self) -> str:
        """The arm label used in metrics, JSONL rows, and contrasts."""
        if self.label:
            return self.label
        base = f"{self.topology_name}/{self.n_nodes}"
        return base + ("+chaos" if self.faults is not None else "")


@dataclass(frozen=True)
class Contrast:
    """A two-arm Mann-Whitney comparison of request latencies."""

    arm_a: str
    arm_b: str
    n_a: int
    n_b: int
    median_a_us: float
    median_b_us: float
    u_statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05 two-sided significance."""
        return self.p_value < 0.05

    def __str__(self) -> str:
        return (
            f"{self.arm_a} (median {self.median_a_us:.0f}us, n={self.n_a}) "
            f"vs {self.arm_b} (median {self.median_b_us:.0f}us, "
            f"n={self.n_b}): U={self.u_statistic:.1f}, "
            f"p={self.p_value:.4g}"
        )


class RunResult:
    """Aggregated outcome of one experiment arm across repetitions."""

    def __init__(self, scenario: Scenario, seed: int,
                 reps: list[WorkloadResult],
                 injections: Optional[list[int]] = None) -> None:
        self.scenario = scenario
        self.seed = seed
        self.reps = list(reps)
        #: Faults injected per repetition (zeros without a plan).
        self.injections: tuple[int, ...] = tuple(
            injections if injections is not None else [0] * len(self.reps)
        )
        pooled: list[float] = []
        for rep in self.reps:
            pooled.extend(rep.latencies_us)
        pooled.sort()
        #: Per-request latencies pooled over every repetition, sorted.
        self.latencies_us: tuple[float, ...] = tuple(pooled)

    @property
    def arm(self) -> str:
        return self.scenario.arm

    @property
    def offered(self) -> int:
        return sum(rep.offered for rep in self.reps)

    @property
    def completed(self) -> int:
        return sum(rep.completed for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.reps)

    @property
    def failure_rate(self) -> float:
        return self.failed / self.offered if self.offered else 0.0

    @property
    def retries(self) -> int:
        """Retry resend events summed over every repetition."""
        return sum(rep.retries for rep in self.reps)

    @property
    def injected(self) -> int:
        """Faults injected, summed over every repetition."""
        return sum(self.injections)

    @property
    def throughput_per_s(self) -> float:
        """Mean of the per-repetition completion rates."""
        if not self.reps:
            return 0.0
        return sum(rep.throughput_per_s for rep in self.reps) / len(self.reps)

    def percentiles(self) -> dict[str, float]:
        """Exact pooled p50/p95/p99 latency (microseconds)."""
        if not self.latencies_us:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "p50": percentile(self.latencies_us, 50.0),
            "p95": percentile(self.latencies_us, 95.0),
            "p99": percentile(self.latencies_us, 99.0),
        }

    def contrast(self, other: "RunResult") -> Contrast:
        """Mann-Whitney U on pooled per-request latencies vs ``other``."""
        if not isinstance(other, RunResult):
            raise TypeError(
                f"contrast() compares two RunResults, got {other!r}"
            )
        if not self.latencies_us or not other.latencies_us:
            raise ValueError(
                f"contrast() needs completed requests on both arms "
                f"({self.arm}: {len(self.latencies_us)}, "
                f"{other.arm}: {len(other.latencies_us)})"
            )
        u, p = mann_whitney_u(self.latencies_us, other.latencies_us)
        return Contrast(
            arm_a=self.arm,
            arm_b=other.arm,
            n_a=len(self.latencies_us),
            n_b=len(other.latencies_us),
            median_a_us=percentile(self.latencies_us, 50.0),
            median_b_us=percentile(other.latencies_us, 50.0),
            u_statistic=u,
            p_value=p,
        )

    def rows(self) -> list[dict]:
        """One plain-dict row per repetition (the run-table JSONL unit)."""
        rows = []
        for index, rep in enumerate(self.reps):
            pcts = rep.percentiles()
            rows.append({
                "schema": RUNTABLE.tag,
                "arm": self.arm,
                "topology": self.scenario.topology_name,
                "n_endpoints": self.scenario.n_nodes,
                "rep": index,
                "seed": rep.seed,
                "chaos": self.scenario.faults is not None,
                "offered": rep.offered,
                "completed": rep.completed,
                "failed": rep.failed,
                "retries": rep.retries,
                "injected": self.injections[index],
                "failure_rate": round(rep.failure_rate, 6),
                "offered_rate_per_s": round(rep.offered_rate_per_s, 3),
                "throughput_per_s": round(rep.throughput_per_s, 3),
                "duration_us": round(rep.duration_us, 3),
                "p50_us": round(pcts["p50"], 3),
                "p95_us": round(pcts["p95"], 3),
                "p99_us": round(pcts["p99"], 3),
                "fingerprint": rep.fingerprint(),
            })
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pcts = self.percentiles()
        return (
            f"<RunResult {self.arm} reps={len(self.reps)} "
            f"completed={self.completed}/{self.offered} "
            f"p95={pcts['p95']:.0f}us>"
        )


def rep_seed(seed: int, arm: str, rep: int) -> str:
    """The derived seed string for repetition ``rep`` of ``arm``.

    Deterministic and collision-free across arms and repetitions; the
    run-table JSONL records it per row so any single repetition can be
    reproduced in isolation.
    """
    return f"{seed}:{arm}:{rep}"


class Experiment:
    """One arm of a study: a scenario, a workload, and repetitions.

    All arguments are keyword-only.  Pass either ``scenario=`` or the
    inline ``topology=`` / ``n_nodes=`` / ``faults=`` trio -- not both.

    Parameters
    ----------
    workload:
        The :class:`~repro.workload.generator.Workload` to offer.
    topology:
        Interconnect by registered name or as a pre-built
        :class:`~repro.fabric.base.FabricBackend` instance (the same
        convention as ``VorxSystem``/``MeglosSystem``).
    n_nodes:
        Endpoints per repetition (ignored shape options come from
        ``options``).
    scenario:
        A prepared :class:`Scenario`, mutually exclusive with the
        inline trio.
    reps:
        Independent repetitions; each gets a fresh simulator + fabric
        and a seed derived from ``(seed, arm, rep)``.
    seed:
        Root seed for the whole arm.
    cooldown_us:
        Simulated idle time appended after each repetition before its
        successor starts (only observable when repetitions share a
        pinned fabric instance, where it separates the runs in time).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` attached to each
        repetition's simulator (the chaos arm).
    costs:
        Cost model for fabric construction (default: the calibrated
        paper model).
    options:
        Extra keyword options forwarded to the fabric builder
        (``nodes_per_cluster``, ``shape``, ...).
    label:
        Override the derived arm label.
    """

    def __init__(
        self,
        *,
        workload: Workload,
        topology: Union[str, FabricBackend, None] = None,
        n_nodes: Optional[int] = None,
        scenario: Optional[Scenario] = None,
        reps: int = 3,
        seed: int = 1990,
        cooldown_us: float = 10_000.0,
        faults: Optional["FaultPlan"] = None,
        costs: Optional[CostModel] = None,
        options: Optional[dict] = None,
        label: str = "",
    ) -> None:
        if not isinstance(workload, Workload):
            raise TypeError(
                f"Experiment(workload=...) must be a Workload, "
                f"got {workload!r}"
            )
        if scenario is not None:
            if topology is not None or n_nodes is not None or (
                faults is not None or options
            ):
                raise ValueError(
                    "Experiment(): give scenario= or the inline "
                    "topology=/n_nodes=/faults=/options= form, not both"
                )
            if not isinstance(scenario, Scenario):
                raise TypeError(
                    f"Experiment(scenario=...) must be a Scenario, "
                    f"got {scenario!r}"
                )
        else:
            if topology is None:
                raise ValueError(
                    "Experiment() needs topology= (a name or a "
                    "FabricBackend instance) or scenario="
                )
            if n_nodes is None:
                if isinstance(topology, FabricBackend):
                    n_nodes = len(topology.addresses)
                else:
                    raise ValueError(
                        "Experiment(topology=<name>) also needs n_nodes="
                    )
            scenario = Scenario(
                topology=topology, n_nodes=n_nodes, faults=faults,
                options=dict(options or {}), label=label,
            )
        if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
            raise ValueError(
                f"Experiment(reps=...) must be an int >= 1, got {reps!r}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(
                f"Experiment(seed=...) must be an int, got {seed!r}"
            )
        if cooldown_us < 0:
            raise ValueError(
                f"Experiment(cooldown_us=...) cannot be negative, "
                f"got {cooldown_us!r}"
            )
        if costs is not None and not isinstance(costs, CostModel):
            raise TypeError(
                f"Experiment(costs=...) must be a CostModel or None, "
                f"got {costs!r}"
            )
        self.workload = workload
        self.scenario = scenario
        self.reps = reps
        self.seed = seed
        self.cooldown_us = float(cooldown_us)
        self.costs = costs or DEFAULT_COSTS

    # ------------------------------------------------------------------
    def _fabric_for_rep(self) -> FabricBackend:
        scenario = self.scenario
        if isinstance(scenario.topology, FabricBackend):
            return scenario.topology
        sim = Simulator()
        fabric = create_fabric(
            scenario.topology, sim, self.costs,
            n_endpoints=scenario.n_nodes, **dict(scenario.options),
        )
        return fabric

    def run(self) -> RunResult:
        """Run every repetition and aggregate the arm's result."""
        scenario = self.scenario
        arm = scenario.arm
        shared = isinstance(scenario.topology, FabricBackend)
        results: list[WorkloadResult] = []
        injections: list[int] = []
        for rep in range(self.reps):
            fabric = self._fabric_for_rep()
            sim = fabric.sim
            if scenario.faults is not None and sim.faults is None:
                # Passing the fabric lets crash wiring resolve raw
                # endpoints through the attach table and lets the plan
                # validate its site patterns against this topology.
                scenario.faults.attach(
                    SimpleNamespace(sim=sim, fabric=fabric)
                )
            injector = getattr(sim, "faults", None)
            before = injector.injections if injector is not None else 0
            results.append(
                self.workload.run(
                    fabric, seed=rep_seed(self.seed, arm, rep), arm=arm
                )
            )
            injections.append(
                (injector.injections - before) if injector is not None
                else 0
            )
            if self.cooldown_us > 0 and shared:
                sim.run(until=sim.now + self.cooldown_us)
        return RunResult(scenario, self.seed, results, injections)
