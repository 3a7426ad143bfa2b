"""The chaos campaign driver: policies x regimes x topologies.

A :class:`ChaosCampaign` sweeps *recovery policies* (how the workload
reacts to missing replies) against *fault regimes* (what breaks, and
how hard) on one or more topologies, through the same seeded
:class:`~repro.exp.runtable.RunTable` pipeline the fault-free
experiments use.  The output is

* **chaos/v1 JSONL rows** -- one per repetition: the ``runtable/v1``
  row plus ``campaign``, ``policy`` and ``regime``, digest-pinned in CI
  the same way;
* an :class:`~repro.chaos.slo.SLOReport` judging every cell against the
  declared :class:`~repro.chaos.slo.SLO`, with a Mann-Whitney contrast
  against the fault-free control cell of the same (topology, policy).

Every regime is compiled once per topology on a scratch fabric (builder
naming is deterministic, so compiled site names and crash addresses are
valid on every repetition's fresh fabric) and the fault-free control
regime is always present -- prepended automatically when the caller
does not supply one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.chaos.shapes import FAULT_FREE, FaultRegime
from repro.chaos.slo import SLO, SLOReport, SLOVerdict
from repro.exp.experiment import RunResult, Scenario
from repro.exp.records import CHAOS, RecordSet
from repro.exp.runtable import RunTable
from repro.fabric.registry import available_topologies, create_fabric
from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import Workload, check_retry_knobs


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the workload's front-ends react to missing replies.

    A named bundle of :class:`~repro.workload.generator.Workload` retry
    keyword arguments, checked by the same function ``Workload`` uses;
    ``RecoveryPolicy("none")`` is the no-recovery control (no watchdogs
    spawned, schedules bit-identical to the pre-retry code).
    """

    name: str
    retries: int = 0
    retry_timeout_us: Optional[float] = None
    retry_backoff: float = 1.0
    reroute: bool = False

    def __post_init__(self) -> None:
        if not self.name or "|" in self.name:
            raise ValueError(
                f"RecoveryPolicy(name=...) must be non-empty and "
                f"'|'-free (it is an arm-label component), "
                f"got {self.name!r}"
            )
        check_retry_knobs("RecoveryPolicy", self.retries,
                          self.retry_timeout_us, self.retry_backoff)

    def workload_kwargs(self) -> dict:
        """The ``Workload`` keyword arguments this policy selects."""
        return {
            "retries": self.retries,
            "retry_timeout_us": self.retry_timeout_us,
            "retry_backoff": self.retry_backoff,
            "retry_reroute": self.reroute,
        }


@dataclass(frozen=True)
class ChaosCell:
    """One (policy, regime, topology) cell's aggregated result."""

    policy: RecoveryPolicy
    regime: FaultRegime
    topology: str
    n_endpoints: int
    result: RunResult


class ChaosResult(RecordSet):
    """Everything one campaign produced, JSONL-exportable and judged."""

    def __init__(self, *, campaign: str, slo: SLO,
                 cells: list[ChaosCell], baseline: str) -> None:
        self.campaign = campaign
        self.slo = slo
        self.cells = list(cells)
        #: Name of the fault-free control regime.
        self.baseline = baseline

    def cell(self, *, policy: str, regime: str,
             topology: Optional[str] = None) -> ChaosCell:
        for cell in self.cells:
            if cell.policy.name != policy or cell.regime.name != regime:
                continue
            if topology is not None and cell.topology != topology:
                continue
            return cell
        raise KeyError(
            f"no cell policy={policy!r} regime={regime!r}"
            + (f" topology={topology!r}" if topology else "")
        )

    # -- JSONL ------------------------------------------------------------
    def rows(self) -> list[dict]:
        """chaos/v1 rows: each cell's run-table rows plus the campaign,
        policy and regime columns, one per repetition, in run order."""
        rows = []
        for cell in self.cells:
            for row in cell.result.rows():
                row.update(schema=CHAOS.tag, campaign=self.campaign,
                           policy=cell.policy.name,
                           regime=cell.regime.name)
                rows.append(row)
        return rows

    # -- judgement --------------------------------------------------------
    def slo_report(self) -> SLOReport:
        """Judge every cell; chaos cells get a fault-free contrast."""
        controls = {
            (cell.topology, cell.policy.name): cell
            for cell in self.cells if cell.regime.name == self.baseline
        }
        verdicts = []
        for cell in self.cells:
            pcts = cell.result.percentiles()
            objectives = self.slo.evaluate(
                p95_us=pcts["p95"], p99_us=pcts["p99"],
                failure_rate=cell.result.failure_rate,
            )
            is_baseline = cell.regime.name == self.baseline
            contrast = None
            if not is_baseline:
                control = controls.get((cell.topology, cell.policy.name))
                if (control is not None and cell.result.latencies_us
                        and control.result.latencies_us):
                    contrast = cell.result.contrast(control.result)
            verdicts.append(SLOVerdict(
                arm=cell.result.arm,
                policy=cell.policy.name,
                regime=cell.regime.name,
                topology=cell.topology,
                n_endpoints=cell.n_endpoints,
                objectives=objectives,
                injected=cell.result.injected,
                contrast=contrast,
                is_baseline=is_baseline,
            ))
        return SLOReport(self.slo, verdicts)

    def summary(self) -> str:
        """The SLO verdict table (see ``SLOReport.summary``)."""
        return self.slo_report().summary()


class ChaosCampaign:
    """A seeded sweep of recovery policies x fault regimes x topologies.

    All arguments are keyword-only.

    Parameters
    ----------
    policies:
        :class:`RecoveryPolicy` arms (unique names).
    regimes:
        :class:`~repro.chaos.shapes.FaultRegime` arms (unique names).  A
        fault-free control regime is prepended automatically when none
        of the given regimes is fault-free.
    slo:
        The :class:`~repro.chaos.slo.SLO` every cell is judged against.
    topologies:
        Registered topology *names* (each repetition builds a fresh
        fabric, so pre-built instances are not accepted here).
    n_nodes:
        Endpoints per fabric.
    rate_per_s / n_requests / fanout / request_bytes / reply_bytes /
    service_us / frontends / timeout_us:
        Workload knobs, shared by every cell so the offered load is the
        controlled variable (``timeout_us`` is what converts a
        never-completing request under a crash into a *failed* row
        instead of a hang).
    reps / seed:
        Repetitions per cell and the root seed; cell streams derive
        from ``(seed, arm-label, rep)`` exactly as in ``RunTable``.
    costs:
        Cost model (default: the calibrated paper model).
    options:
        Extra fabric-builder options applied to every cell.
    name:
        Campaign label, carried in every chaos/v1 row.
    """

    def __init__(
        self,
        *,
        policies: Sequence[RecoveryPolicy],
        regimes: Sequence[FaultRegime],
        slo: SLO,
        topologies: Sequence[str] = ("hypercube",),
        n_nodes: int = 256,
        rate_per_s: float = 2_000.0,
        n_requests: int = 150,
        fanout=2,
        request_bytes=64,
        reply_bytes=256,
        service_us=0.0,
        frontends: Optional[int] = None,
        timeout_us: float = 25_000.0,
        reps: int = 2,
        seed: int = 1990,
        costs: Optional[CostModel] = None,
        options: Optional[dict] = None,
        name: str = "chaos",
    ) -> None:
        policies = list(policies)
        if not policies:
            raise ValueError("ChaosCampaign(policies=...) cannot be empty")
        for policy in policies:
            if not isinstance(policy, RecoveryPolicy):
                raise TypeError(
                    f"ChaosCampaign(policies=...) entries must be "
                    f"RecoveryPolicy, got {policy!r}"
                )
        if len({p.name for p in policies}) != len(policies):
            raise ValueError(
                f"ChaosCampaign(policies=...) names must be unique, "
                f"got {[p.name for p in policies]}"
            )
        regimes = list(regimes)
        if not regimes:
            raise ValueError("ChaosCampaign(regimes=...) cannot be empty")
        for regime in regimes:
            if not isinstance(regime, FaultRegime):
                raise TypeError(
                    f"ChaosCampaign(regimes=...) entries must be "
                    f"FaultRegime, got {regime!r}"
                )
        if not any(regime.is_fault_free for regime in regimes):
            regimes.insert(0, FAULT_FREE)
        if len({r.name for r in regimes}) != len(regimes):
            raise ValueError(
                f"ChaosCampaign(regimes=...) names must be unique, "
                f"got {[r.name for r in regimes]}"
            )
        if not isinstance(slo, SLO):
            raise TypeError(
                f"ChaosCampaign(slo=...) must be an SLO, got {slo!r}"
            )
        topologies = list(topologies)
        if not topologies:
            raise ValueError(
                "ChaosCampaign(topologies=...) cannot be empty"
            )
        for topology in topologies:
            if topology not in available_topologies():
                raise ValueError(
                    f"ChaosCampaign(topologies=...) entries must be "
                    f"registered names {available_topologies()}, "
                    f"got {topology!r}"
                )
        if timeout_us is None or timeout_us <= 0:
            raise ValueError(
                f"ChaosCampaign(timeout_us=...) must be positive (it is "
                f"what turns a request lost to a crash into a failed row "
                f"instead of a hang), got {timeout_us!r}"
            )
        self.policies = policies
        self.regimes = regimes
        self.slo = slo
        self.topologies = topologies
        self.n_nodes = n_nodes
        self.reps = reps
        self.seed = seed
        self.costs = costs or DEFAULT_COSTS
        self.options = dict(options or {})
        self.name = str(name)
        self.baseline = next(
            r.name for r in regimes if r.is_fault_free
        )
        #: ``Workload`` kwargs every cell shares; each policy adds its own.
        self._workload_kwargs = {
            "arrivals": PoissonArrivals(rate_per_s=float(rate_per_s)),
            "n_requests": n_requests,
            "fanout": fanout,
            "request_bytes": request_bytes,
            "reply_bytes": reply_bytes,
            "service_us": service_us,
            "frontends": frontends,
            "timeout_us": float(timeout_us),
            "name": self.name,
        }

    # ------------------------------------------------------------------
    def _compile_regimes(self, topology: str) -> dict:
        """Compile every regime once, on a scratch fabric of this cell.

        Builder naming is deterministic, so site names and crash
        addresses resolved here are valid on every repetition's fresh
        fabric -- and compiling eagerly means a shape that cannot apply
        to this topology fails loudly before any cell runs.
        """
        scratch = create_fabric(
            topology, Simulator(), self.costs,
            n_endpoints=self.n_nodes, **self.options,
        )
        return {
            regime.name: regime.compile(scratch, self.seed)
            for regime in self.regimes
        }

    def run(
        self, log: Optional[Callable[[str], None]] = None
    ) -> ChaosResult:
        """Run every cell; ``log`` (e.g. ``print``) narrates progress."""
        cells: list[ChaosCell] = []
        for topology in self.topologies:
            plans = self._compile_regimes(topology)
            for policy in self.policies:
                if log is not None:
                    log(f"chaos: {topology}/{self.n_nodes} "
                        f"{policy.name} x "
                        f"{len(self.regimes)} regimes x {self.reps} reps")
                scenarios = [
                    Scenario(
                        topology=topology, n_nodes=self.n_nodes,
                        faults=plans[regime.name],
                        options=dict(self.options),
                        label=(f"{topology}/{self.n_nodes}"
                               f"|{policy.name}|{regime.name}"),
                    )
                    for regime in self.regimes
                ]
                table = RunTable(
                    scenarios=scenarios,
                    workload=Workload(**self._workload_kwargs,
                                      **policy.workload_kwargs()),
                    reps=self.reps, seed=self.seed, costs=self.costs,
                )
                result = table.run(log)
                for regime, run_result in zip(self.regimes,
                                              result.results):
                    cells.append(ChaosCell(
                        policy=policy, regime=regime, topology=topology,
                        n_endpoints=self.n_nodes, result=run_result,
                    ))
        return ChaosResult(
            campaign=self.name, slo=self.slo, cells=cells,
            baseline=self.baseline,
        )
