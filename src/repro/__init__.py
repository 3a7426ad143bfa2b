"""repro: a reproduction of "The Evolution of HPC/VORX" (PPOPP 1990).

A discrete-event simulation of the complete HPC/VORX local area
multicomputer -- the HPC interconnect, the VORX distributed operating
system, its Meglos/S-NET predecessor, the program development tools, and
the applications and experiments the paper reports.

This module is the stable public surface: build a machine with
:class:`VorxSystem` (or :class:`SnetSystem` for the predecessor), write
programs against :class:`Env`, inject faults with :class:`FaultPlan`,
and read results via :func:`summarize` / :func:`fault_summary` and the
tool classes (:class:`Prof`, :class:`SoftwareOscilloscope`,
:class:`Cdb`, :class:`Vdb`).  For measurements, drive stochastic load
with :class:`Workload` and orchestrate seeded sweeps with
:class:`Experiment` / :class:`RunTable`; for fault-tolerance studies,
sweep recovery policies against campaign-scale fault regimes with
:class:`ChaosCampaign` and judge the cells against an :class:`SLO`.

Quick start::

    from repro import VorxSystem

    system = VorxSystem(n_nodes=2)

    def sender(env):
        with (yield from env.channel("data")) as ch:
            yield from env.write(ch, 1024, payload="hello")

    def receiver(env):
        with (yield from env.channel("data")) as ch:
            size, payload = yield from env.read(ch)
        return payload

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    print(rx.result)  # "hello"

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro.chaos import (
    Brownout,
    CascadingCrashes,
    ChaosCampaign,
    ChaosResult,
    FaultRegime,
    LinkGroupFailure,
    NetworkPartition,
    RecoveryPolicy,
    SLO,
    SLOReport,
    validate_chaos_row,
)
from repro.exp import (
    Contrast,
    Experiment,
    RunResult,
    RunTable,
    RunTableResult,
    Scenario,
)
from repro.fabric import (
    FabricBackend,
    FabricPartition,
    available_topologies,
    boundary_cut_sites,
    create_fabric,
    partition_fabric,
    run_all_pairs,
    run_hot_spot,
    run_plan,
)
from repro.faults import FaultPlan, LinkFaults, fault_summary
from repro.meglos import MeglosSystem, SnetSystem
from repro.metrics import MetricsRegistry, Vstat
from repro.metrics.report import summarize, write_jsonl
from repro.model import DEFAULT_COSTS, CostModel
from repro.sim import Simulator
from repro.sim.parallel import ShardedSimulator, ShardedTrafficResult
from repro.vorx import ChannelHandle, Env, NodeKernel, VorxSystem
from repro.workload import (
    ArrivalProcess,
    FixedRateArrivals,
    MMPPArrivals,
    PoissonArrivals,
    Workload,
    WorkloadResult,
)

# The tools build on the vorx layer; importing them last keeps the
# dependency direction obvious.
from repro.tools import Cdb, Prof, SoftwareOscilloscope, Vdb

__version__ = "1.5.0"

__all__ = [
    # systems
    "VorxSystem",
    "MeglosSystem",
    "SnetSystem",
    # workloads & experiments
    "Workload",
    "WorkloadResult",
    "ArrivalProcess",
    "PoissonArrivals",
    "FixedRateArrivals",
    "MMPPArrivals",
    "Experiment",
    "Scenario",
    "RunResult",
    "RunTable",
    "RunTableResult",
    "Contrast",
    # programming surface
    "Env",
    "ChannelHandle",
    "NodeKernel",
    # fault injection
    "FaultPlan",
    "LinkFaults",
    "fault_summary",
    # chaos campaigns
    "ChaosCampaign",
    "ChaosResult",
    "RecoveryPolicy",
    "FaultRegime",
    "LinkGroupFailure",
    "CascadingCrashes",
    "NetworkPartition",
    "Brownout",
    "SLO",
    "SLOReport",
    "validate_chaos_row",
    # metrics & reports
    "summarize",
    "write_jsonl",
    "MetricsRegistry",
    "Vstat",
    # tools
    "Prof",
    "SoftwareOscilloscope",
    "Cdb",
    "Vdb",
    # interconnects
    "FabricBackend",
    "FabricPartition",
    "available_topologies",
    "boundary_cut_sites",
    "create_fabric",
    "partition_fabric",
    "run_all_pairs",
    "run_hot_spot",
    "run_plan",
    # building blocks
    "Simulator",
    "ShardedSimulator",
    "ShardedTrafficResult",
    "CostModel",
    "DEFAULT_COSTS",
    "__version__",
]
