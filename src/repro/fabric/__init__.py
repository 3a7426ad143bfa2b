"""Interconnect abstraction: backends, registry, and traffic drivers.

See :mod:`repro.fabric.base` for the :class:`FabricBackend` contract,
:mod:`repro.fabric.registry` for name-based construction, and
:mod:`repro.fabric.traffic` for the all-pairs / hot-spot drivers and
:func:`run_plan`, which runs any src -> destination-list plan.

Quick start::

    from repro.fabric import create_fabric, run_all_pairs
    from repro.model import DEFAULT_COSTS
    from repro.sim import Simulator

    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=1024)
    result = run_all_pairs(fabric, partners=4)
    print(result.avg_hops, fabric.contention())
"""

from repro.fabric.base import FabricBackend
from repro.fabric.partition import (
    FabricPartition,
    ShardFabric,
    TopologySpec,
    boundary_cut_sites,
    partition_fabric,
    partition_spec,
)
from repro.fabric.registry import (
    available_topologies,
    create_fabric,
    register_backend,
    topology_spec,
)
from repro.fabric.traffic import (
    TrafficResult,
    run_all_pairs,
    run_hot_spot,
    run_plan,
)

__all__ = [
    "FabricBackend",
    "FabricPartition",
    "ShardFabric",
    "TopologySpec",
    "available_topologies",
    "boundary_cut_sites",
    "create_fabric",
    "partition_fabric",
    "partition_spec",
    "register_backend",
    "topology_spec",
    "TrafficResult",
    "run_all_pairs",
    "run_hot_spot",
    "run_plan",
]
