"""Backend registry: build an interconnect by topology name.

``create_fabric("hypercube", sim, costs, n_endpoints=1024)`` replaces
hard-wiring one builder into each system class; :class:`VorxSystem
<repro.vorx.system.VorxSystem>` and :class:`MeglosSystem
<repro.meglos.kernel.MeglosSystem>` both resolve their interconnect
here.  The built-in cluster topologies are kept as spec functions, so
:func:`topology_spec` can describe one with no simulator (what
:class:`~repro.sim.parallel.ShardedSimulator` partitions) and
:func:`create_fabric` wires the same spec; S/NET is a direct builder.
Entries are callables, so the registry imports nothing heavy at module
load (and cannot create an import cycle with the backend modules, which
import :mod:`repro.fabric.base`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.base import FabricBackend
    from repro.hpc.topology import TopologySpec
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator

#: topology name -> builder(sim, costs, n_endpoints, **options)
_BACKENDS: Dict[str, Callable[..., "FabricBackend"]] = {}
#: cluster topology name -> spec(n_endpoints, **options), wired by
#: :func:`create_fabric` (the built-in cluster topologies)
_SPECS: Dict[str, Callable[..., "TopologySpec"]] = {}


def register_backend(
    name: str, builder: Callable[..., "FabricBackend"]
) -> None:
    """Register (or override) a topology builder under ``name``.  It
    has no spec, so :func:`topology_spec` refuses to shard it."""
    _SPECS.pop(name, None)
    _BACKENDS[name] = builder


def available_topologies() -> list[str]:
    """Registered topology names, sorted."""
    return sorted({*_BACKENDS, *_SPECS})


def create_fabric(
    topology,
    sim: "Simulator",
    costs: "CostModel",
    n_endpoints: int,
    **options,
) -> "FabricBackend":
    """Build the named interconnect with ``n_endpoints`` endpoints.

    Each builder accepts topology-specific keyword ``options`` (for
    example ``nodes_per_cluster`` for the cluster-based fabrics or
    ``shape`` for HyperX and the mesh) and raises ``ValueError`` with
    the capacity arithmetic spelled out when ``n_endpoints`` does not
    fit.

    An already-built :class:`~repro.fabric.base.FabricBackend` instance
    passes through unchanged (so callers holding "name or instance" can
    resolve both through one function) -- provided it is big enough for
    ``n_endpoints`` and tied to the same ``sim``.
    """
    from repro.fabric.base import FabricBackend

    if isinstance(topology, FabricBackend):
        if topology.sim is not sim:
            raise ValueError(
                "create_fabric() got a built fabric tied to a different "
                "simulator than sim="
            )
        if len(topology.addresses) < n_endpoints:
            raise ValueError(
                f"built fabric has {len(topology.addresses)} endpoints, "
                f"need {n_endpoints}"
            )
        return topology
    if topology in _BACKENDS:
        return _BACKENDS[topology](sim, costs, n_endpoints, **options)
    from repro.hpc.topology import build_fabric

    spec = topology_spec(topology, n_endpoints, **options)
    return build_fabric(sim, costs, spec)


def topology_spec(topology: str, n_endpoints: int, **options) -> "TopologySpec":
    """What :func:`create_fabric` wires for a cluster topology, as a
    simulator-free :class:`~repro.hpc.topology.TopologySpec` (same
    options, same capacity errors)."""
    if topology in _SPECS:
        return _SPECS[topology](n_endpoints, **options)
    if topology in _BACKENDS:
        raise ValueError(
            f"sharding needs a cluster fabric, got {topology!r}; the bus "
            f"backends have no cluster structure to partition"
        )
    raise ValueError(
        f"unknown fabric topology {topology!r}; "
        f"available: {', '.join(available_topologies())}"
    )


# -- built-in topologies ----------------------------------------------------
def _star_spec(n_endpoints, **options) -> "TopologySpec":
    from repro.hpc.topology import single_cluster_spec

    return single_cluster_spec(n_endpoints, **options)


def _hypercube_spec(n_endpoints, **options) -> "TopologySpec":
    from repro.hpc.topology import hypercube_spec

    nodes_per_cluster = options.pop("nodes_per_cluster", 4)
    n_clusters = options.pop(
        "n_clusters", -(-n_endpoints // nodes_per_cluster)
    )
    return hypercube_spec(
        n_clusters, nodes_per_cluster, n_endpoints=n_endpoints, **options
    )


def _lattice(n_endpoints: int, options: dict) -> tuple[tuple[int, int], int]:
    """Pop a lattice's ``(shape, nodes_per_cluster)`` from ``options``;
    the shape defaults to the smallest near-square cluster grid holding
    ``n_endpoints``."""
    nodes_per_cluster = options.pop("nodes_per_cluster", 4)
    shape = options.pop("shape", None)
    if not shape:
        n_clusters = -(-n_endpoints // nodes_per_cluster)
        width = 1
        while width * width < n_clusters:
            width += 1
        shape = (width, -(-n_clusters // width))
    return shape, nodes_per_cluster


def _hyperx_spec(n_endpoints, **options) -> "TopologySpec":
    from repro.hpc.topology import hyperx_spec

    shape, nodes_per_cluster = _lattice(n_endpoints, options)
    return hyperx_spec(
        shape, nodes_per_cluster, n_endpoints=n_endpoints, **options
    )


def _mesh_spec(n_endpoints, **options) -> "TopologySpec":
    from repro.hpc.topology import mesh2d_spec

    shape, nodes_per_cluster = _lattice(n_endpoints, options)
    return mesh2d_spec(
        shape, nodes_per_cluster, n_endpoints=n_endpoints, **options
    )


def _build_snet(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.snet.fabric import SNetFabric

    return SNetFabric(sim, costs, n_endpoints, **options)


_SPECS.update(
    star=_star_spec, hypercube=_hypercube_spec, hyperx=_hyperx_spec,
    mesh=_mesh_spec,
)
register_backend("snet", _build_snet)
