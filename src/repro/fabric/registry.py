"""Backend registry: build an interconnect by topology name.

``create_fabric("hypercube", sim, costs, n_endpoints=1024)`` replaces
hard-wiring one builder into each system class; :class:`VorxSystem
<repro.vorx.system.VorxSystem>` and :class:`MeglosSystem
<repro.meglos.kernel.MeglosSystem>` both resolve their interconnect
here.  Builders are registered as callables so the registry imports
nothing heavy at module load (and cannot create an import cycle with
the backend modules, which import :mod:`repro.fabric.base`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.base import FabricBackend
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator

#: topology name -> builder(sim, costs, n_endpoints, **options)
_BACKENDS: Dict[str, Callable[..., "FabricBackend"]] = {}


def register_backend(
    name: str, builder: Callable[..., "FabricBackend"]
) -> None:
    """Register (or override) a topology builder under ``name``."""
    _BACKENDS[name] = builder


def available_topologies() -> list[str]:
    """Registered topology names, sorted."""
    return sorted(_BACKENDS)


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
    try:
        builder = _BACKENDS[topology]
    except KeyError:
        raise ValueError(
            f"unknown fabric topology {topology!r}; "
            f"available: {', '.join(available_topologies())}"
        ) from None
    return builder(sim, costs, n_endpoints, **options)


# -- built-in topologies ----------------------------------------------------
def _build_star(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.hpc.topology import build_single_cluster

    return build_single_cluster(sim, costs, n_endpoints, **options)


def _build_hypercube(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.hpc.topology import build_hypercube

    nodes_per_cluster = options.pop("nodes_per_cluster", 4)
    n_clusters = options.pop(
        "n_clusters", -(-n_endpoints // nodes_per_cluster)
    )
    return build_hypercube(
        sim, costs, n_clusters, nodes_per_cluster,
        n_endpoints=n_endpoints, **options,
    )


def _square_shape(n_endpoints: int, nodes_per_cluster: int) -> tuple[int, int]:
    """Smallest near-square cluster grid holding ``n_endpoints``."""
    n_clusters = -(-n_endpoints // nodes_per_cluster)
    width = 1
    while width * width < n_clusters:
        width += 1
    height = -(-n_clusters // width)
    return (width, height)


def _build_hyperx(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.hpc.topology import build_hyperx

    nodes_per_cluster = options.pop("nodes_per_cluster", 4)
    shape = options.pop("shape", None) or _square_shape(
        n_endpoints, nodes_per_cluster
    )
    return build_hyperx(
        sim, costs, shape, nodes_per_cluster,
        n_endpoints=n_endpoints, **options,
    )


def _build_mesh(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.hpc.topology import build_mesh2d

    nodes_per_cluster = options.pop("nodes_per_cluster", 4)
    shape = options.pop("shape", None) or _square_shape(
        n_endpoints, nodes_per_cluster
    )
    return build_mesh2d(
        sim, costs, shape, nodes_per_cluster,
        n_endpoints=n_endpoints, **options,
    )


def _build_snet(sim, costs, n_endpoints, **options) -> "FabricBackend":
    from repro.snet.fabric import SNetFabric

    return SNetFabric(sim, costs, n_endpoints, **options)


register_backend("star", _build_star)
register_backend("hypercube", _build_hypercube)
register_backend("hyperx", _build_hyperx)
register_backend("mesh", _build_mesh)
register_backend("snet", _build_snet)
