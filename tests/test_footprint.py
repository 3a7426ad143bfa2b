"""The idle memory footprint of a built fabric, and what a run leaves.

Every ``Store`` and ``Semaphore`` keeps its FIFOs as plain lists, every
cluster keeps a one-byte-per-address route table, the hop-path objects
are slotted, and an unlabelled metric key is one tuple shared by every
registry.  A hypercube then costs about 10.6 KB per endpoint to build
at 256 endpoints and 11.6 KB at 1024 (13.1 KB and 15.6 KB with list
route tables, instance dicts and a key tuple per counter; 35.0 KB at
256 with deques and route dicts).  Each bound leaves about 20% headroom
over the figure measured on CPython 3.11.

Run as a script (``PYTHONPATH=src python tests/test_footprint.py``) to
print the per-endpoint figures with the standard library alone, on an
interpreter that has no pytest.
"""

import gc
import sys
import tracemalloc

from repro import (
    DEFAULT_COSTS, PoissonArrivals, Simulator, Workload, create_fabric,
)

#: Bytes allocated per endpoint building ``hypercube``, by endpoint count.
MAX_BYTES_PER_ENDPOINT = {256: 13_000, 1024: 14_000}


def build_bytes(n_endpoints):
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulator()
        fabric = create_fabric(
            "hypercube", sim, DEFAULT_COSTS, n_endpoints=n_endpoints
        )
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fabric.addresses) == n_endpoints
    return size


def bytes_per_endpoint(n_endpoints):
    build_bytes(4)  # first-use imports and caches are not the fabric's
    return build_bytes(n_endpoints) / n_endpoints


def check_bytes_per_endpoint(n_endpoints):
    per_endpoint = bytes_per_endpoint(n_endpoints)
    assert per_endpoint <= MAX_BYTES_PER_ENDPOINT[n_endpoints], (
        f"{per_endpoint:.0f} B per endpoint at {n_endpoints}"
    )


def test_hypercube_bytes_per_endpoint_is_bounded():
    check_bytes_per_endpoint(256)


def test_hypercube_1024_bytes_per_endpoint_is_bounded():
    check_bytes_per_endpoint(1024)


def test_a_finished_run_holds_no_message():
    """Once a message has moved on, neither the link that carried it
    nor a standing handle keeps it (or its sender's done event)
    alive."""
    fabric = create_fabric(
        "hypercube", Simulator(), DEFAULT_COSTS, n_endpoints=64
    )
    result = Workload(
        arrivals=PoissonArrivals(rate_per_s=50_000.0), n_requests=50,
        fanout=2, request_bytes=64, reply_bytes=256, service_us=10.0,
    ).run(fabric, seed=1)
    assert result.completed == 50
    links = list(fabric._links())
    assert sum(link.messages_carried for link in links) > 0
    for link in links:
        assert link._packet is None and link._done is None, link.name
        for handle in (link._on_request, link._on_reserved, link._on_carried):
            assert handle.args == (), link.name
    for cluster in fabric.clusters:
        for forwarder in cluster._forwarders:
            assert forwarder._on_packet.args == ()


def test_hop_path_objects_have_no_instance_dict():
    from repro.fabric.partition import BoundaryLink
    from repro.hpc import BufferedInput, Link
    from repro.sim.resources import Resource, Semaphore, Store
    from repro.workload.trace import RequestRecord, RequestTarget

    sim = Simulator()
    inp = BufferedInput(sim, 2)
    target = RequestTarget(0, 64, 512, 20.0)
    objects = [
        Link(sim, DEFAULT_COSTS, inp),
        BoundaryLink(sim, DEFAULT_COSTS, (0, 0, 0), [], "c0.p0->c1"),
        inp, Semaphore(sim), Resource(sim), Store(sim), target,
        RequestRecord(0, 0.0, 1, (target,)),
    ]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


if __name__ == "__main__":
    for n_endpoints, bound in MAX_BYTES_PER_ENDPOINT.items():
        print(
            f"python {sys.version.split()[0]}: hypercube/{n_endpoints} "
            f"{bytes_per_endpoint(n_endpoints):.0f} B per endpoint "
            f"(bound {bound})"
        )
