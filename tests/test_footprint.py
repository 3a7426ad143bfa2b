"""The idle memory footprint of a built fabric.

Every ``Store`` and ``Semaphore`` keeps its FIFOs as plain lists and
every cluster keeps a dense route table, so a hypercube costs about
14.5 KB per endpoint to build (35.0 KB with deques and route dicts).
The bound leaves 25% headroom over the measured figure.
"""

import gc
import tracemalloc

from repro import DEFAULT_COSTS, Simulator, create_fabric

#: Bytes allocated per endpoint building ``hypercube`` at 256 endpoints.
MAX_BYTES_PER_ENDPOINT = 18_200


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


def test_hypercube_bytes_per_endpoint_is_bounded():
    build_bytes(4)  # first-use imports and caches are not the fabric's
    per_endpoint = build_bytes(256) / 256
    assert per_endpoint <= MAX_BYTES_PER_ENDPOINT, (
        f"{per_endpoint:.0f} B per endpoint"
    )
