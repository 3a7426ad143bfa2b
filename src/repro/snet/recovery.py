"""S/NET overflow recovery (Section 2): retry strategies and the fifo drain.

Each strategy answers one question: *after the hardware reported
fifo-full, what does the sender do before retrying?*  The Meglos kernel
and the bare :class:`~repro.snet.fabric.SNetFabric` run the same code.

The paper's history: Meglos shipped with busy retransmission, which
livelocks under many-to-one bursts of long messages (senders continually
deposit partial messages that the receiver must read and discard, so free
space never reaches a full message's worth).  Random timeouts fix the
livelock but throttle communication to the timeout rate.  The reservation
protocol eliminates overflow entirely but taxes every message with a
round trip.  In the end Meglos implemented none of them reliably and
simply required applications to bound many-to-one message sizes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator
    from repro.snet.fifo import SNetFifo
    from repro.vorx.subprocesses import KernelCore


class Clocked(Protocol):
    """What a pure timeout needs: a kernel or a fabric owning a ``sim``."""

    sim: "Simulator"


class RetryStrategy:
    """Decides how a sender waits between retransmissions."""

    #: Human-readable scheme name for reports.
    name = "abstract"

    def wait(self, node: "KernelCore", attempt: int):
        """Generator: delay (and/or charge CPU) before retry ``attempt``."""
        raise NotImplementedError


class BusyRetransmit(RetryStrategy):
    """The original Meglos scheme: spin in the kernel and resend.

    *"the originating processors were to continuously resend their
    message until it was successfully received"* -- the spin occupies the
    CPU (it is a kernel loop) and re-contends for the bus immediately.
    """

    name = "busy-retransmit"

    def wait(self, node: "KernelCore", attempt: int):
        yield node.k_exec(node.costs.snet_retry_spin)


class RandomBackoff(RetryStrategy):
    """Ethernet-style random timeouts (truncated binary exponential).

    Eliminates kernel busy loops, but when many messages need
    retransmission, "communications runs at the timeout rate; at least an
    order of magnitude slower than the expected communications rate".
    """

    name = "random-backoff"

    def __init__(self, base_us: float = 1_000.0, max_doublings: int = 6,
                 seed: int = 1990) -> None:
        if base_us <= 0:
            raise ValueError(f"backoff base must be positive: {base_us}")
        self.base_us = base_us
        self.max_doublings = max_doublings
        self.rng = random.Random(seed)

    def wait(self, host: Clocked, attempt: int):
        window = 1 << min(attempt, self.max_doublings)
        delay = self.rng.uniform(0, window * self.base_us)
        yield host.sim.timeout(delay)


class Reservation(RetryStrategy):
    """Request/grant reservation (handled in the kernel's send path).

    The sender first transmits a short request and sends data only after
    the receiver grants it.  With one authorized sender at a time and a
    fifo big enough for every processor's request plus one data message,
    overflow never happens -- but every message pays the extra round
    trip, which is why the paper rejected it as the default.
    """

    name = "reservation"

    def wait(self, node: "KernelCore", attempt: int):
        # Only reached if a *request* is rejected (fifo crammed even for
        # short messages); retry politely.
        yield node.sim.timeout(node.costs.snet_retry_spin * 10)


#: Selectable policy names (the Section 2 spectrum) for
#: ``MeglosSystem(recovery=...)``.  "naive" is an alias for the original
#: busy-retransmit scheme that produces the retransmission lockout.
POLICIES: tuple[str, ...] = (
    "busy-retransmit", "naive", "random-backoff", "reservation"
)


def make_strategy(policy: str, address: int, seed: int = 1990) -> RetryStrategy:
    """Build a fresh strategy instance for one sender.

    Each sender gets its own instance (RandomBackoff carries per-sender
    RNG state, seeded deterministically from ``seed`` and the sender's
    bus ``address`` so identical seeds give identical backoff schedules).
    """
    if policy in ("busy-retransmit", "naive"):
        return BusyRetransmit()
    if policy == "random-backoff":
        return RandomBackoff(seed=seed + address)
    if policy == "reservation":
        return Reservation()
    raise ValueError(
        f"recovery policy must be one of {POLICIES}, got {policy!r}"
    )


#: Software drains the fifo in word bursts of this many bytes; space is
#: freed incrementally, so concurrent arrivals see only what has been
#: drained so far (the mechanism behind the Section 2 lockout).
DRAIN_CHUNK_BYTES = 64


def drain(fifo: "SNetFifo", costs: "CostModel", charge, deliver, discard):
    """Generator: one receive interrupt's pass over an S/NET fifo.

    Reads every stored byte, partial prefixes included, a chunk at a
    time.  ``charge(us)`` is the event that pays for time,
    ``deliver(packet)`` the generator (or iterable of events) for a
    whole message, and ``discard(entry)`` accounts a partial.
    """
    yield charge(costs.interrupt_overhead)
    while (head := fifo.peek()) is not None:
        yield charge(costs.copy_time(min(DRAIN_CHUNK_BYTES, head.remaining)))
        entry = fifo.consume(DRAIN_CHUNK_BYTES)
        if entry is not None and entry.partial:
            discard(entry)
        elif entry is not None:
            yield from deliver(entry.packet)
