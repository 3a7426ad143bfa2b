"""cdb: the VORX communications debugger (paper Section 6.1).

*"For each channel, the state reported by cdb consists of the name of the
channel, which two processes it connects, how many messages have been
sent in each direction on the channel and most importantly, the state of
each end of the channel ...  cdb includes several filters to help isolate
the channels of interest."*

Like the original, this implementation reads the state already encoded in
the communications driver (our :class:`~repro.vorx.channels.ChannelService`
keeps it per endpoint), so it required almost no new mechanism.  On top of
the paper's feature set it computes the wait-for graph and reports cycles
-- the deadlocks the tool was built to diagnose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from networkx import DiGraph

    from repro.vorx.system import VorxSystem


@dataclass(frozen=True)
class ChannelRow:
    """One channel endpoint's state as reported by cdb."""

    name: str
    node: int
    subprocess: str
    peer_addr: Optional[int]
    peer_eid: Optional[int]
    sent: int
    received: int
    bytes_sent: int
    bytes_received: int
    reader_blocked: bool
    writer_blocked: bool
    buffered: int
    open: bool
    closed: bool

    @property
    def state(self) -> str:
        """Human-readable endpoint state."""
        if self.closed:
            return "closed"
        if not self.open:
            return "opening"
        if self.reader_blocked:
            return "blocked-reading"
        if self.writer_blocked:
            return "blocked-writing"
        return "idle"


class Cdb:
    """The communications debugger over a live (or finished) system."""

    def __init__(self, system: "VorxSystem") -> None:
        self.system = system

    # ------------------------------------------------------------------
    # channel state dump with filters
    # ------------------------------------------------------------------
    def channels(
        self,
        name: Optional[str] = None,
        node: Optional[int] = None,
        blocked_only: bool = False,
    ) -> list[ChannelRow]:
        """Every channel endpoint's state, optionally filtered.

        ``name`` filters by channel name substring, ``node`` by node
        index, ``blocked_only`` keeps only endpoints with a blocked
        reader or writer (the paper's most useful filter).
        """
        rows: list[ChannelRow] = []
        for kernel in self.system.all_kernels:
            for snap in kernel.channels.snapshot():
                row = ChannelRow(
                    name=snap["name"],
                    node=snap["node"],
                    subprocess=snap["subprocess"],
                    peer_addr=snap["peer_addr"],
                    peer_eid=snap["peer_eid"],
                    sent=snap["sent"],
                    received=snap["received"],
                    bytes_sent=snap.get("bytes_sent", 0),
                    bytes_received=snap.get("bytes_received", 0),
                    reader_blocked=snap["reader_blocked"],
                    writer_blocked=snap["writer_blocked"],
                    buffered=snap["buffered"],
                    open=snap["open"],
                    closed=snap["closed"],
                )
                if name is not None and name not in row.name:
                    continue
                if node is not None and row.node != self.system.nodes[
                    node
                ].address:
                    continue
                if blocked_only and not (row.reader_blocked or row.writer_blocked):
                    continue
                rows.append(row)
        return rows

    def format(self, rows: Iterable[ChannelRow]) -> str:
        """Render rows as the classic cdb table (now with live byte counters)."""
        header = (
            f"{'CHANNEL':<16} {'NODE':>4} {'SUBPROCESS':<24} "
            f"{'SENT':>5} {'RCVD':>5} {'B-TX':>8} {'B-RX':>8} "
            f"{'BUF':>3} {'STATE':<16}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row.name:<16} {row.node:>4} {row.subprocess:<24} "
                f"{row.sent:>5} {row.received:>5} "
                f"{row.bytes_sent:>8} {row.bytes_received:>8} "
                f"{row.buffered:>3} {row.state:<16}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # deadlock analysis
    # ------------------------------------------------------------------
    def wait_graph(self) -> "DiGraph":
        """The subprocess wait-for graph implied by blocked channel ends.

        A blocked reader waits for the peer endpoint's subprocess to
        write (edge reader -> peer); a blocked writer waits for the
        peer's kernel/reader to drain (edge writer -> peer).
        """
        # Imported here, not at module level: only the deadlock search
        # needs networkx, and ``import repro`` should not pay for it.
        import networkx as nx

        graph = nx.DiGraph()
        # Index endpoints by (address, eid) for peer resolution.
        owner: dict[tuple[int, int], str] = {}
        for kernel in self.system.all_kernels:
            for snap in kernel.channels.snapshot():
                owner[(snap["node"], snap["eid"])] = snap["subprocess"]
        for kernel in self.system.all_kernels:
            for snap in kernel.channels.snapshot():
                if not (snap["reader_blocked"] or snap["writer_blocked"]):
                    continue
                peer = owner.get((snap["peer_addr"], snap["peer_eid"]))
                if peer is None:
                    continue
                graph.add_edge(
                    snap["subprocess"], peer, channel=snap["name"]
                )
        return graph

    def find_deadlocks(self) -> list[list[str]]:
        """Cycles in the wait-for graph (each is a deadlocked clique).

        networkx starts each cycle at a node picked in set order, which
        varies with the string hash seed; each cycle is rotated to begin
        at its smallest subprocess id, and the cycles are sorted, so the
        report is the same in every interpreter.
        """
        import networkx as nx

        cycles = []
        for cycle in nx.simple_cycles(self.wait_graph()):
            first = cycle.index(min(cycle))
            cycles.append(cycle[first:] + cycle[:first])
        return sorted(cycles)

    def report_deadlocks(self) -> str:
        """Human-readable deadlock report (empty string if none)."""
        cycles = self.find_deadlocks()
        if not cycles:
            return ""
        graph = self.wait_graph()
        lines = [f"{len(cycles)} deadlock cycle(s) found:"]
        for i, cycle in enumerate(cycles):
            hops = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                channel = graph.edges[a, b]["channel"]
                hops.append(f"{a} --[{channel}]--> {b}")
            lines.append(f"  cycle {i}: " + "; ".join(hops))
        return "\n".join(lines)
