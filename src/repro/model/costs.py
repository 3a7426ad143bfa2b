"""The calibrated cost model.

Every timing constant used anywhere in the simulation lives here, so the
calibration against the paper is auditable in one place.  The paper's
anchor measurements (all on 25 MHz MC68020 + MC68882 nodes over the HPC):

====================================================================  =========
Published number                                                      Source
====================================================================  =========
Channel latency, 4-byte messages                         303 us/msg   Table 2
Channel latency, 1024-byte messages                      997 us/msg   Table 2
Channel bandwidth at 1024 bytes                       1027 kbyte/s    Section 4
Sliding-window latency, 1 buffer, 4 bytes                414 us/msg   Table 1
Sliding-window latency, 64 buffers, 4 bytes              164 us/msg   Table 1
User-defined object, no protocol, 64 bytes                60 us/msg   Section 4.1
Bitmap streaming bandwidth                             3.2 Mbyte/s    Section 4.1
Context switch (all registers, fixed + floating point)       80 us    Section 5
Per-process download of 70 processes                          12 s    Section 3.3
Tree download of 70 processes                                  2 s    Section 3.3
HPC port rate                                          160 Mbit/s     Section 1
Maximum HPC message                                     1060 bytes    Section 2
S/NET receive fifo capacity                             2048 bytes    Section 2
====================================================================  =========

Derived calibration
-------------------

*Per-byte copy* -- Table 2's latency slope is (997-303)/1020 = 0.68 us/byte.
One wire traversal at 160 Mbit/s accounts for 0.05 us/byte; the remaining
~0.63 us/byte is two CPU copies (user buffer -> interconnect at the sender,
interconnect -> user buffer at the receiver), i.e. ~0.315 us/byte/copy --
about 3 Mbyte/s of memcpy, which is consistent with a 25 MHz 68020 and with
the 3.2 Mbyte/s single-copy bitmap streaming result.

*Fixed channel path* -- chosen so a 1000-message stop-and-wait stream
measures ~303 us/message for 4-byte messages, decomposed into syscall
entry, kernel channel processing, interrupt handling, acknowledgement
processing and the 80 us context switches documented in Section 5.

The constants below are the result of running ``scripts/calibrate.py``
against the full simulator and nudging the free parameters until the
Table 1 / Table 2 shapes reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.model.units import mbit_per_sec_to_us_per_byte


@dataclass(frozen=True)
class CostModel:
    """All timing constants for the simulated hardware/software stack.

    Instances are immutable; use :meth:`scaled` or :func:`dataclasses.replace`
    to derive variants (e.g. for ablation benchmarks).  Times are
    microseconds, sizes are bytes.
    """

    # ------------------------------------------------------------------
    # CPU / memory (25 MHz MC68020 + MC68882)
    # ------------------------------------------------------------------
    #: CPU copy cost per byte (memcpy between memory and the interconnect
    #: interface).  Calibrated from the Table 2 slope; see module docstring.
    copy_per_byte: float = 0.29
    #: Full context switch between subprocesses: all fixed and floating
    #: point registers saved/restored (Section 5: 80 us).
    context_switch: float = 80.0
    #: Switching between coroutines within a subprocess: only the live
    #: registers at a well-defined call site are saved (Section 5).
    coroutine_switch: float = 12.0
    #: Interrupt entry + exit overhead (vector dispatch, partial save).
    interrupt_overhead: float = 13.0
    #: Trap into the kernel (supervisor call) and return.
    syscall_overhead: float = 25.0

    # ------------------------------------------------------------------
    # HPC interconnect (Section 1, 2)
    # ------------------------------------------------------------------
    #: Port rate: 160 Mbit/s in each direction -> 0.05 us/byte.
    hpc_us_per_byte: float = mbit_per_sec_to_us_per_byte(160.0)
    #: Hardware message header (routing + length + type), bytes.
    hpc_header_bytes: int = 16
    #: Largest message the HPC accepts (Section 2: 1060 bytes of payload).
    hpc_max_message: int = 1060
    #: Fixed per-hop hardware latency (routing decision, cut-through setup).
    hpc_hop_latency: float = 1.0
    #: Input-section buffer at each cluster port / node interface, in
    #: *whole messages* -- a link refuses a message until a full-message
    #: buffer is free (Section 2).
    hpc_port_buffers: int = 2

    # ------------------------------------------------------------------
    # S/NET interconnect (Section 2)
    # ------------------------------------------------------------------
    #: S/NET bus rate (slower, shared-bus predecessor).
    snet_us_per_byte: float = mbit_per_sec_to_us_per_byte(80.0)
    #: S/NET message header, bytes.
    snet_header_bytes: int = 12
    #: Receive fifo capacity in bytes (Section 2: 2048).
    snet_fifo_bytes: int = 2048
    #: Bus acquisition / arbitration overhead per transmission.
    snet_bus_overhead: float = 4.0
    #: Delay before a sender's retransmission loop re-sends after a
    #: fifo-full signal (tight kernel loop; Section 2).
    snet_retry_spin: float = 30.0

    # ------------------------------------------------------------------
    # VORX channel protocol (Section 4, calibrated to Table 2)
    # ------------------------------------------------------------------
    #: Kernel processing for a channel write after the trap: validate the
    #: descriptor, build the header, start the hardware.
    chan_send_kernel: float = 77.0
    #: Kernel processing when a channel data message arrives (after
    #: interrupt overhead): demultiplex, find endpoint, manage buffers.
    chan_recv_kernel: float = 40.0
    #: Building + sending the acknowledgement message inside the receive
    #: path.
    chan_ack_send: float = 18.0
    #: Processing an arriving acknowledgement and readying the writer.
    chan_ack_recv: float = 14.0
    #: Acknowledgement / control message payload size on the wire.
    chan_ack_bytes: int = 8
    #: Kernel side-buffer pool per channel endpoint, in messages ("many
    #: side buffers", Section 4).
    chan_side_buffers: int = 16
    #: Kernel processing for a channel open request/reply at the object
    #: manager (hashing, table search, reply construction).
    chan_open_kernel: float = 180.0

    # ------------------------------------------------------------------
    # Batched fragmented writes ("one syscall, N wire events", Section 4)
    # ------------------------------------------------------------------
    #: In-flight (unacknowledged) fragments a large write starts with.
    #: Both ends of the window range (:meth:`window_range`) default to
    #: it, so on its own it is a fixed window: ``1`` is the
    #: paper-faithful stop-and-wait protocol (what every Table 1/Table 2
    #: calibration uses; see :meth:`unbatched`), and values > 1 enable
    #: the batched large-write path that charges one setup cost per
    #: write and streams fragments back-to-back.  The default is the E20
    #: knee (window 8).  Writes at or below :attr:`hpc_max_message` are
    #: single-fragment and never take the batched path, so the Table 1/2
    #: anchors are unaffected.  Under :meth:`adaptive` it is the
    #: *initial* window.
    chan_batch_window: int = 8
    #: One-time kernel setup for a batched write: validate the descriptor,
    #: build the fragment ring, start the hardware (charged once per
    #: write instead of once per fragment).
    chan_batch_setup: float = 77.0
    #: Per-fragment kernel charge in batched mode: advance the descriptor
    #: ring and kick the next DMA (the expensive validation/header work
    #: was done once at setup).
    chan_batch_frag_kernel: float = 12.0

    # ------------------------------------------------------------------
    # Window range (AIMD congestion control over the deferred-ack flow
    # control; see DESIGN.md "Effective window")
    # ------------------------------------------------------------------
    #: Lower clamp of the batched writer's per-endpoint window; ``0``
    #: pins it at :attr:`chan_batch_window`.  When the range is wider
    #: than one value, the window grows additively on clean cumulative
    #: acks and shrinks multiplicatively on retransmission, ack-RTT
    #: inflation, or receiver side-buffer pressure, down to this clamp
    #: (1 = may degrade all the way to stop-and-wait).
    chan_window_min: int = 0
    #: Upper clamp of the window; ``0`` pins it at
    #: :attr:`chan_batch_window`.  :attr:`chan_side_buffers` caps both
    #: clamps, so a healthy receiver can always buffer the whole window.
    chan_window_max: int = 0
    #: Additive-increase step: fragments added to the window per
    #: window's-worth of cleanly acked fragments (dimensionless).
    chan_window_ai: float = 1.0
    #: Multiplicative-decrease factor applied on a shrink trigger
    #: (dimensionless, in (0, 1)).
    chan_window_md: float = 0.5
    #: EWMA smoothing weight for the ack-RTT estimator (dimensionless;
    #: TCP's classic 1/8).
    chan_rtt_alpha: float = 0.125
    #: Shrink when a fresh ack-RTT sample exceeds this multiple of the
    #: smoothed RTT (dimensionless).
    chan_rtt_inflation: float = 2.0
    #: Shrink when the receiver reports side-buffer occupancy at or
    #: above this fraction of its pool (dimensionless, in (0, 1]).
    chan_pressure_threshold: float = 0.75

    # ------------------------------------------------------------------
    # User-defined communications objects (Section 4.1)
    # ------------------------------------------------------------------
    #: Application writing the device registers directly to launch a
    #: message -- no supervisor call (Section 4.1: part of the 60 us / 64
    #: byte no-protocol path).
    ud_send: float = 22.0
    #: Application-level interrupt service routine body for one incoming
    #: message (beyond `interrupt_overhead`).
    ud_recv: float = 16.0
    #: Polling the interface for input at a convenient place (Section 5's
    #: single-subprocess structure).
    ud_poll: float = 10.0

    # ------------------------------------------------------------------
    # Sliding-window benchmark protocol (Section 4.1, Table 1)
    # ------------------------------------------------------------------
    #: Sender-side per-message bookkeeping in the benchmark's user-level
    #: protocol (count check/decrement, buffer management, loop).
    sw_send_user: float = 14.0
    #: Receiver-side consumption of one message in its main loop.
    sw_consume_user: float = 55.0
    #: Building + sending one buffer-available (credit) message.
    sw_credit_send: float = 41.0
    #: Processing one arriving credit in the sender's ISR.
    sw_credit_recv: float = 6.0
    #: Credit message payload bytes.
    sw_credit_bytes: int = 4
    #: Receiver-side cost per byte to move a message out of the interface
    #: in the benchmark's user-level consume loop (device reads are a bit
    #: slower than memory-to-memory copies).
    sw_consume_per_byte: float = 0.33

    # ------------------------------------------------------------------
    # Scheduler / subprocesses (Section 5)
    # ------------------------------------------------------------------
    #: Kernel work to unblock a subprocess and place it on the ready list
    #: (distinct from the context switch itself).
    wakeup_overhead: float = 12.0
    #: Semaphore P/V operation in the kernel.
    semaphore_op: float = 10.0

    # ------------------------------------------------------------------
    # Hosts, stubs, and downloading (Section 3.3)
    # ------------------------------------------------------------------
    #: Host workstation creating one stub process (fork + exec on a SUN 3).
    stub_create: float = 72_000.0
    #: Host-side setup of the channels between a process and its stub.
    stub_channel_setup: float = 30_000.0
    #: Host executing one forwarded UNIX system call (non-blocking ones).
    stub_syscall: float = 2_000.0
    #: Program text size used for download experiments, bytes.
    program_text_bytes: int = 100 * 1024
    #: Host reading program text from disk, per byte (shared by both
    #: download schemes; the a.out is read once per stub).
    host_disk_per_byte: float = 0.11
    #: Effective host network send cost per byte (protocol + copy on the
    #: workstation, slower than a node's 0.315 us/byte).
    host_net_per_byte: float = 0.38
    #: Node-side cost per byte to receive + store + forward one download
    #: chunk to two children in the tree scheme.
    tree_forward_per_byte: float = 0.45
    #: Download chunk size (one HPC message of program text).
    download_chunk_bytes: int = 1024
    #: Per-process fixed host work in the per-process scheme (process
    #: table setup, symbol table, start message), on top of stub creation.
    download_process_fixed: float = 25_000.0
    #: SunOS per-process open file descriptor limit (Section 3.3).
    host_fd_limit: int = 32

    # ------------------------------------------------------------------
    # Resource management (Section 3.2)
    # ------------------------------------------------------------------
    #: LAN round trip + server work for one request to the *centralized*
    #: Meglos resource manager on the host.
    central_manager_request: float = 9_000.0
    #: Node-to-node request to a distributed VORX object manager.
    distributed_manager_request: float = 600.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.chan_batch_window < 1:
            raise ValueError(
                f"chan_batch_window must be >= 1, got {self.chan_batch_window}"
            )
        if self.chan_side_buffers < 1:
            raise ValueError(
                f"chan_side_buffers must be >= 1, got {self.chan_side_buffers}"
            )
        lo, hi = self.window_range()
        if not 1 <= lo <= hi:
            raise ValueError(
                f"chan_window_min={self.chan_window_min} and chan_window_max="
                f"{self.chan_window_max} give the window range [{lo}, {hi}]; "
                "it needs 1 <= min <= max (0 pins an end at chan_batch_window)"
            )
        requested = self.chan_window_max or self.chan_batch_window
        if requested > 1 and hi == 1:
            # A batched model whose clamp lands on 1 silently degrades to
            # stop-and-wait -- almost always a mis-configuration (e.g.
            # shrinking chan_side_buffers without also setting
            # chan_batch_window=1).  Make it loud.
            raise ValueError(
                f"batched window {requested} is clamped to 1 "
                f"by chan_side_buffers={self.chan_side_buffers}; this "
                "silently degrades to the unbatched stop-and-wait path. "
                "Set chan_batch_window=1 (or use .unbatched()) if that is "
                "intended, or raise chan_side_buffers."
            )
        if self.chan_window_ai <= 0.0:
            raise ValueError(f"chan_window_ai must be > 0, got {self.chan_window_ai}")
        if not 0.0 < self.chan_window_md < 1.0:
            raise ValueError(
                f"chan_window_md must be in (0, 1), got {self.chan_window_md}"
            )
        if not 0.0 < self.chan_rtt_alpha <= 1.0:
            raise ValueError(
                f"chan_rtt_alpha must be in (0, 1], got {self.chan_rtt_alpha}"
            )
        if self.chan_rtt_inflation <= 1.0:
            raise ValueError(
                f"chan_rtt_inflation must be > 1, got {self.chan_rtt_inflation}"
            )
        if not 0.0 < self.chan_pressure_threshold <= 1.0:
            raise ValueError(
                "chan_pressure_threshold must be in (0, 1], got "
                f"{self.chan_pressure_threshold}"
            )

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def copy_time(self, nbytes: int) -> float:
        """CPU time to copy ``nbytes`` between memory and an interface."""
        return self.copy_per_byte * nbytes

    def hpc_wire_time(self, payload_bytes: int) -> float:
        """Serialization time of one HPC message on one link."""
        return self.hpc_us_per_byte * (payload_bytes + self.hpc_header_bytes)

    def snet_wire_time(self, payload_bytes: int) -> float:
        """Serialization time of one S/NET message on the bus."""
        return (
            self.snet_bus_overhead
            + self.snet_us_per_byte * (payload_bytes + self.snet_header_bytes)
        )

    def window_range(self) -> tuple[int, int]:
        """The window clamp ``(lo, hi)``: ``chan_window_min/max`` (``0``
        reads :attr:`chan_batch_window`), both capped by
        :attr:`chan_side_buffers`.  ``lo == hi`` is a fixed window, and a
        write is batched only when ``hi > 1``."""
        cap = self.chan_side_buffers
        return (
            min(self.chan_window_min or self.chan_batch_window, cap),
            min(self.chan_window_max or self.chan_batch_window, cap),
        )

    def batched(
        self, window: int = 8
    ) -> "CostModel":
        """A model whose large writes keep a fixed window of ``window``.

        ``window`` is the number of in-flight fragments a large write may
        pipeline: :attr:`chan_batch_window`, with the window range pinned
        at ``[window, window]``.  All calibrated timing constants are
        unchanged.
        """
        if window < 1:
            raise ValueError(f"batch window must be >= 1, got {window}")
        return replace(
            self,
            chan_batch_window=window,
            chan_window_min=0,
            chan_window_max=0,
        )

    def unbatched(self) -> "CostModel":
        """The paper-faithful stop-and-wait model: ``batched(window=1)``.

        This is what every Table 1/Table 2 calibration uses; the
        determinism goldens pin its event order.
        """
        return self.batched(window=1)

    def adaptive(
        self,
        *,
        initial: int | None = None,
        window_min: int = 1,
        window_max: int = 0,
        ai: float = 1.0,
        md: float = 0.5,
        rtt_alpha: float = 0.125,
        rtt_inflation: float = 2.0,
        pressure: float = 0.75,
    ) -> "CostModel":
        """A model whose batched window moves (AIMD) within a range.

        ``initial`` seeds the starting window (defaults to the current
        :attr:`chan_batch_window`); the window then grows additively by
        ``ai`` per window's-worth of clean cumulative acks and shrinks by
        ``md`` on retransmission, ack-RTT inflation past
        ``rtt_inflation`` x the smoothed RTT (EWMA weight ``rtt_alpha``),
        or receiver side-buffer occupancy at or above ``pressure``,
        clamped to ``[window_min, window_max or chan_side_buffers]`` (and
        both ends to :attr:`chan_side_buffers`).  A range of one value
        is a fixed window.  All calibrated timing constants are
        unchanged.
        """
        if window_min < 1:
            raise ValueError(f"chan_window_min must be >= 1, got {window_min}")
        return replace(
            self,
            chan_batch_window=(
                self.chan_batch_window if initial is None else initial
            ),
            chan_window_min=window_min,
            chan_window_max=window_max or self.chan_side_buffers,
            chan_window_ai=ai,
            chan_window_md=md,
            chan_rtt_alpha=rtt_alpha,
            chan_rtt_inflation=rtt_inflation,
            chan_pressure_threshold=pressure,
        )

    def scaled(self, factor: float) -> "CostModel":
        """A model with every *time* constant multiplied by ``factor``.

        Useful for ablations ("what if the CPU were 4x faster?").  Sizes,
        counts, and the dimensionless adaptive-window ratios are left
        unchanged.
        """
        dimensionless = {
            "chan_window_ai",
            "chan_window_md",
            "chan_rtt_alpha",
            "chan_rtt_inflation",
            "chan_pressure_threshold",
        }
        times = {
            name: getattr(self, name) * factor
            for name, f in self.__dataclass_fields__.items()
            if f.type == "float" and name not in dimensionless
        }
        return replace(self, **times)


#: The calibrated default model used by all benchmarks.
DEFAULT_COSTS = CostModel()
