"""The receiving half of a TCP endpoint.

Models the client-side behaviours the paper traces back to stall causes:

* **delayed ACKs** — one ACK per two in-order segments, otherwise a
  timer whose duration is a client property (old stacks push toward the
  RFC 1122 bound of 500 ms, which is how ACK-delay stalls beat the
  200 ms minimum RTO);
* **SACK and DSACK generation** — out-of-order arrivals trigger
  immediate duplicate ACKs carrying SACK blocks; duplicate segments are
  reported with a leading DSACK block (RFC 2883), which the sender and
  TAPO use to recognize spurious retransmissions;
* **the receive window** — a finite buffer drained by an application
  reader; slow readers fill the buffer and advertise zero windows.
  The advertised right edge never shrinks, so a zero window appears as
  the ACK number catching up with a frozen edge, exactly as on the wire.
"""

from __future__ import annotations

from collections.abc import Callable

from ..packet.options import SackBlock
from ..packet.packet import PacketRecord
from ..packet.seqnum import (
    SEQ_HALF,
    SEQ_MASK,
    seq_add,
    seq_after,
    seq_before,
    seq_geq,
    seq_leq,
    seq_max,
)
from ..netsim.engine import EventLoop, Timer
from .constants import DELACK_MAX, MAX_SACK_BLOCKS


class AppReader:
    """How the receiving application drains the TCP buffer.

    ``start`` is called once the connection is established; the reader
    then calls :meth:`ReceiverHalf.read` on its own schedule.
    """

    def start(self, receiver: "ReceiverHalf", engine: EventLoop) -> None:
        raise NotImplementedError


class ImmediateReader(AppReader):
    """Reads everything as soon as it arrives (buffer never fills)."""

    def start(self, receiver: "ReceiverHalf", engine: EventLoop) -> None:
        receiver.on_buffered = lambda: receiver.read(receiver.buffered)


class IntervalReader(AppReader):
    """Drains ``chunk`` bytes every ``interval`` seconds.

    A read rate below the arrival rate fills the buffer and produces
    zero-window stalls.
    """

    def __init__(self, chunk: int, interval: float):
        if chunk <= 0 or interval <= 0:
            raise ValueError("chunk and interval must be positive")
        self.chunk = chunk
        self.interval = interval

    def start(self, receiver: "ReceiverHalf", engine: EventLoop) -> None:
        def tick() -> None:
            if receiver.buffered:
                receiver.read(min(self.chunk, receiver.buffered))
            engine.schedule(self.interval, tick)

        engine.schedule(self.interval, tick)


class BurstyReader(AppReader):
    """Reads immediately while active, but alternates with pauses.

    Models client applications that stop draining the socket for a
    while (busy disk, blocked UI thread): with a small receive buffer
    the advertised window collapses to zero during each pause — the
    paper's zero-window stall pattern.  Active/pause durations are
    sampled from the injected ``rng``.
    """

    def __init__(
        self,
        rng,
        active_mean: float = 1.5,
        pause_low: float = 0.3,
        pause_high: float = 1.5,
    ):
        self.rng = rng
        self.active_mean = active_mean
        self.pause_low = pause_low
        self.pause_high = pause_high

    def start(self, receiver: "ReceiverHalf", engine: EventLoop) -> None:
        state = {"paused": False}

        def drain() -> None:
            if not state["paused"] and receiver.buffered:
                receiver.read(receiver.buffered)

        def begin_pause() -> None:
            state["paused"] = True
            engine.schedule(
                self.rng.uniform(self.pause_low, self.pause_high), end_pause
            )

        def end_pause() -> None:
            state["paused"] = False
            drain()
            engine.schedule(
                self.rng.expovariate(1 / self.active_mean), begin_pause
            )

        receiver.on_buffered = drain
        engine.schedule(
            self.rng.expovariate(1 / self.active_mean), begin_pause
        )


class PausingReader(AppReader):
    """Immediate reads, except for scheduled pauses.

    ``pauses`` is a list of ``(start_offset, duration)`` tuples relative
    to connection start; during a pause nothing is read.
    """

    def __init__(self, pauses: list[tuple[float, float]]):
        self.pauses = sorted(pauses)

    def start(self, receiver: "ReceiverHalf", engine: EventLoop) -> None:
        state = {"paused": False}
        start_time = engine.now

        def drain() -> None:
            if not state["paused"] and receiver.buffered:
                receiver.read(receiver.buffered)

        receiver.on_buffered = drain
        for offset, duration in self.pauses:
            def pause(d=duration) -> None:
                state["paused"] = True

                def resume() -> None:
                    state["paused"] = False
                    drain()

                engine.schedule(d, resume)

            engine.schedule_at(start_time + offset, pause)


class ReceiverHalf:
    """Receive-side TCP state for one endpoint."""

    def __init__(
        self,
        engine: EventLoop,
        send_ack: Callable[[], None],
        rcv_buf: int,
        max_rcv_buf: int | None = None,
        delack_timeout: float = DELACK_MAX,
        auto_grow: bool = True,
        mss: int = 1448,
    ):
        self.engine = engine
        self._send_ack = send_ack
        self.rcv_buf = rcv_buf
        self.max_rcv_buf = max_rcv_buf if max_rcv_buf is not None else rcv_buf
        self.delack_timeout = delack_timeout
        self.auto_grow = auto_grow
        self.mss = mss

        self.rcv_nxt = 0
        self.irs: int | None = None
        self.fin_received = False
        self._fin_seq: int | None = None
        #: RFC 7323 ts_recent: the TSval to echo in outgoing ACKs.
        self.ts_recent = 0
        #: rcv_nxt at the time the last ACK was sent (Last.ACK.sent).
        self._last_ack_sent = 0
        self.buffered = 0  # bytes delivered in order but not yet read
        self.total_received = 0
        self._right_edge = 0  # highest advertised window edge
        self._ooo: list[tuple[int, int]] = []  # disjoint, sorted intervals
        self._recent_blocks: list[SackBlock] = []
        self._dsack: SackBlock | None = None
        self._delack_pending = 0
        self._delack_timer: Timer | None = None
        # Linux quickack: the first segments of a connection are ACKed
        # immediately while the sender probes for bandwidth.
        self._quickack = 16
        self.on_delivered: Callable[[int], None] | None = None
        self.on_buffered: Callable[[], None] | None = None
        self.on_fin: Callable[[], None] | None = None
        self.duplicate_segments = 0

    # -- connection setup ----------------------------------------------
    def on_syn(self, seq: int) -> None:
        """Record the peer's initial sequence number."""
        self.irs = seq
        self.rcv_nxt = seq_add(seq, 1)
        self._last_ack_sent = self.rcv_nxt
        self._right_edge = seq_add(self.rcv_nxt, self.window_free())

    def window_free(self) -> int:
        """Bytes of free buffer space."""
        free = self.rcv_buf - self.buffered
        return free if free > 0 else 0

    def advertised_window(self) -> int:
        """Window to put on the wire, relative to rcv_nxt.

        The right edge is monotonic: once advertised, never retracted.
        """
        rcv_nxt = self.rcv_nxt
        edge = (rcv_nxt + self.window_free()) & SEQ_MASK
        right_edge = self._right_edge
        # seq_max(right_edge, edge)
        if not 0 < (right_edge - edge) & SEQ_MASK < SEQ_HALF:
            self._right_edge = right_edge = edge
        return (right_edge - rcv_nxt) & SEQ_MASK

    def sack_blocks(self) -> list[SackBlock]:
        """SACK blocks for the next outgoing ACK (DSACK first)."""
        blocks: list[SackBlock] = []
        if self._dsack is not None:
            blocks.append(self._dsack)
            self._dsack = None
        for block in self._recent_blocks:
            if block not in blocks:
                blocks.append(block)
            if len(blocks) >= MAX_SACK_BLOCKS:
                break
        return blocks

    # -- segment arrival -------------------------------------------------
    def on_data(self, pkt: PacketRecord) -> None:
        """Process an incoming data (or FIN) segment."""
        seq = pkt.seq
        data_end = seq_add(seq, pkt.payload_len)
        immediate = False

        # RFC 7323 ts_recent update: only a segment spanning
        # Last.ACK.sent refreshes the echoed timestamp.  A burst of
        # in-order segments held by the delayed-ACK timer therefore
        # echoes the *first* segment's TSval, so the sender's RTT
        # sample includes the delack wait — the mechanism that keeps
        # real-world RTTVAR (and with it the RTO) high.
        ts_val = pkt.options.ts_val
        if ts_val is not None and seq_leq(seq, self._last_ack_sent):
            if ts_val > self.ts_recent:
                self.ts_recent = ts_val

        if pkt.fin:
            # Remember where the FIN sits; it is consumed only once all
            # data before it has been delivered.
            self._fin_seq = data_end

        if pkt.payload_len == 0:
            if pkt.fin:
                immediate = not self._consume_fin_if_ready()
            if immediate or pkt.fin:
                self._ack_now()
            return

        if seq_leq(data_end, self.rcv_nxt):
            # Entirely duplicate: answer at once with a DSACK.
            self.duplicate_segments += 1
            self._dsack = (seq, data_end)
            self._ack_now()
            return

        if seq_before(seq, self.rcv_nxt):
            # Partial overlap: trim the duplicate prefix.
            self._dsack = (seq, self.rcv_nxt)
            seq = self.rcv_nxt

        if seq == self.rcv_nxt:
            delivered = self._deliver(seq, data_end)
            filled_hole = self._merge_ooo()
            self._delack_pending += 1
            if self._quickack > 0:
                self._quickack -= 1
                immediate = True
            if filled_hole or self._delack_pending >= 2 or self._ooo:
                immediate = True
            if delivered and self.on_delivered is not None:
                self.on_delivered(delivered)
            if self.on_buffered is not None:
                self.on_buffered()
        else:
            # Out of order: store, SACK, and duplicate-ACK immediately.
            if self._insert_ooo(seq, data_end):
                self._recent_blocks.insert(
                    0, self._covering_block(seq, data_end)
                )
                self._recent_blocks = self._recent_blocks[: MAX_SACK_BLOCKS + 1]
            else:
                self.duplicate_segments += 1
                self._dsack = (seq, data_end)
            immediate = True

        if self._consume_fin_if_ready():
            immediate = True

        if immediate:
            self._ack_now()
        elif self._delack_timer is None or not self._delack_timer.pending:
            self._delack_timer = self.engine.schedule(
                self.delack_timeout, self._ack_now
            )

    def _consume_fin_if_ready(self) -> bool:
        """Consume the FIN once rcv_nxt has reached it."""
        if self.fin_received or self._fin_seq is None:
            return self.fin_received
        if self.rcv_nxt == self._fin_seq:
            self.fin_received = True
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            if self.on_fin is not None:
                self.on_fin()
            return True
        return False

    def _deliver(self, seq: int, end: int) -> int:
        """Advance rcv_nxt over in-order bytes; return bytes delivered."""
        length = (end - seq) % (1 << 32)
        self.rcv_nxt = end
        self.buffered += length
        self.total_received += length
        self._maybe_grow_buffer()
        return length

    def _maybe_grow_buffer(self) -> None:
        """Crude receive-buffer auto-tuning: double as traffic arrives."""
        if not self.auto_grow:
            return
        while (
            self.rcv_buf < self.max_rcv_buf
            and self.total_received > self.rcv_buf
        ):
            self.rcv_buf = min(self.rcv_buf * 2, self.max_rcv_buf)

    def _insert_ooo(self, seq: int, end: int) -> bool:
        """Store an out-of-order range; False when fully duplicate."""
        for left, right in self._ooo:
            if seq_geq(seq, left) and seq_leq(end, right):
                return False
        self._ooo.append((seq, end))
        self._ooo.sort(key=lambda block: (block[0] - self.rcv_nxt) % (1 << 32))
        merged: list[tuple[int, int]] = []
        for left, right in self._ooo:
            if merged and seq_leq(left, merged[-1][1]):
                merged[-1] = (merged[-1][0], seq_max(merged[-1][1], right))
            else:
                merged.append((left, right))
        self._ooo = merged
        return True

    def _covering_block(self, seq: int, end: int) -> SackBlock:
        """The merged OOO interval containing [seq, end)."""
        for left, right in self._ooo:
            if seq_geq(seq, left) and seq_leq(end, right):
                return (left, right)
        return (seq, end)

    def _merge_ooo(self) -> bool:
        """Pull now-in-order data out of the OOO store.

        Returns True when a hole was filled (triggers immediate ACK).
        """
        filled = False
        while self._ooo and seq_leq(self._ooo[0][0], self.rcv_nxt):
            left, right = self._ooo.pop(0)
            if seq_after(right, self.rcv_nxt):
                delivered = self._deliver(self.rcv_nxt, right)
                if delivered and self.on_delivered is not None:
                    self.on_delivered(delivered)
            filled = True
        if not self._ooo:
            self._recent_blocks.clear()
        else:
            live = set(self._ooo)
            self._recent_blocks = [b for b in self._recent_blocks if b in live]
        return filled

    # -- application interface ------------------------------------------
    def read(self, nbytes: int) -> int:
        """Application reads ``nbytes`` from the buffer.

        Opening the window from (near) zero sends a window update.
        """
        nbytes = min(nbytes, self.buffered)
        if nbytes <= 0:
            return 0
        was_zero = self.advertised_window() < self.mss
        self.buffered -= nbytes
        if was_zero and self.advertised_window() >= self.mss:
            self._ack_now()
        return nbytes

    # -- ACK emission ------------------------------------------------------
    def _ack_now(self) -> None:
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        self._delack_pending = 0
        self._last_ack_sent = self.rcv_nxt
        self._send_ack()

    def ack_is_pending(self) -> bool:
        return self._delack_pending > 0
