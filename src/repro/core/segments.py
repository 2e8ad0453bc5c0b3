"""Analyzer-side segment tracking.

TAPO reconstructs the server's retransmission queue from the trace
alone: every outgoing data segment is recorded, retransmissions are
recognized as sequence ranges transmitted before, SACK blocks from
client ACKs mark segments, and DSACKs identify spurious
retransmissions — which gives the *true* ``lost_out`` the paper uses
to disambiguate loss from reordering (Sec. 3.3).

The tracker is built for multi-thousand-packet flows: cumulative ACKs
advance a prefix pointer instead of rescanning, and a SACK block is
walked from its own left edge and only the first time it is reported,
so a whole-flow replay is linear in the packet count.  Its methods
take primitive fields, not packet objects — the analyzer feeds them
from capture columns; :meth:`SegmentTracker.record_transmission` is the
packet-object adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..packet.options import SackBlock
from ..packet.packet import PacketRecord
from ..packet.seqnum import SEQ_HALF, SEQ_MASK, seq_before, seq_leq

#: Outstanding sequence span below which every circular comparison
#: inside the window agrees with the linear one.
_LINEAR_SPAN = 1 << 30


@dataclass(slots=True)
class AnalyzedSegment:
    """One distinct sequence range the server transmitted.

    Slotted: one instance exists per distinct data segment of every
    flow, so the per-instance ``__dict__`` is measurable at trace
    scale.
    """

    seq: int
    end_seq: int
    is_fin: bool = False
    ordinal: int = 0  # position among distinct data segments of the flow
    tx_times: list[float] = field(default_factory=list)
    #: Times of retransmissions inferred as fast retransmits.  The three
    #: per-trigger lists are created on first access (``__getattr__``
    #: below): most segments are never retransmitted.
    fast_retrans_times: list[float] = field(init=False)
    #: Times of retransmissions inferred as timeout-driven.
    rto_retrans_times: list[float] = field(init=False)
    #: Times of probe retransmissions (TLP / S-RTO traces).
    probe_retrans_times: list[float] = field(init=False)
    sacked_at: float | None = None
    acked_at: float | None = None
    #: Time a DSACK revealed a retransmission of this segment was
    #: spurious (the original had arrived).
    spurious_at: float | None = None

    def __getattr__(self, name: str) -> list[float]:
        # Reached only for a slot not yet set.
        if name.endswith("_retrans_times"):
            times: list[float] = []
            setattr(self, name, times)
            return times
        raise AttributeError(name)

    @property
    def retrans_count(self) -> int:
        return max(0, len(self.tx_times) - 1)

    @property
    def retransmitted(self) -> bool:
        return self.retrans_count > 0

    @property
    def sacked(self) -> bool:
        return self.sacked_at is not None

    def first_retrans_kind(self) -> str | None:
        """'fast', 'rto' or 'probe' — trigger of the first retransmission."""
        candidates = []
        if self.fast_retrans_times:
            candidates.append(("fast", self.fast_retrans_times[0]))
        if self.rto_retrans_times:
            candidates.append(("rto", self.rto_retrans_times[0]))
        if self.probe_retrans_times:
            candidates.append(("probe", self.probe_retrans_times[0]))
        if not candidates:
            return None
        return min(candidates, key=lambda item: item[1])[0]


class SegmentTracker:
    """Reconstructed retransmission queue for one flow."""

    def __init__(self) -> None:
        #: In order of first transmission — sorted by seq except where a
        #: segment with new boundaries appeared below ``transmitted_max``
        #: (repacketized retransmission, capture reordering).
        self.segments: list[AnalyzedSegment] = []
        self._by_seq: dict[int, AnalyzedSegment] = {}
        self._first_unacked = 0  # index of the oldest unacked segment
        self._sacked_out = 0
        # Incremental count of outstanding retransmitted-and-unsacked
        # segments: maintained at the three transition points
        # (retransmission, cumulative ack, SACK) so the per-ACK
        # ``retrans_out()`` query is O(1) instead of a window scan.
        self._retrans_out = 0
        # What lets :meth:`apply_sack` skip work and stay exact: the
        # index of the last segment at which the list stopped being one
        # sorted gap-free run, the longest segment, and the blocks
        # already applied in full.
        self._last_unordered = -1
        self._max_length = 0
        self._applied_blocks: dict[int, int] = {}  # left -> right edge
        self.snd_una: int = 0
        self.transmitted_max: int = 0  # == reconstructed snd_nxt
        self.highest_sacked: int | None = None

    def init_seq(self, iss: int) -> None:
        self.snd_una = (iss + 1) % (1 << 32)
        self.transmitted_max = self.snd_una

    # -- outgoing data ---------------------------------------------------
    def record_transmission(
        self, pkt: PacketRecord, now: float
    ) -> tuple[AnalyzedSegment, bool]:
        """Packet-object adapter of :meth:`record_segment`."""
        return self.record_segment(pkt.seq, pkt.end_seq, pkt.fin, now)

    def record_segment(
        self, seq: int, end_seq: int, is_fin: bool, now: float
    ) -> tuple[AnalyzedSegment, bool]:
        """Record an outgoing data/FIN segment ``[seq, end_seq)``.

        Returns ``(segment, is_retransmission)``.  The analyzer's loop
        performs the contiguous-first-transmission case (``seq ==
        transmitted_max``, not in ``_by_seq``, shorter than
        ``SEQ_HALF``) in place; the two must agree.
        """
        transmitted_max = self.transmitted_max
        # seq_before(seq, transmitted_max)
        is_retrans = (seq - transmitted_max) & SEQ_MASK >= SEQ_HALF
        # seq_after(end_seq, transmitted_max)
        advances = 0 < (end_seq - transmitted_max) & SEQ_MASK < SEQ_HALF
        segment = self._by_seq.get(seq)
        if segment is None:
            segments = self.segments
            segment = AnalyzedSegment(
                seq, end_seq, is_fin, len(segments), [now]
            )
            self._by_seq[seq] = segment
            segments.append(segment)
            length = (end_seq - seq) & SEQ_MASK
            if length > self._max_length:
                self._max_length = length
            contiguous = seq == transmitted_max
        else:
            tx_times = segment.tx_times
            tx_times.append(now)
            if (
                len(tx_times) == 2
                and segment.sacked_at is None
                and segment.acked_at is None
            ):
                # First retransmission of a still-outstanding segment.
                self._retrans_out += 1
            contiguous = not advances
        if not contiguous:
            # New boundaries below snd_nxt, a gap above it, or a longer
            # retransmission pushing it: what is outstanding now is no
            # longer one sorted gap-free run, and a block applied
            # earlier may cover a segment it did not cover then.
            self._last_unordered = len(self.segments) - 1
            self._applied_blocks.clear()
        if advances:
            self.transmitted_max = end_seq
        return segment, is_retrans

    # -- incoming acknowledgments ------------------------------------------
    def apply_ack(self, ack: int, now: float) -> list[AnalyzedSegment]:
        """Advance snd_una; return the newly acked segments."""
        # seq_after(ack, snd_una)
        if not 0 < (ack - self.snd_una) & SEQ_MASK < SEQ_HALF:
            return []
        newly: list[AnalyzedSegment] = []
        segments = self.segments
        index = self._first_unacked
        total = len(segments)
        while index < total:
            segment = segments[index]
            # seq_leq(segment.end_seq, ack)
            if 0 < (segment.end_seq - ack) & SEQ_MASK < SEQ_HALF:
                break
            if segment.acked_at is None:
                segment.acked_at = now
                newly.append(segment)
                if segment.sacked_at is not None:
                    self._sacked_out -= 1
                elif len(segment.tx_times) > 1:
                    self._retrans_out -= 1
            index += 1
        self._first_unacked = index
        self.snd_una = ack
        if not self._sacked_out:
            self._applied_blocks.clear()  # nothing left for them to repeat
        return newly

    def apply_sack(
        self, blocks: list[SackBlock], ack: int, now: float
    ) -> tuple[list[AnalyzedSegment], bool]:
        """Apply SACK blocks; return (newly_sacked_segments, dsack_seen).

        ``ack`` is the cumulative ACK of the same packet: a block at or
        below it is a DSACK (RFC 2883).

        The reference rule for one block is a walk over the outstanding
        segments in list order that stops at the first one starting at
        or past the block's right edge and marks every unSACKed one the
        block covers.  While the outstanding segments are one sorted
        gap-free run up to snd_nxt (see :meth:`record_segment`) shorter
        than :data:`_LINEAR_SPAN`, two shortcuts give the same result:
        the walk may start at the segment whose seq is the block's left
        edge, and a block inside that run applied once marks nothing
        when it is reported again — receivers repeat every block in
        the following ACKs.
        """
        newly: list[AnalyzedSegment] = []
        dsack = False
        segments = self.segments
        total = len(segments)
        first = self._first_unacked
        sorted_run = (
            self._last_unordered < first < total
            and (total - first) * self._max_length < _LINEAR_SPAN
        )
        if sorted_run:
            base = segments[first].seq
            run_length = (self.transmitted_max - base) & SEQ_MASK
        applied = self._applied_blocks
        for index, (left, right) in enumerate(blocks):
            # seq_leq(right, ack)
            if not 0 < (right - ack) & SEQ_MASK < SEQ_HALF:
                dsack = True
                self._record_dsack(left, right, now)
                continue
            if index == 0 and len(blocks) > 1:
                outer_left, outer_right = blocks[1]
                # seq_geq(left, outer_left) and seq_leq(right, outer_right)
                if (left - outer_left) & SEQ_MASK < SEQ_HALF and not (
                    0 < (right - outer_right) & SEQ_MASK < SEQ_HALF
                ):
                    dsack = True
                    self._record_dsack(left, right, now)
                    continue
            pos = first
            if sorted_run:
                length = (right - left) & SEQ_MASK
                if 0 < length <= run_length - ((left - base) & SEQ_MASK):
                    # The block lies inside the run.  Everything it
                    # covers up to the furthest right edge applied for
                    # this left edge is SACKed already: resume there.
                    edge = left
                    done = applied.get(left)
                    if done is not None:
                        if length <= (done - left) & SEQ_MASK:
                            continue
                        edge = done
                    applied[left] = right
                    entry = self._by_seq.get(edge)
                    if entry is None and edge != left:
                        entry = self._by_seq.get(left)
                    if entry is not None and entry.ordinal >= first:
                        pos = entry.ordinal
            while pos < total:
                segment = segments[pos]
                pos += 1
                seq = segment.seq
                # Stop at the first segment with seq_geq(seq, right).
                if (seq - right) & SEQ_MASK < SEQ_HALF:
                    break
                if segment.sacked_at is not None:
                    continue
                # seq_geq(seq, left) and seq_leq(end_seq, right)
                if (seq - left) & SEQ_MASK < SEQ_HALF and not (
                    0 < (segment.end_seq - right) & SEQ_MASK < SEQ_HALF
                ):
                    segment.sacked_at = now
                    newly.append(segment)
                    self._sacked_out += 1
                    if len(segment.tx_times) > 1:
                        self._retrans_out -= 1
                    highest = self.highest_sacked
                    if highest is None or (
                        0 < (segment.end_seq - highest) & SEQ_MASK < SEQ_HALF
                    ):
                        self.highest_sacked = segment.end_seq
        return newly, dsack

    def _record_dsack(self, left: int, right: int, now: float) -> None:
        """A DSACK for [left, right): some transmission was spurious."""
        segment = self.find_covering(left)
        if (
            segment is not None
            and segment.spurious_at is None
            and segment.retransmitted
        ):
            segment.spurious_at = now

    # -- queries --------------------------------------------------------------
    def outstanding(self) -> list[AnalyzedSegment]:
        """Segments transmitted but not yet cumulatively acked."""
        return self.segments[self._first_unacked :]

    def unsacked_below_sacked(self, count: int) -> int:
        """Outstanding unSACKed segments with at least ``count`` SACKed
        segments after them — the kernel's loss marking with
        ``count = dupthres``; with 0, everything unSACKed.

        Scans down from the newest segment only as far as the
        ``count``-th SACKed one; the rest is arithmetic.
        """
        if self._sacked_out < count:
            return 0
        segments = self.segments
        pos = len(segments)
        above = 0
        while above < count:
            pos -= 1
            if segments[pos].sacked_at is not None:
                above += 1
        return (pos - self._first_unacked) - (self._sacked_out - above)

    @property
    def packets_out(self) -> int:
        return len(self.segments) - self._first_unacked

    @property
    def sacked_out(self) -> int:
        return self._sacked_out

    def retrans_out(self) -> int:
        return self._retrans_out

    def holes(self) -> int:
        if self.highest_sacked is None:
            return 0
        return sum(
            1
            for s in self.outstanding()
            if not s.sacked and seq_before(s.seq, self.highest_sacked)
        )

    def find_covering(self, seq: int) -> AnalyzedSegment | None:
        segment = self._by_seq.get(seq)
        if segment is not None:
            return segment
        for candidate in self.segments:
            if seq_leq(candidate.seq, seq) and seq_before(
                seq, candidate.end_seq
            ):
                return candidate
        return None

    @property
    def total_segments(self) -> int:
        return len(self.segments)
