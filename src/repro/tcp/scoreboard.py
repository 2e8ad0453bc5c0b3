"""The sender's retransmission queue and SACK scoreboard.

Tracks every transmitted-but-unacknowledged segment with the per-segment
flags the Linux stack keeps in ``TCP_SKB_CB``: SACKed, lost, number of
(re)transmissions, and whether any retransmission was timeout-driven.
From these it derives the kernel variables that both the sender and the
paper's Table 2 use::

    packets_out = snd_nxt - snd_una                 (in segments)
    in_flight   = packets_out + retrans_out - (sacked_out + lost_out)

``sacked_out``, ``lost_out`` and ``retrans_out`` are counters, not
rescans: every write of a segment's ``sacked``, ``lost`` or
``retrans_outstanding`` flag goes through a :class:`Scoreboard` method
that moves the matching counter, so nothing outside this module
assigns those three flags.  Two facts keep the bookkeeping small: a
segment is never un-SACKed, and SACKing clears ``lost`` — so a segment
is never both.

The scoreboard also implements the loss-marking rule that creates the
paper's *f-double* stalls: a segment that has already been fast-
retransmitted is never eligible for another fast retransmit — if the
retransmission is lost too, only the RTO can recover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..packet.options import SackBlock
from ..packet.seqnum import seq_after, seq_before, seq_geq, seq_leq


@dataclass
class Segment:
    """One transmitted segment awaiting acknowledgment."""

    seq: int
    end_seq: int
    first_tx_time: float
    last_tx_time: float
    sacked: bool = False
    sacked_time: float | None = None
    lost: bool = False
    retrans_count: int = 0
    rto_retrans: bool = False
    fast_retrans: bool = False
    probe_retrans: bool = False
    retrans_outstanding: bool = False
    is_fin: bool = False

    @property
    def length(self) -> int:
        return self.end_seq - self.seq

    @property
    def retransmitted(self) -> bool:
        return self.retrans_count > 0


@dataclass
class SackResult:
    """Outcome of applying one ACK's SACK blocks."""

    newly_sacked: int = 0
    dsack_seen: bool = False
    dsack_ranges: list[SackBlock] = field(default_factory=list)
    newly_sacked_segments: list["Segment"] = field(default_factory=list)


class Scoreboard:
    """Ordered collection of outstanding segments."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self.highest_sacked: int | None = None
        self._sacked_out = 0
        self._lost_out = 0
        # Counts ``retrans_outstanding and not sacked``.
        self._retrans_out = 0

    # -- queue management ---------------------------------------------
    def add(self, segment: Segment) -> None:
        """Append a newly transmitted segment (must be in seq order)."""
        if self._segments and seq_before(
            segment.seq, self._segments[-1].end_seq
        ):
            raise ValueError(
                f"segment {segment.seq} not after queue tail "
                f"{self._segments[-1].end_seq}"
            )
        self._segments.append(segment)

    def ack_through(self, ack: int) -> list[Segment]:
        """Remove and return all segments fully covered by ``ack``."""
        segments = self._segments
        count = 0
        for seg in segments:
            if not seq_leq(seg.end_seq, ack):
                break
            count += 1
        acked = segments[:count]
        del segments[:count]
        if self._sacked_out or self._lost_out or self._retrans_out:
            for seg in acked:
                if seg.sacked:
                    self._sacked_out -= 1
                else:
                    self._lost_out -= seg.lost
                    self._retrans_out -= seg.retrans_outstanding
        return acked

    def clear(self) -> None:
        self._segments.clear()
        self.highest_sacked = None
        self._sacked_out = self._lost_out = self._retrans_out = 0

    # -- SACK processing -----------------------------------------------
    def apply_sack(
        self,
        blocks: list[SackBlock],
        snd_una: int,
        now: float | None = None,
    ) -> SackResult:
        """Mark segments covered by SACK blocks; detect DSACK.

        A block is a DSACK when it lies at or below ``snd_una`` or is
        contained in a later block of the same ACK (RFC 2883).
        """
        result = SackResult()
        for index, (left, right) in enumerate(blocks):
            if seq_leq(right, snd_una):
                result.dsack_seen = True
                result.dsack_ranges.append((left, right))
                continue
            if index == 0 and len(blocks) > 1:
                outer_left, outer_right = blocks[1]
                if seq_geq(left, outer_left) and seq_leq(right, outer_right):
                    result.dsack_seen = True
                    result.dsack_ranges.append((left, right))
                    continue
            for seg in self._segments:
                if seg.sacked:
                    continue
                if seq_geq(seg.seq, left) and seq_leq(seg.end_seq, right):
                    seg.sacked = True
                    seg.sacked_time = now
                    self._sacked_out += 1
                    self._lost_out -= seg.lost
                    seg.lost = False
                    self._retrans_out -= seg.retrans_outstanding
                    result.newly_sacked += 1
                    result.newly_sacked_segments.append(seg)
                    if self.highest_sacked is None or seq_after(
                        seg.end_seq, self.highest_sacked
                    ):
                        self.highest_sacked = seg.end_seq
        return result

    def mark_lost_by_sack(self, dup_thresh: int) -> int:
        """Apply the "dupthres SACKed segments above" loss rule.

        A not-yet-SACKed segment is marked lost when at least
        ``dup_thresh`` SACKed segments lie above it.  Returns the number
        of segments newly marked lost.
        """
        sacked_above = self._sacked_out
        newly_lost = 0
        for seg in self._segments:
            if sacked_above < dup_thresh:
                break
            if seg.sacked:
                sacked_above -= 1
            elif not seg.lost:
                seg.lost = True
                newly_lost += 1
        self._lost_out += newly_lost
        return newly_lost

    def mark_head_lost(self) -> Segment | None:
        """Mark the first unSACKed segment lost (NewReno partial ACK)."""
        for seg in self._segments:
            if not seg.sacked:
                if not seg.lost:
                    seg.lost = True
                    self._lost_out += 1
                return seg
        return None

    def mark_all_lost(self) -> int:
        """RTO expiry: every outstanding unSACKed segment is lost and
        becomes retransmittable again (the kernel clears the fast-
        retransmit mark in ``tcp_enter_loss``)."""
        count = 0
        for seg in self._segments:
            if not seg.sacked:
                seg.lost = True
                seg.fast_retrans = False
                seg.retrans_outstanding = False
                count += 1
        self._lost_out = count
        self._retrans_out = 0
        return count

    def clear_lost(self) -> None:
        """Undo: the episode's loss marks were spurious."""
        if self._lost_out:
            for seg in self._segments:
                seg.lost = False
            self._lost_out = 0

    def mark_retransmitted(self, seg: Segment, now: float) -> None:
        """``seg`` was just (re)transmitted: its latest copy is in the
        network until it is SACKed, acked or declared lost by the RTO."""
        seg.retrans_count += 1
        seg.last_tx_time = now
        if not seg.retrans_outstanding:
            seg.retrans_outstanding = True
            self._retrans_out += not seg.sacked

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    @property
    def empty(self) -> bool:
        return not self._segments

    def head(self) -> Segment | None:
        return self._segments[0] if self._segments else None

    def tail(self) -> Segment | None:
        return self._segments[-1] if self._segments else None

    @property
    def packets_out(self) -> int:
        return len(self._segments)

    @property
    def sacked_out(self) -> int:
        return self._sacked_out

    @property
    def lost_out(self) -> int:
        return self._lost_out

    @property
    def retrans_out(self) -> int:
        """Segments whose latest retransmission is still in the network.

        The flag is cleared when the RTO marks everything lost (the
        kernel zeroes ``retrans_out`` in ``tcp_enter_loss``), so a
        lost-then-retransmitted segment contributes ``+1`` here and
        ``-1`` through ``lost_out``, keeping Equation (1) correct.
        """
        return self._retrans_out

    @property
    def in_flight(self) -> int:
        """Equation (1) of the paper."""
        return (
            len(self._segments)
            + self._retrans_out
            - (self._sacked_out + self._lost_out)
        )

    def next_retransmittable(self) -> Segment | None:
        """First segment eligible for (re)transmission during recovery.

        Eligible = marked lost, not SACKed, and — the crucial 2.6.32
        behaviour — not already fast-retransmitted.
        """
        for seg in self._segments:
            if seg.lost and not seg.sacked and not seg.fast_retrans:
                return seg
        return None

    def next_rto_retransmittable(self) -> Segment | None:
        """First lost segment for timeout-driven go-back-N retransmit."""
        for seg in self._segments:
            if seg.lost and not seg.sacked:
                return seg
        return None

    def find(self, seq: int) -> Segment | None:
        for seg in self._segments:
            if seg.seq == seq:
                return seg
        return None

    def holes(self) -> int:
        """Unacked, unSACKed segments below the highest SACK (Table 2)."""
        if self.highest_sacked is None:
            return 0
        return sum(
            1
            for seg in self._segments
            if not seg.sacked and seq_before(seg.seq, self.highest_sacked)
        )
