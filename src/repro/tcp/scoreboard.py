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

SACK processing costs what each ACK adds, not the window.  The queue
is sorted and disjoint (:meth:`Scoreboard.add` refuses anything else),
so the segments one block covers are a single run, found by a binary
search on offsets from the queue head.  A memo of applied blocks (left
edge -> furthest right edge applied) lets a repeated block be skipped
and a grown one resume where it stopped: receivers repeat every block
on every ACK until the cumulative ACK passes it.

The scoreboard also implements the loss-marking rule that creates the
paper's *f-double* stalls: a segment that has already been fast-
retransmitted is never eligible for another fast retransmit — if the
retransmission is lost too, only the RTO can recover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..packet.options import SackBlock
from ..packet.seqnum import SEQ_HALF, SEQ_MASK, seq_before


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


#: The result of every ACK without SACK blocks: one shared instance
#: that nothing may write to.
_NO_SACK = SackResult()


class Scoreboard:
    """Ordered collection of outstanding segments."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self.highest_sacked: int | None = None
        self._sacked_out = 0
        self._lost_out = 0
        # Counts ``retrans_outstanding and not sacked``.
        self._retrans_out = 0
        # Left edge -> furthest right edge applied, capped at the queue
        # tail of the time: every segment in the queue that starts at or
        # past the left edge and ends at or before that right edge is
        # SACKed.  A segment is never un-SACKed and new ones start past
        # the tail, so an entry stays true until its segments leave.
        self._applied: dict[int, int] = {}

    # -- queue management ---------------------------------------------
    def add(self, segment: Segment) -> None:
        """Append a newly transmitted segment (must be in seq order)."""
        segments = self._segments
        # seq_before(segment.seq, tail.end_seq)
        if segments and (
            (segment.seq - segments[-1].end_seq) & SEQ_MASK >= SEQ_HALF
        ):
            raise ValueError(
                f"segment {segment.seq} not after queue tail "
                f"{segments[-1].end_seq}"
            )
        if segment.end_seq == segment.seq:
            # An empty segment at the old tail lies inside a block that
            # reached the tail: the memo no longer vouches for it.
            self._applied.clear()
        segments.append(segment)

    def ack_through(self, ack: int) -> list[Segment]:
        """Remove and return all segments fully covered by ``ack``."""
        segments = self._segments
        count = 0
        for seg in segments:
            # seq_after(seg.end_seq, ack)
            if 0 < (seg.end_seq - ack) & SEQ_MASK < SEQ_HALF:
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
        self._applied.clear()

    # -- SACK processing -----------------------------------------------
    def apply_sack(
        self,
        blocks: list[SackBlock],
        snd_una: int,
        now: float | None = None,
    ) -> SackResult:
        """Mark segments covered by SACK blocks; detect DSACK.

        A block is a DSACK when it lies at or below ``snd_una`` or is
        contained in a later block of the same ACK (RFC 2883).  A block
        covers the segments that start at or past its left edge and end
        at or before its right edge; they are marked block by block, in
        queue order.  Without blocks the result is a shared instance
        that the caller must not modify.
        """
        if not blocks:
            return _NO_SACK
        result = SackResult()
        segments = self._segments
        count = len(segments)
        applied = self._applied
        if not self._sacked_out:
            applied.clear()  # no SACKed segment left for it to vouch for
        for index, (left, right) in enumerate(blocks):
            # seq_leq(right, snd_una)
            if not 0 < (right - snd_una) & SEQ_MASK < SEQ_HALF:
                result.dsack_seen = True
                result.dsack_ranges.append((left, right))
                continue
            if index == 0 and len(blocks) > 1:
                outer_left, outer_right = blocks[1]
                # seq_geq(left, outer_left) and seq_leq(right, outer_right)
                if (left - outer_left) & SEQ_MASK < SEQ_HALF and not (
                    0 < (right - outer_right) & SEQ_MASK < SEQ_HALF
                ):
                    result.dsack_seen = True
                    result.dsack_ranges.append((left, right))
                    continue
            if not count:
                continue
            done = applied.get(left)
            # seq_leq(right, done): a repeated block marks nothing.
            if done is not None and not (
                0 < (right - done) & SEQ_MASK < SEQ_HALF
            ):
                continue
            base = segments[0].seq
            # Signed offsets from the queue head: wraparound-safe.
            right_off = ((right - base + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
            pos = self._run_start(left, done)
            while pos < count:
                seg = segments[pos]
                if (seg.end_seq - base) & SEQ_MASK > right_off:
                    break
                pos += 1
                if seg.sacked:
                    continue
                seg.sacked = True
                seg.sacked_time = now
                self._sacked_out += 1
                self._lost_out -= seg.lost
                seg.lost = False
                self._retrans_out -= seg.retrans_outstanding
                result.newly_sacked += 1
                result.newly_sacked_segments.append(seg)
                highest = self.highest_sacked
                # seq_after(seg.end_seq, highest)
                if highest is None or (
                    0 < (seg.end_seq - highest) & SEQ_MASK < SEQ_HALF
                ):
                    self.highest_sacked = seg.end_seq
            tail_end = segments[-1].end_seq
            # seq_leq(right, tail_end): segments sent later start past
            # the tail, so the memo may only vouch up to it.
            applied[left] = (
                right
                if not 0 < (right - tail_end) & SEQ_MASK < SEQ_HALF
                else tail_end
            )
        return result

    def _run_start(self, left: int, done: int | None = None) -> int:
        """Index of the first segment that starts at or past ``left``
        and, given ``done``, ends past it.

        The queue is sorted and disjoint, so both tests hold on a
        suffix of it: a binary search on signed offsets from the head.
        """
        segments = self._segments
        if not segments:
            return 0
        base = segments[0].seq
        left_off = ((left - base + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
        done_off = (
            -1
            if done is None
            else ((done - base + SEQ_HALF) & SEQ_MASK) - SEQ_HALF
        )
        lo, hi = 0, len(segments)
        while lo < hi:
            mid = (lo + hi) >> 1
            seg = segments[mid]
            if (
                (seg.seq - base) & SEQ_MASK < left_off
                or (seg.end_seq - base) & SEQ_MASK <= done_off
            ):
                lo = mid + 1
            else:
                hi = mid
        return lo

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
        """The first outstanding segment starting at ``seq``, if any."""
        segments = self._segments
        index = self._run_start(seq)
        if index < len(segments) and segments[index].seq == seq:
            return segments[index]
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
