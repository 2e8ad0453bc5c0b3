"""Sender scoreboard tests (SACK, loss marking, Equation 1)."""

import pytest

from repro.tcp.scoreboard import Scoreboard, Segment


def seg(seq, length=1000, **kwargs):
    return Segment(
        seq=seq,
        end_seq=seq + length,
        first_tx_time=0.0,
        last_tx_time=0.0,
        **kwargs,
    )


def filled_board(n=5, length=1000):
    board = Scoreboard()
    for i in range(n):
        board.add(seg(i * length, length))
    return board


class TestQueue:
    def test_add_in_order(self):
        board = filled_board(3)
        assert board.packets_out == 3
        assert board.head().seq == 0
        assert board.tail().seq == 2000

    def test_add_out_of_order_rejected(self):
        board = filled_board(2)
        with pytest.raises(ValueError):
            board.add(seg(500))

    def test_ack_through_removes_prefix(self):
        board = filled_board(5)
        acked = board.ack_through(2000)
        assert [s.seq for s in acked] == [0, 1000]
        assert board.packets_out == 3

    def test_partial_segment_not_acked(self):
        board = filled_board(2)
        acked = board.ack_through(1500)
        assert len(acked) == 1

    def test_clear(self):
        board = filled_board(3)
        board.clear()
        assert board.empty


class TestSack:
    def test_marks_covered_segments(self):
        board = filled_board(5)
        result = board.apply_sack([(2000, 4000)], snd_una=0, now=1.0)
        assert result.newly_sacked == 2
        assert board.sacked_out == 2
        assert board.highest_sacked == 4000

    def test_repeated_sack_not_double_counted(self):
        board = filled_board(5)
        board.apply_sack([(2000, 4000)], snd_una=0)
        result = board.apply_sack([(2000, 4000)], snd_una=0)
        assert result.newly_sacked == 0
        assert board.sacked_out == 2

    def test_sacked_time_recorded(self):
        board = filled_board(3)
        result = board.apply_sack([(1000, 2000)], snd_una=0, now=4.2)
        assert result.newly_sacked_segments[0].sacked_time == 4.2

    def test_dsack_below_snd_una(self):
        board = filled_board(3)
        result = board.apply_sack([(0, 1000)], snd_una=2000)
        assert result.dsack_seen
        assert result.dsack_ranges == [(0, 1000)]

    def test_dsack_contained_in_second_block(self):
        board = filled_board(5)
        result = board.apply_sack(
            [(2200, 2800), (2000, 4000)], snd_una=1000
        )
        assert result.dsack_seen

    def test_normal_first_block_not_dsack(self):
        board = filled_board(5)
        result = board.apply_sack([(2000, 3000)], snd_una=1000)
        assert not result.dsack_seen


class CountingList(list):
    """A segment queue that counts the segments read out of it."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class TestSackCost:
    def test_walk_is_bounded_by_what_it_marks(self):
        """On a 2,000-segment window a block reads its own run plus a
        binary search, wherever it lies, and a repeated block next to
        nothing."""
        board = filled_board(2000)
        board._segments = queue = CountingList(board._segments)

        def reads(blocks):
            before = queue.reads
            board.apply_sack(blocks, snd_una=0, now=1.0)
            return queue.reads - before

        assert reads([(10_000, 13_000)]) <= 30
        assert board.sacked_out == 3
        assert reads([(10_000, 13_000)]) <= 2
        assert reads([(10_000, 15_000)]) <= 30  # grown: resumes at 13,000
        assert board.sacked_out == 5
        assert reads([(1_990_000, 2_000_000), (10_000, 15_000)]) <= 40
        assert board.sacked_out == 15
        assert reads([(1_990_000, 2_000_000), (10_000, 15_000)]) <= 2

    def test_sackless_ack_shares_one_empty_result(self):
        board = filled_board(3)
        first = board.apply_sack([], snd_una=0)
        assert first is board.apply_sack([], snd_una=0)
        assert first.newly_sacked == 0 and not first.dsack_seen
        assert first.dsack_ranges == [] and first.newly_sacked_segments == []


class TestLossMarking:
    def test_mark_lost_by_sack_needs_dupthresh_above(self):
        board = filled_board(5)
        board.apply_sack([(1000, 4000)], snd_una=0)  # 3 sacked above seg 0
        newly = board.mark_lost_by_sack(dup_thresh=3)
        assert newly == 1
        assert board.head().lost

    def test_not_enough_sacked(self):
        board = filled_board(5)
        board.apply_sack([(1000, 3000)], snd_una=0)  # only 2 above
        assert board.mark_lost_by_sack(dup_thresh=3) == 0

    def test_mark_head_lost(self):
        board = filled_board(3)
        marked = board.mark_head_lost()
        assert marked.seq == 0 and marked.lost

    def test_mark_head_skips_sacked(self):
        board = filled_board(3)
        board.apply_sack([(0, 1000)], snd_una=0)
        marked = board.mark_head_lost()
        assert marked.seq == 1000

    def test_mark_all_lost_clears_fast_retrans(self):
        board = filled_board(3)
        board.head().fast_retrans = True
        board.mark_retransmitted(board.head(), now=1.0)
        assert board.retrans_out == 1
        count = board.mark_all_lost()
        assert count == 3
        assert not board.head().fast_retrans
        assert not board.head().retrans_outstanding
        assert board.retrans_out == 0 and board.lost_out == 3

    def test_mark_all_lost_spares_sacked(self):
        board = filled_board(3)
        board.apply_sack([(1000, 2000)], snd_una=0)
        assert board.mark_all_lost() == 2


class TestEquationOne:
    def test_clean_window(self):
        board = filled_board(5)
        assert board.in_flight == 5

    def test_sacked_reduce_in_flight(self):
        board = filled_board(5)
        board.apply_sack([(3000, 5000)], snd_una=0)
        assert board.in_flight == 3

    def test_lost_then_retransmitted_counts_once(self):
        board = filled_board(5)
        board.apply_sack([(1000, 5000)], snd_una=0)
        board.mark_lost_by_sack(dup_thresh=3)
        head = board.head()
        assert board.in_flight == 0  # lost head, everything else sacked
        board.mark_retransmitted(head, now=1.0)
        assert head.retrans_count == 1 and head.retrans_outstanding
        assert board.in_flight == 1  # its retransmission is in the net

    def test_holes(self):
        board = filled_board(5)
        board.apply_sack([(3000, 4000)], snd_una=0)
        assert board.holes() == 3


class TestRetransmitSelection:
    def test_next_retransmittable_skips_fast_retransmitted(self):
        """The 2.6.32 rule creating f-double stalls: a fast-
        retransmitted segment is never fast-retransmitted again."""
        board = filled_board(3)
        board.mark_all_lost()
        board.head().fast_retrans = True
        candidate = board.next_retransmittable()
        assert candidate.seq == 1000

    def test_next_rto_retransmittable_includes_fast_retransmitted(self):
        board = filled_board(3)
        board.mark_all_lost()
        board.head().fast_retrans = True
        assert board.next_rto_retransmittable().seq == 0

    def test_none_when_nothing_lost(self):
        board = filled_board(3)
        assert board.next_retransmittable() is None

    def test_find(self):
        board = filled_board(3)
        assert board.find(1000).seq == 1000
        assert board.find(999) is None
