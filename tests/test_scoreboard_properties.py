"""Property tests: scoreboard invariants under random ACK/SACK storms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp.scoreboard import Scoreboard, Segment

MSS = 1000
WINDOW = 20  # segments in the test window


def segment(index):
    return Segment(
        seq=1 + index * MSS,
        end_seq=1 + (index + 1) * MSS,
        first_tx_time=0.0,
        last_tx_time=0.0,
    )


def fresh_board():
    board = Scoreboard()
    for i in range(WINDOW):
        board.add(segment(i))
    return board


# An "event" is either a cumulative ACK (to a segment boundary) or a
# SACK block covering a random segment range.
ack_events = st.tuples(
    st.just("ack"), st.integers(0, WINDOW), st.just(0)
)
sack_events = st.tuples(
    st.just("sack"), st.integers(0, WINDOW - 1), st.integers(1, 5)
)
mark_events = st.tuples(
    st.sampled_from(["mark_lost", "mark_all", "mark_head"]),
    st.just(0),
    st.just(0),
)
# The remaining flag writers: retransmit the a-th outstanding segment,
# the undo that clears loss marks, new data after the tail, and clear.
other_events = st.tuples(
    st.sampled_from(["retransmit", "clear_lost", "add", "clear"]),
    st.integers(0, WINDOW - 1),
    st.just(0),
)
events = st.lists(
    st.one_of(ack_events, sack_events, mark_events), max_size=40
)
all_events = st.lists(
    st.one_of(ack_events, sack_events, mark_events, other_events),
    max_size=60,
)


def apply_events(board, event_list):
    snd_una = 1
    for kind, a, b in event_list:
        if kind == "ack":
            ack = 1 + a * MSS
            if ack > snd_una:
                board.ack_through(ack)
                snd_una = ack
        elif kind == "sack":
            left = 1 + a * MSS
            right = 1 + min(WINDOW, a + b) * MSS
            board.apply_sack([(left, right)], snd_una, now=1.0)
        elif kind == "mark_lost":
            board.mark_lost_by_sack(3)
        elif kind == "mark_all":
            board.mark_all_lost()
        elif kind == "mark_head":
            board.mark_head_lost()
        elif kind == "retransmit":
            if not board.empty:
                outstanding = list(board)
                board.mark_retransmitted(
                    outstanding[a % len(outstanding)], now=2.0
                )
        elif kind == "clear_lost":
            board.clear_lost()
        elif kind == "add":
            tail = board.tail()
            board.add(
                segment(WINDOW if tail is None else tail.end_seq // MSS)
            )
        elif kind == "clear":
            board.clear()
    return snd_una


class TestCounters:
    @given(all_events)
    @settings(max_examples=300)
    def test_counters_equal_a_recount(self, event_list):
        """``sacked_out`` / ``lost_out`` / ``retrans_out`` are kept
        where flags flip; a rescan of the segment list is the
        definition they must track through every writer."""
        board = fresh_board()
        apply_events(board, event_list)
        segments = list(board)
        sacked = sum(1 for s in segments if s.sacked)
        lost = sum(1 for s in segments if s.lost)
        retrans = sum(
            1 for s in segments if s.retrans_outstanding and not s.sacked
        )
        assert board.sacked_out == sacked
        assert board.lost_out == lost
        assert board.retrans_out == retrans
        assert board.in_flight == len(segments) + retrans - (sacked + lost)
        highest = board.highest_sacked
        assert board.holes() == (
            0
            if highest is None
            else sum(
                1 for s in segments if not s.sacked and s.seq < highest
            )
        )


class TestInvariants:
    @given(events)
    @settings(max_examples=200)
    def test_counts_stay_consistent(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        assert 0 <= board.sacked_out <= board.packets_out
        assert 0 <= board.lost_out <= board.packets_out
        assert 0 <= board.retrans_out <= board.packets_out
        assert board.holes() <= board.packets_out
        # Equation (1) can legitimately dip negative transiently in the
        # kernel; our accessor mirrors the formula, so just bound it.
        assert board.in_flight <= 2 * board.packets_out

    @given(events)
    @settings(max_examples=200)
    def test_segments_never_sacked_and_lost(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        for segment in board:
            assert not (segment.sacked and segment.lost)

    @given(events)
    @settings(max_examples=100)
    def test_retransmittable_is_lost_unsacked_unfastretransmitted(
        self, event_list
    ):
        board = fresh_board()
        apply_events(board, event_list)
        candidate = board.next_retransmittable()
        if candidate is not None:
            assert candidate.lost
            assert not candidate.sacked
            assert not candidate.fast_retrans

    @given(events)
    @settings(max_examples=100)
    def test_queue_stays_seq_ordered(self, event_list):
        board = fresh_board()
        apply_events(board, event_list)
        seqs = [segment.seq for segment in board]
        assert seqs == sorted(seqs)

    @given(events)
    @settings(max_examples=100)
    def test_ack_removes_prefix_only(self, event_list):
        board = fresh_board()
        snd_una = apply_events(board, event_list)
        head = board.head()
        if head is not None:
            assert head.end_seq > snd_una
