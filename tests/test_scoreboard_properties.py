"""Property tests: scoreboard invariants under random ACK/SACK storms."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.packet.seqnum import seq_after, seq_geq, seq_leq
from repro.tcp.scoreboard import SackResult, Scoreboard, Segment

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


# ----------------------------------------------------------------------
# Differential oracle: the run search and the applied-block memo against
# the linear walk they replace.
# ----------------------------------------------------------------------
SPACE = 1 << 32


class LinearScoreboard(Scoreboard):
    """The scoreboard with the linear SACK walk and linear ``find``: for
    every block, every outstanding segment is inspected."""

    def apply_sack(self, blocks, snd_una, now=None):
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

    def find(self, seq):
        for seg in self._segments:
            if seg.seq == seq:
                return seg
        return None


# An edge is a segment boundary (by index into the outstanding
# segments' starts and ends) or a byte offset from snd_una, which puts
# it inside segments, in gaps, below snd_una or past snd_nxt.
edges = st.one_of(
    st.tuples(st.just("boundary"), st.integers(0, 60)),
    st.tuples(st.just("byte"), st.integers(-3 * MSS, 30 * MSS)),
)
blocks = st.tuples(edges, edges)
oracle_events = st.lists(
    st.one_of(
        # New data: segment lengths (0 is an empty segment) and a gap
        # before the first one.
        st.tuples(
            st.just("send"),
            st.lists(st.integers(0, MSS), min_size=1, max_size=8),
            st.sampled_from([0, 0, 0, 1, MSS // 2]),
        ),
        # A receiver-shaped ACK: cumulative ACK (bytes past snd_una,
        # capped at snd_nxt), an optional DSACK first (below the ACK or
        # inside the next block), then up to three blocks newest first.
        st.tuples(
            st.just("ack"),
            st.integers(0, 12 * MSS),
            st.sampled_from([None, "below", "inside"]),
            st.lists(blocks, max_size=3),
        ),
        # The previous ACK's SACK blocks again (its DSACK is reported
        # once), the first one grown by some bytes (0 repeats it).
        st.tuples(st.just("repeat"), st.sampled_from([0, 0, 1, MSS, 3 * MSS])),
        # The other writers; ``clear`` with an odd argument restarts
        # the sequence space at the ISS, under blocks applied before.
        st.tuples(
            st.sampled_from(
                ["mark_all_lost", "mark_lost", "mark_head_lost", "clear_lost",
                 "clear", "retransmit"]
            ),
            st.integers(0, 40),
        ),
    ),
    max_size=50,
)
isses = st.one_of(
    st.integers(SPACE - (1 << 16), SPACE - 1),  # the queue wraps
    st.integers(0, SPACE - 1),
)


def result_fields(result):
    return (
        result.newly_sacked,
        result.dsack_seen,
        result.dsack_ranges,
        [(s.seq, s.end_seq) for s in result.newly_sacked_segments],
    )


def board_state(board):
    return (
        [vars(s) for s in board],
        board.sacked_out,
        board.lost_out,
        board.retrans_out,
        board.highest_sacked,
    )


class TestApplySackOracle:
    """``apply_sack`` and ``find`` agree with the linear walk on every
    result field (in order), every segment flag, the three counters and
    ``highest_sacked``, through the other writers interleaved."""

    @given(isses, oracle_events)
    @settings(deadline=None)
    # A block past the tail, new data under it, the block again.
    @example(SPACE - 2500, [
        ("send", [1000, 1000], 0),
        ("ack", 0, None, [(("byte", 1000), ("byte", 5000))]),
        ("send", [1000, 1000], 0),
        ("repeat", 0),
    ])
    # A right edge inside a segment, then the block grown past it.
    @example(SPACE - 2500, [
        ("send", [1000] * 4, 0),
        ("ack", 0, None, [(("byte", 1000), ("byte", 2500))]),
        ("repeat", 1000),
    ])
    # An empty segment sent at the right edge of an applied block.
    @example(7, [
        ("send", [1000, 1000], 0),
        ("ack", 0, None, [(("byte", 1000), ("byte", 2000))]),
        ("send", [0], 0),
        ("repeat", 0),
    ])
    # Blocks applied, the board cleared, the same sequence space reused.
    @example(7, [
        ("send", [1000] * 3, 0),
        ("ack", 0, "inside", [(("byte", 1000), ("byte", 3000))]),
        ("clear", 1),
        ("send", [1000] * 3, 0),
        ("ack", 0, None, [(("byte", 0), ("byte", 1000))]),
        ("repeat", 0),
    ])
    def test_matches_linear_walk(self, iss, event_list):
        real, reference = Scoreboard(), LinearScoreboard()
        snd_una = snd_nxt = (iss + 1) % SPACE
        last_blocks: list = []
        now = 0.0

        def offset(seq):
            return (seq - snd_una) % SPACE

        def edge_order(seq):  # from below every generated edge
            return (seq - snd_una + 4 * MSS) % SPACE

        def resolve(edge):
            kind, value = edge
            if kind == "byte":
                return (snd_una + value) % SPACE
            points = [snd_una, snd_nxt]
            for seg in real:
                points += [seg.seq, seg.end_seq]
            return points[value % len(points)]

        def both(method, *args):
            got = getattr(real, method)(*args)
            expected = getattr(reference, method)(*args)
            return got, expected

        for event in event_list:
            now += 0.5
            kind = event[0]
            if kind == "send":
                _, lengths, gap = event
                seq = (snd_nxt + gap) % SPACE
                for length in lengths:
                    end = (seq + length) % SPACE
                    for board in (real, reference):
                        board.add(Segment(seq, end, now, now))
                    seq = end
                snd_nxt = seq
            elif kind in ("ack", "repeat"):
                if kind == "ack":
                    _, advance, dsack, raw = event
                    ack = (snd_una + min(advance, offset(snd_nxt))) % SPACE
                    current = [
                        tuple(sorted((resolve(a), resolve(b)), key=edge_order))
                        for a, b in raw
                    ]
                    last_blocks = list(current)
                    if dsack == "below" and offset(ack) > 0:
                        low = (ack - min(offset(ack), MSS)) % SPACE
                        current.insert(0, (low, ack))
                    elif dsack == "inside" and current:
                        left, right = current[0]
                        width = (right - left) % SPACE
                        current.insert(
                            0, ((left + width // 3) % SPACE, right)
                        )
                else:
                    ack = snd_una
                    current = last_blocks
                    if current:
                        left, right = current[0]
                        current[0] = (left, (right + event[1]) % SPACE)
                got, expected = both("apply_sack", current, ack, now)
                assert result_fields(got) == result_fields(expected)
                for left, _right in got.dsack_ranges:
                    found, want = both("find", left)
                    assert (found and vars(found)) == (want and vars(want))
                # seq_after(ack, snd_una): the sender acks through it.
                if 0 < offset(ack) < SPACE // 2:
                    both("ack_through", ack)
                    snd_una = ack
            elif kind == "clear":
                both("clear")
                if event[1] % 2:
                    snd_nxt = (iss + 1) % SPACE
                snd_una = snd_nxt
            elif kind == "retransmit":
                if real.packets_out:
                    index = event[1] % real.packets_out
                    real.mark_retransmitted(list(real)[index], now)
                    reference.mark_retransmitted(list(reference)[index], now)
            elif kind == "mark_lost":
                both("mark_lost_by_sack", 1 + event[1] % 4)
            else:
                both(kind)
            assert board_state(real) == board_state(reference)
        for seg in list(reference) + [None]:
            seq = snd_nxt if seg is None else seg.seq
            found, want = both("find", seq)
            assert (found and vars(found)) == (want and vars(want))
