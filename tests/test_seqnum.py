"""Unit and property tests for 32-bit sequence arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packet.seqnum import (
    SEQ_HALF,
    SEQ_SPACE,
    seq_add,
    seq_after,
    seq_before,
    seq_between,
    seq_geq,
    seq_leq,
    seq_max,
    seq_min,
    seq_sub,
    seq_wrap,
)

seqs = st.integers(min_value=0, max_value=SEQ_SPACE - 1)
small_deltas = st.integers(min_value=-(1 << 30), max_value=(1 << 30))


class TestSeqAdd:
    def test_simple(self):
        assert seq_add(100, 50) == 150

    def test_wraparound(self):
        assert seq_add(SEQ_SPACE - 1, 1) == 0

    def test_wraparound_large(self):
        assert seq_add(SEQ_SPACE - 10, 20) == 10

    def test_negative_delta(self):
        assert seq_add(5, -10) == SEQ_SPACE - 5

    @given(seqs, small_deltas)
    def test_result_in_space(self, seq, delta):
        assert 0 <= seq_add(seq, delta) < SEQ_SPACE


class TestSeqSub:
    def test_simple(self):
        assert seq_sub(150, 100) == 50

    def test_negative(self):
        assert seq_sub(100, 150) == -50

    def test_across_wrap(self):
        assert seq_sub(5, SEQ_SPACE - 5) == 10

    def test_across_wrap_negative(self):
        assert seq_sub(SEQ_SPACE - 5, 5) == -10

    @given(seqs, small_deltas)
    def test_inverse_of_add(self, seq, delta):
        assert seq_sub(seq_add(seq, delta), seq) == delta


class TestComparisons:
    def test_before_after(self):
        assert seq_before(1, 2)
        assert seq_after(2, 1)
        assert not seq_before(2, 1)

    def test_equal(self):
        assert not seq_before(7, 7)
        assert not seq_after(7, 7)
        assert seq_leq(7, 7)
        assert seq_geq(7, 7)

    def test_wraparound_ordering(self):
        near_wrap = SEQ_SPACE - 100
        assert seq_before(near_wrap, 50)
        assert seq_after(50, near_wrap)

    @given(seqs, st.integers(min_value=1, max_value=(1 << 30)))
    def test_before_after_antisymmetric(self, seq, delta):
        later = seq_add(seq, delta)
        assert seq_before(seq, later)
        assert seq_after(later, seq)
        assert not seq_before(later, seq)

    @given(seqs, seqs)
    def test_leq_is_before_or_equal(self, a, b):
        assert seq_leq(a, b) == (seq_before(a, b) or a == b)


class TestComparisonsMatchSeqSub:
    """Each comparison helper is one masked expression; its definition
    is the sign of ``seq_sub``, over the whole 32-bit range."""

    @staticmethod
    def check(a, b):
        distance = seq_sub(a, b)
        assert seq_before(a, b) == (distance < 0)
        assert seq_after(a, b) == (distance > 0)
        assert seq_leq(a, b) == (distance <= 0)
        assert seq_geq(a, b) == (distance >= 0)

    @given(seqs, seqs)
    def test_every_pair(self, a, b):
        self.check(a, b)

    @pytest.mark.parametrize("base", [0, 1, 12345, SEQ_HALF, SEQ_SPACE - 1])
    @pytest.mark.parametrize(
        "distance", [0, 1, SEQ_HALF - 1, SEQ_HALF, SEQ_HALF + 1, SEQ_SPACE - 1]
    )
    def test_edges_from_either_side(self, base, distance):
        other = seq_add(base, distance)
        self.check(other, base)
        self.check(base, other)

    def test_half_space_tie(self):
        """At distance 2**31 the direction is ambiguous; ``seq_sub``
        answers -2**31, so the pair reads as *before*."""
        for a, b in ((SEQ_HALF, 0), (0, SEQ_HALF), (5, SEQ_HALF + 5)):
            assert seq_sub(a, b) == -SEQ_HALF
            assert seq_before(a, b) and seq_leq(a, b)
            assert not seq_after(a, b) and not seq_geq(a, b)

    def test_across_the_wrap(self):
        assert seq_before(SEQ_SPACE - 1, 0) and seq_leq(SEQ_SPACE - 1, 0)
        assert seq_after(0, SEQ_SPACE - 1) and seq_geq(0, SEQ_SPACE - 1)


class TestMinMax:
    def test_max(self):
        assert seq_max(10, 20) == 20
        assert seq_max(20, 10) == 20

    def test_min_across_wrap(self):
        near_wrap = SEQ_SPACE - 1
        assert seq_min(near_wrap, 5) == near_wrap
        assert seq_max(near_wrap, 5) == 5

    @given(seqs, st.integers(min_value=0, max_value=(1 << 30)))
    def test_min_max_consistent(self, seq, delta):
        later = seq_add(seq, delta)
        assert seq_max(seq, later) == later
        assert seq_min(seq, later) == seq


class TestBetween:
    def test_inside(self):
        assert seq_between(15, 10, 20)

    def test_left_edge_inclusive(self):
        assert seq_between(10, 10, 20)

    def test_right_edge_exclusive(self):
        assert not seq_between(20, 10, 20)

    def test_across_wrap(self):
        low = SEQ_SPACE - 10
        assert seq_between(SEQ_SPACE - 5, low, 10)
        assert seq_between(5, low, 10)
        assert not seq_between(20, low, 10)


class TestWrap:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (SEQ_SPACE, 0), (SEQ_SPACE + 7, 7), (-1, SEQ_SPACE - 1)],
    )
    def test_wrap(self, value, expected):
        assert seq_wrap(value) == expected
