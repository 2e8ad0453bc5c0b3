"""Analyzer-side segment tracker tests."""

from dataclasses import replace

from repro.core.flow_analyzer import FlowAnalyzer
from repro.core.segments import SegmentTracker
from repro.packet.flow import Direction, FlowKey, FlowTrace
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.packet.packet import PacketRecord

MSS = 1000


def out_pkt(seq, length=MSS, ts=0.0, fin=False):
    return PacketRecord(
        timestamp=ts,
        src_ip=1,
        dst_ip=2,
        src_port=80,
        dst_port=90,
        seq=seq,
        ack=0,
        flags=FLAG_ACK | (FLAG_FIN if fin else 0),
        payload_len=length,
    )


def tracker_with(n=5):
    tracker = SegmentTracker()
    tracker.init_seq(0)  # data starts at 1
    for i in range(n):
        tracker.record_transmission(out_pkt(1 + i * MSS, ts=i * 0.01), i * 0.01)
    return tracker


class TestTransmissions:
    def test_new_data_not_retransmission(self):
        tracker = SegmentTracker()
        tracker.init_seq(0)
        _, is_retrans = tracker.record_transmission(out_pkt(1), 0.0)
        assert not is_retrans
        assert tracker.transmitted_max == 1 + MSS

    def test_repeat_seq_is_retransmission(self):
        tracker = tracker_with(3)
        segment, is_retrans = tracker.record_transmission(out_pkt(1, ts=1.0), 1.0)
        assert is_retrans
        assert segment.retrans_count == 1
        assert len(segment.tx_times) == 2

    def test_counters(self):
        """The tracker keeps segments; the counts live on the analysis."""
        synack = replace(out_pkt(0, length=0), flags=FLAG_SYN | FLAG_ACK)
        packets = [synack]
        packets += [out_pkt(1 + i * MSS, ts=0.01 * (i + 1)) for i in range(3)]
        packets.append(out_pkt(1, ts=1.0))
        flow = FlowTrace(
            key=FlowKey.from_packet(synack), server=(1, 80), client=(2, 90),
            packets=[(packet, Direction.OUT) for packet in packets],
        )
        analyzer = FlowAnalyzer(flow)
        analysis = analyzer.run()
        assert len(analyzer.tracker.segments) == 3
        assert analyzer.tracker.segments[0].retrans_count == 1
        assert analysis.data_packets == 4
        assert analysis.retransmissions == 1
        assert analysis.bytes_out == 3 * MSS

    def test_ordinals_assigned(self):
        tracker = tracker_with(3)
        assert [s.ordinal for s in tracker.segments] == [0, 1, 2]


class TestAcking:
    def test_apply_ack_returns_newly_acked(self):
        tracker = tracker_with(5)
        acked = tracker.apply_ack(1 + 2 * MSS, 1.0)
        assert len(acked) == 2
        assert tracker.packets_out == 3
        assert tracker.snd_una == 1 + 2 * MSS

    def test_stale_ack_ignored(self):
        tracker = tracker_with(5)
        tracker.apply_ack(1 + 2 * MSS, 1.0)
        assert tracker.apply_ack(1 + MSS, 1.1) == []

    def test_outstanding_slices(self):
        tracker = tracker_with(5)
        tracker.apply_ack(1 + 2 * MSS, 1.0)
        assert [s.seq for s in tracker.outstanding()] == [
            1 + 2 * MSS,
            1 + 3 * MSS,
            1 + 4 * MSS,
        ]


class TestSack:
    def test_sack_marks(self):
        tracker = tracker_with(5)
        newly, dsack = tracker.apply_sack(
            [(1 + 2 * MSS, 1 + 4 * MSS)], ack=1, now=1.0
        )
        assert len(newly) == 2
        assert not dsack
        assert tracker.sacked_out == 2
        assert tracker.holes() == 2

    def test_dsack_detection_and_spurious_mark(self):
        tracker = tracker_with(3)
        tracker.record_transmission(out_pkt(1, ts=1.0), 1.0)  # retransmit
        tracker.apply_ack(1 + 3 * MSS, 1.2)
        newly, dsack = tracker.apply_sack(
            [(1, 1 + MSS)], ack=1 + 3 * MSS, now=1.2
        )
        assert dsack
        segment = tracker.find_covering(1)
        assert segment.spurious_at == 1.2

    def test_dsack_on_never_retransmitted_not_spurious(self):
        tracker = tracker_with(3)
        tracker.apply_ack(1 + 3 * MSS, 1.0)
        tracker.apply_sack([(1, 1 + MSS)], ack=1 + 3 * MSS, now=1.1)
        assert tracker.find_covering(1).spurious_at is None

    def test_sacked_then_acked_counts_once(self):
        tracker = tracker_with(3)
        tracker.apply_sack([(1 + MSS, 1 + 2 * MSS)], ack=1, now=0.5)
        assert tracker.sacked_out == 1
        tracker.apply_ack(1 + 3 * MSS, 1.0)
        assert tracker.sacked_out == 0
        assert tracker.packets_out == 0


class TestRetransKinds:
    def test_find_covering_mid_segment(self):
        tracker = tracker_with(2)
        assert tracker.find_covering(1 + MSS // 2).seq == 1
