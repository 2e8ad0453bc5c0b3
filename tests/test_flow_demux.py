"""Flow identification and demultiplexing tests."""

from repro.packet.flow import (
    Direction,
    FlowDemuxer,
    FlowKey,
    demux,
    server_by_ip,
    server_by_port,
)
from repro.packet.headers import FLAG_ACK, FLAG_SYN
from repro.packet.packet import PacketRecord

SERVER = (0x0A000001, 80)
CLIENT = (0x64400001, 31000)


def pkt(src, dst, flags=FLAG_ACK, payload=0, ts=0.0, seq=0, ack=0):
    return PacketRecord(
        timestamp=ts,
        src_ip=src[0],
        src_port=src[1],
        dst_ip=dst[0],
        dst_port=dst[1],
        seq=seq,
        ack=ack,
        flags=flags,
        payload_len=payload,
    )


def handshake(ts=0.0):
    return [
        pkt(CLIENT, SERVER, flags=FLAG_SYN, ts=ts),
        pkt(SERVER, CLIENT, flags=FLAG_SYN | FLAG_ACK, ts=ts + 0.05),
        pkt(CLIENT, SERVER, ts=ts + 0.1),
    ]


class TestFlowKey:
    def test_canonical_both_directions(self):
        a = FlowKey.from_packet(pkt(CLIENT, SERVER))
        b = FlowKey.from_packet(pkt(SERVER, CLIENT))
        assert a == b

    def test_different_ports_different_keys(self):
        other = (CLIENT[0], CLIENT[1] + 1)
        assert FlowKey.from_packet(pkt(CLIENT, SERVER)) != FlowKey.from_packet(
            pkt(other, SERVER)
        )

    def test_endpoints(self):
        key = FlowKey.from_packet(pkt(CLIENT, SERVER))
        assert set(key.endpoints()) == {CLIENT, SERVER}


class TestDemux:
    def test_syn_identifies_server(self):
        flows = demux(handshake())
        assert len(flows) == 1
        assert flows[0].server == SERVER
        assert flows[0].client == CLIENT

    def test_synack_identifies_server(self):
        # Trace starts mid-handshake at the SYN+ACK.
        flows = demux(handshake()[1:])
        assert flows[0].server == SERVER

    def test_directions_tagged(self):
        flows = demux(handshake())
        directions = [d for _, d in flows[0].packets]
        assert directions == [Direction.IN, Direction.OUT, Direction.IN]

    def test_predicate_by_ip(self):
        packets = [pkt(SERVER, CLIENT, payload=100)]
        flows = demux(packets, server_by_ip(SERVER[0]))
        assert flows[0].server == SERVER

    def test_predicate_by_port(self):
        packets = [pkt(CLIENT, SERVER, payload=10)]
        flows = demux(packets, server_by_port(80))
        assert flows[0].server == SERVER

    def test_fallback_heavier_sender_is_server(self):
        # No SYN at all: the endpoint sending more bytes is the server.
        packets = [
            pkt(CLIENT, SERVER, payload=100),
            pkt(SERVER, CLIENT, payload=5000),
        ]
        flows = demux(packets)
        assert flows[0].server == SERVER

    def test_multiple_flows_separated(self):
        other_client = (0x64400002, 32000)
        packets = handshake() + [
            pkt(other_client, SERVER, flags=FLAG_SYN, ts=1.0),
            pkt(SERVER, other_client, flags=FLAG_SYN | FLAG_ACK, ts=1.05),
        ]
        flows = demux(packets)
        assert len(flows) == 2
        assert all(f.server == SERVER for f in flows)

    def test_flows_sorted_by_first_time(self):
        other_client = (0x64400002, 32000)
        packets = [
            pkt(other_client, SERVER, flags=FLAG_SYN, ts=5.0),
        ] + handshake(ts=1.0)
        flows = demux(packets)
        assert flows[0].first_time < flows[1].first_time

    def test_pending_packets_attached_after_server_known(self):
        demuxer = FlowDemuxer()
        # A stray ACK arrives before the SYN (out-of-order capture).
        demuxer.feed(pkt(CLIENT, SERVER, ts=0.0))
        for p in handshake(ts=0.1):
            demuxer.feed(p)
        flows = demuxer.flows()
        assert len(flows) == 1
        assert len(flows[0].packets) == 4


class TestFlowTrace:
    def test_duration_and_times(self):
        flows = demux(handshake())
        flow = flows[0]
        assert flow.first_time == 0.0
        assert flow.last_time == 0.1
        assert flow.duration == 0.1

    def test_bytes_out_counts_server_payload(self):
        packets = handshake() + [
            pkt(SERVER, CLIENT, payload=1000, ts=0.2),
            pkt(CLIENT, SERVER, payload=300, ts=0.3),
        ]
        flow = demux(packets)[0]
        assert sum(
            p.payload_len for p, d in flow.packets if d is Direction.OUT
        ) == 1000

    def test_in_out_packet_lists(self):
        flow = demux(handshake())[0]
        directions = [d for _, d in flow.packets]
        assert directions.count(Direction.OUT) == 1
        assert directions.count(Direction.IN) == 2
