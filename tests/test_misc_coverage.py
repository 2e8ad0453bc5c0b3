"""Coverage for smaller utilities across modules."""

import random

import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.trace import CaptureTap
from repro.packet.headers import FLAG_ACK
from repro.packet.packet import PacketRecord
from repro.packet.pcap import read_pcap
from repro.tcp.receiver import IntervalReader, ReceiverHalf


class TestCaptureTapPcap:
    def test_spills_to_pcap(self, tmp_path):
        engine = EventLoop()
        path = tmp_path / "tap.pcap"
        tap = CaptureTap(engine, pcap_path=path)
        pkt = PacketRecord(
            timestamp=0.0,
            src_ip=1,
            dst_ip=2,
            src_port=3,
            dst_port=4,
            seq=5,
            ack=6,
            flags=FLAG_ACK,
            payload_len=10,
        )
        engine.schedule(1.5, lambda: tap.capture(pkt))
        engine.run()
        tap.close()
        loaded = read_pcap(path)
        assert len(loaded) == 1
        assert loaded[0].timestamp == pytest.approx(1.5)
        assert len(tap) == 1

    def test_capture_stamps_engine_time(self):
        engine = EventLoop()
        tap = CaptureTap(engine)
        pkt = PacketRecord(
            timestamp=99.0,
            src_ip=1,
            dst_ip=2,
            src_port=3,
            dst_port=4,
            seq=0,
            ack=0,
            flags=FLAG_ACK,
        )
        engine.schedule(2.0, lambda: tap.capture(pkt))
        engine.run()
        assert tap.packets[0].timestamp == 2.0
        assert pkt.timestamp == 99.0  # original untouched


class TestIntervalReader:
    def test_drains_at_configured_rate(self):
        engine = EventLoop()
        acks = []
        receiver = ReceiverHalf(
            engine,
            send_ack=lambda: acks.append(engine.now),
            rcv_buf=10_000,
            mss=1000,
        )
        receiver.on_syn(0)
        reader = IntervalReader(chunk=500, interval=0.1)
        reader.start(receiver, engine)
        receiver.buffered = 2000
        engine.run(until=0.45)
        assert receiver.buffered == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            IntervalReader(chunk=0, interval=0.1)
        with pytest.raises(ValueError):
            IntervalReader(chunk=10, interval=0.0)


class TestLinkModelsReset:
    def test_reset_models(self):
        from repro.netsim.link import Link
        from repro.netsim.loss import GilbertElliottLoss

        engine = EventLoop()
        loss = GilbertElliottLoss(p_gb=1.0, p_bg=0.0)
        link = Link(engine, lambda p: None, loss=loss, rng=random.Random(0))
        loss.should_drop(random.Random(0))
        assert loss._bad
        link.reset_models()
        assert not loss._bad

    def test_reset_models_resets_jitter(self):
        """A reset link draws the delays of a new one: the random walk
        and the radio state go back to their start, through
        ``CompositeJitter``, and stateless models reset silently."""
        from repro.netsim.link import Link
        from repro.netsim.loss import (
            CompositeJitter,
            RadioWakeJitter,
            RandomWalkJitter,
            SpikeJitter,
        )

        def delays(link, rng):
            return [link.jitter.extra_delay(rng, now=0.5 * i) for i in range(8)]

        walk, radio = RandomWalkJitter(), RadioWakeJitter(idle_threshold=1.0)
        jitter = CompositeJitter(walk, SpikeJitter(), radio)
        link = Link(EventLoop(), lambda p: None, jitter=jitter)
        first = delays(link, random.Random(5))
        assert walk._current is not None
        assert radio._last_activity is not None
        link.reset_models()
        assert walk._current is None
        assert radio._last_activity is None
        assert delays(link, random.Random(5)) == first

        stateless = Link(EventLoop(), lambda p: None)
        stateless.reset_models()
