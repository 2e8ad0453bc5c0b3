"""Edge-case coverage across modules."""

import random

import pytest

from repro.app.client import ClientApp
from repro.app.server import ServerApp
from repro.app.session import Request, Session
from repro.config import AnalysisConfig
from repro.core import StallCause, Tapo
from repro.netsim.engine import EventLoop
from repro.netsim.link import PathConfig
from repro.netsim.loss import ScriptedDrop
from repro.netsim.trace import CaptureTap
from repro.packet.headers import ip_from_str
from repro.tcp.endpoint import EndpointConfig, TcpConnection

CLIENT_IP = ip_from_str("100.64.9.9")
SERVER_IP = ip_from_str("10.0.0.1")


class NearWrapRandom(random.Random):
    """Hands out initial sequence numbers just below the 2^32 wrap, so
    a moderate transfer crosses it."""

    def __init__(self):
        super().__init__(123)
        self._isns = [(1 << 32) - 20_000, (1 << 32) - 30_000]

    def randrange(self, *args, **kwargs):
        if self._isns:
            return self._isns.pop()
        return super().randrange(*args, **kwargs)


def build(rng=None, client_kwargs=None, path=None):
    engine = EventLoop()
    tap = CaptureTap(engine)
    connection = TcpConnection(
        engine,
        EndpointConfig(ip=CLIENT_IP, port=45454, **(client_kwargs or {})),
        EndpointConfig(ip=SERVER_IP, port=80, init_cwnd=10),
        path or PathConfig(delay=0.04, rate_bps=10e6),
        rng or random.Random(3),
        tap=tap,
    )
    return engine, connection, tap


class TestSequenceWraparound:
    def test_transfer_across_wrap(self):
        """A 200 KB transfer whose sequence space crosses 2^32."""
        engine, conn, tap = build(rng=NearWrapRandom())
        session = Session(
            requests=[Request(request_bytes=300, response_bytes=200_000)]
        )
        ServerApp(engine, conn.server, session)
        app = ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=60.0)
        assert app.result.complete
        assert conn.client.receiver.total_received == 200_000

    def test_analyzer_handles_wrap(self):
        engine, conn, tap = build(
            rng=NearWrapRandom(),
            path=PathConfig(
                delay=0.04, rate_bps=10e6, data_loss=ScriptedDrop([25])
            ),
        )
        session = Session(
            requests=[Request(request_bytes=300, response_bytes=200_000)]
        )
        ServerApp(engine, conn.server, session)
        ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=60.0)
        analyses = Tapo().analyze_packets(tap.packets)
        assert len(analyses) == 1
        analysis = analyses[0]
        assert analysis.bytes_out == pytest.approx(200_000, abs=2000)
        assert analysis.retransmissions >= 1


class TestSessionVariants:
    def test_keepalive_session_no_fin(self):
        engine, conn, tap = build()
        session = Session(
            requests=[Request(request_bytes=300, response_bytes=5_000)],
            close_after=False,
        )
        ServerApp(engine, conn.server, session)
        app = ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=10.0)
        assert app.result.complete
        assert not conn.client.receiver.fin_received

    def test_many_small_requests(self):
        engine, conn, tap = build()
        session = Session(
            requests=[
                Request(request_bytes=200, response_bytes=1500)
                for _ in range(8)
            ]
        )
        ServerApp(engine, conn.server, session)
        app = ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=30.0)
        assert app.result.complete
        assert len(app.result.timings) == 8


class TestFinRecovery:
    def test_lost_fin_retransmitted(self):
        """Dropping the FIN-carrying segment still closes cleanly."""
        # A 10 KB response = 7 data segments; index 6 carries the FIN.
        engine, conn, tap = build(
            path=PathConfig(
                delay=0.04, rate_bps=10e6, data_loss=ScriptedDrop([7])
            )
        )
        session = Session(
            requests=[Request(request_bytes=300, response_bytes=10_000)]
        )
        ServerApp(engine, conn.server, session)
        ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=30.0)
        assert conn.client.receiver.fin_received
        assert conn.client.receiver.total_received == 10_000


class TestTapoFacade:
    def test_report_builds_per_trace(self):
        engine, conn, tap = build()
        session = Session(
            requests=[Request(request_bytes=300, response_bytes=8_000)]
        )
        ServerApp(engine, conn.server, session)
        ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=10.0)
        report = Tapo().report([tap.packets], service="edge")
        assert report.service == "edge"
        assert len(report.flows) == 1

    def test_tau_parameter_changes_detection(self):
        engine, conn, tap = build()
        session = Session(
            requests=[
                Request(
                    request_bytes=300, response_bytes=8_000, data_delay=0.3
                )
            ]
        )
        ServerApp(engine, conn.server, session)
        ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=10.0)
        strict, lax = (
            Tapo(config=AnalysisConfig(tau=tau)).analyze_packets(
                tap.packets
            )[0]
            for tau in (0.5, 20.0)
        )
        assert len(strict.stalls) >= len(lax.stalls)


class TestServerPureAckStall:
    def test_request_ack_during_backend_fetch(self):
        """With a long back-end fetch, the server's delayed ACK of the
        request may itself end a stall; it must classify server-side."""
        engine, conn, tap = build()
        session = Session(
            requests=[
                Request(
                    request_bytes=300, response_bytes=8_000, data_delay=2.0
                )
            ]
        )
        ServerApp(engine, conn.server, session)
        ClientApp(engine, conn.client, session)
        conn.open()
        engine.run(until=20.0)
        analysis = Tapo().analyze_packets(tap.packets)[0]
        causes = {s.cause for s in analysis.stalls}
        assert StallCause.DATA_UNAVAILABLE in causes
