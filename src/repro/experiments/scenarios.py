"""Deterministic stall scenarios: one named generator per cause.

Each function builds a minimal, scripted simulation whose trace
exhibits one stall type by construction, runs it, and returns the
TAPO analysis.  They serve three purposes: executable documentation of
what each stall looks like on the wire, ground truth for validating
the classifier, and ready-made fixtures for downstream users
(``python examples/stall_gallery.py`` prints the whole gallery).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from ..app.client import ClientApp
from ..app.server import ServerApp
from ..app.session import Request, Session, SupplyChunk
from ..core.flow_analyzer import FlowAnalysis
from ..core.stalls import RetxCause, StallCause
from ..core.tapo import Tapo
from ..netsim.engine import EventLoop
from ..netsim.link import PathConfig
from ..netsim.loss import ScriptedDrop
from ..netsim.trace import CaptureTap
from ..packet.headers import ip_from_str
from ..tcp.endpoint import EndpointConfig, TcpConnection
from ..tcp.receiver import PausingReader
from .illustrative import ScriptedDelay

CLIENT_IP = ip_from_str("100.64.0.5")
SERVER_IP = ip_from_str("10.0.0.1")

#: Estimator seeding used so the scripted stalls land cleanly between
#: the stall threshold and the RTO.
CACHED_METRICS = {"init_srtt": 0.11, "init_rttvar": 0.15}


def _run(
    session: Session,
    path: PathConfig | None = None,
    client_kwargs: dict | None = None,
    server_kwargs: dict | None = None,
    until: float = 120.0,
    seed: int = 0,
) -> FlowAnalysis:
    engine = EventLoop()
    tap = CaptureTap(engine)
    connection = TcpConnection(
        engine,
        EndpointConfig(ip=CLIENT_IP, port=44000, **(client_kwargs or {})),
        EndpointConfig(
            ip=SERVER_IP, port=80, init_cwnd=10, **(server_kwargs or {})
        ),
        path or PathConfig(delay=0.05, rate_bps=10e6),
        random.Random(seed),
        tap=tap,
    )
    ServerApp(engine, connection.server, session)
    ClientApp(engine, connection.client, session)
    connection.open()
    engine.run(until=until)
    connection.teardown()
    analyses = Tapo().analyze_packets(tap.packets)
    if len(analyses) != 1:
        raise RuntimeError("scenario produced an unexpected flow count")
    return analyses[0]


def _single(response: int = 80_000, **kwargs) -> Session:
    return Session(
        requests=[Request(request_bytes=400, response_bytes=response, **kwargs)]
    )


def data_unavailable_scenario() -> FlowAnalysis:
    """The front-end waits 1.2 s for the back-end before responding."""
    return _run(_single(data_delay=1.2))


def resource_constraint_scenario() -> FlowAnalysis:
    """The server application pauses mid-response for 1.5 s."""
    session = _single(
        response=60_000,
        chunks=[SupplyChunk(30_000), SupplyChunk(30_000, delay=1.5)],
    )
    return _run(session)


def client_idle_scenario() -> FlowAnalysis:
    """The client thinks for 2 s between two requests."""
    session = Session(
        requests=[
            Request(request_bytes=400, response_bytes=10_000),
            Request(request_bytes=400, response_bytes=10_000, think_time=2.0),
        ]
    )
    return _run(session)


def zero_window_scenario() -> FlowAnalysis:
    """A 16 KB-buffer client stops reading for 1.5 s mid-transfer."""
    return _run(
        _single(response=200_000),
        client_kwargs=dict(
            rcv_buf=16_000,
            max_rcv_buf=16_000,
            rcv_buf_auto_grow=False,
            wscale=0,
            reader=PausingReader(pauses=[(0.5, 1.5)]),
        ),
        path=PathConfig(delay=0.05, rate_bps=4e6),
    )


def packet_delay_scenario() -> FlowAnalysis:
    """A 450 ms delay epoch below the RTO: a stall, no retransmission."""
    return _run(
        _single(response=300_000),
        path=PathConfig(
            delay=0.05,
            rate_bps=4e6,
            data_jitter=ScriptedDelay([(0.5, 0.7, 0.45)]),
        ),
        server_kwargs=dict(init_srtt=0.12, init_rttvar=0.2),
    )


def tail_loss_scenario() -> FlowAnalysis:
    """The final segments of the response are dropped."""
    return _run(
        _single(response=40_000),
        path=PathConfig(
            delay=0.05, rate_bps=8e6, data_loss=ScriptedDrop(range(27, 32))
        ),
    )


def continuous_loss_scenario() -> FlowAnalysis:
    """A blackout takes out the whole in-flight window."""
    return _run(
        _single(response=200_000),
        path=PathConfig(
            delay=0.05, rate_bps=6e6, data_loss=ScriptedDrop(range(30, 90))
        ),
    )


def double_loss_scenario() -> FlowAnalysis:
    """One segment is dropped twice: its repair dies too."""
    return _run(
        _single(response=200_000),
        path=PathConfig(
            delay=0.05,
            rate_bps=6e6,
            data_loss=ScriptedDrop([40], extra_drops=1),
        ),
        until=240.0,
        server_kwargs=dict(**CACHED_METRICS),
    )


def ack_delay_scenario() -> FlowAnalysis:
    """ACKs held beyond the RTO: the retransmission is spurious."""
    return _run(
        _single(response=120_000),
        path=PathConfig(
            delay=0.05,
            rate_bps=4e6,
            ack_jitter=ScriptedDelay([(0.35, 0.5, 1.2)]),
        ),
    )


#: name -> (builder, expected top-level cause, expected retx cause).
GALLERY: dict[
    str,
    tuple[Callable[[], FlowAnalysis], StallCause, RetxCause | None],
] = {
    "data_unavailable": (
        data_unavailable_scenario, StallCause.DATA_UNAVAILABLE, None,
    ),
    "resource_constraint": (
        resource_constraint_scenario, StallCause.RESOURCE_CONSTRAINT, None,
    ),
    "client_idle": (client_idle_scenario, StallCause.CLIENT_IDLE, None),
    "zero_window": (zero_window_scenario, StallCause.ZERO_RWND, None),
    "packet_delay": (packet_delay_scenario, StallCause.PACKET_DELAY, None),
    "tail_loss": (
        tail_loss_scenario, StallCause.RETRANSMISSION, RetxCause.TAIL,
    ),
    "continuous_loss": (
        continuous_loss_scenario,
        StallCause.RETRANSMISSION,
        RetxCause.CONTINUOUS_LOSS,
    ),
    "double_loss": (
        double_loss_scenario, StallCause.RETRANSMISSION, RetxCause.DOUBLE,
    ),
    "ack_delay": (
        ack_delay_scenario,
        StallCause.RETRANSMISSION,
        RetxCause.ACK_DELAY_LOSS,
    ),
}


def run_gallery() -> dict[str, FlowAnalysis]:
    """Run every scenario; returns {name: analysis}."""
    return {name: builder() for name, (builder, _, _) in GALLERY.items()}
