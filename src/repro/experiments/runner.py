"""Run flow scenarios through the simulator and collect traces.

Each flow runs in its own event loop (flows in the paper's dataset are
analyzed independently, so there is no cross-flow coupling to model;
shared-bottleneck effects are represented by the per-flow loss/queue
models).  The output of a run is exactly what a front-end tcpdump
would give: the server-side packet trace, plus ground-truth transport
statistics that the tests use to validate TAPO.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..app.client import ClientApp
from ..app.server import ServerApp
from ..app.session import SessionResult
from ..config import RunConfig
from ..netsim.engine import EventLoop
from ..netsim.trace import CaptureTap
from ..obs.recorder import (
    DEFAULT_RING_CAPACITY,
    EngineProbe,
    FlightRecorder,
    TraceEvent,
)
from ..packet.packet import PacketRecord
from ..tcp.endpoint import TcpConnection
from ..tcp.sender import SenderStats
from ..workload.generator import FlowScenario
from .metrics import RunMetrics


@dataclass
class FlowRunResult:
    """Everything observable about one simulated flow."""

    scenario: FlowScenario
    packets: list[PacketRecord]
    session_result: SessionResult
    server_stats: SenderStats
    sim_time: float
    events: int
    #: Flight-recorder events (``None`` unless the flow ran with
    #: ``trace`` enabled); ordered by record time within the flow.
    trace_events: list[TraceEvent] | None = None
    #: Events evicted from the full recorder ring during the run.
    trace_dropped: int = 0

    @property
    def complete(self) -> bool:
        return self.session_result.complete

    @property
    def latency(self) -> float | None:
        """First-request-to-last-response completion time."""
        timings = self.session_result.timings
        if not timings or timings[-1].completed_at is None:
            return None
        return timings[-1].completed_at - timings[0].sent_at

    @property
    def response_bytes(self) -> int:
        return self.scenario.session.total_response_bytes


#: Bounds for the adaptive completion-poll slice (simulated seconds).
_MIN_POLL_SLICE = 0.25
_MAX_POLL_SLICE = 30.0


def _poll_slice(connection: TcpConnection) -> float:
    """Simulated time between completion checks, scaled to the flow.

    A few RTOs is long enough that polling is a rounding error in the
    event count, and short enough that a finished flow stops within one
    recovery timescale instead of a fixed 5-second grid.
    """
    sender = connection.server.sender
    if sender is None:  # handshake not done yet; RTTs are sub-second
        return 1.0
    rto = sender.rto_estimator.rto
    return min(max(4.0 * rto, _MIN_POLL_SLICE), _MAX_POLL_SLICE)


def run_flow(
    scenario: FlowScenario,
    max_sim_time: float = 600.0,
    trace: bool | str = False,
    trace_capacity: int = DEFAULT_RING_CAPACITY,
) -> FlowRunResult:
    """Simulate one flow scenario to completion (or the time cap).

    ``trace`` opts the flow into the flight recorder
    (:mod:`repro.obs.recorder`): truthy attaches a recorder to the
    server's sender; the string ``"engine"`` additionally records raw
    event-loop activity.  Tracing is purely observational — the packet
    trace is byte-identical with it on or off.
    """
    engine = EventLoop()
    rng = random.Random(scenario.seed ^ 0x5EED)
    tap = CaptureTap(engine)
    recorder = (
        FlightRecorder(flow_id=scenario.flow_id, capacity=trace_capacity)
        if trace
        else None
    )
    if recorder is not None and trace == "engine":
        engine.observer = EngineProbe(recorder)
    connection = TcpConnection(
        engine,
        client_config=scenario.client_config,
        server_config=scenario.server_config,
        path_config=scenario.path_config,
        rng=rng,
        tap=tap,
        recorder=recorder,
    )
    ServerApp(engine, connection.server, scenario.session)
    done: dict[str, bool] = {}
    client_app = ClientApp(
        engine,
        connection.client,
        scenario.session,
        on_done=lambda result: done.setdefault("finished", True),
    )
    connection.open()

    # Run in slices so we can stop as soon as the session completes and
    # the server has drained (FIN acked or sender gave up).  The slice
    # is adaptive: a few RTOs of simulated time per completion check,
    # jumping straight to the next pending event when the queue is
    # sparse (deep RTO backoff), so short flows exit promptly and long
    # stalls don't burn hundreds of no-op loop restarts.
    while engine.now < max_sim_time:
        next_time = engine.peek_time()
        if next_time is None:
            break
        horizon = engine.now + _poll_slice(connection)
        engine.run(until=min(max(horizon, next_time), max_sim_time))
        server_sender = connection.server.sender
        if done.get("finished") and (
            server_sender is None or server_sender.all_acked
            or server_sender.failed
        ):
            break

    if connection.server.sender is not None and connection.server.sender.failed:
        client_app.result.failed = True
    connection.teardown()
    return FlowRunResult(
        scenario=scenario,
        packets=tap.packets,
        session_result=client_app.result,
        server_stats=(
            connection.server.sender.stats
            if connection.server.sender is not None
            else SenderStats()
        ),
        sim_time=engine.now,
        events=engine.events_run,
        trace_events=recorder.dump() if recorder is not None else None,
        trace_dropped=recorder.dropped if recorder is not None else 0,
    )


@dataclass
class DatasetRun:
    """Results of running a batch of flows for one service."""

    service: str
    results: list[FlowRunResult] = field(default_factory=list)
    metrics: RunMetrics | None = None

    @property
    def traces(self) -> list[list[PacketRecord]]:
        return [result.packets for result in self.results]

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result.complete)

    def total_packets(self) -> int:
        return sum(len(result.packets) for result in self.results)

    def merged_trace_events(self) -> list[TraceEvent]:
        """All flows' flight-recorder events, deterministically ordered
        by (flow, sim-time, record index)."""
        from ..obs.recorder import merge_events

        return merge_events(result.trace_events for result in self.results)


def run_flows(
    scenarios: Iterable[FlowScenario],
    max_sim_time: float = 600.0,
    workers: int | None = 1,
    trace: bool | str = False,
    run: "RunConfig | None" = None,
) -> DatasetRun:
    """Run a batch of scenarios; returns the collected results.

    ``run`` (a :class:`repro.config.RunConfig`) overrides ``workers``
    when given, and its ``chunk_flows`` sizes the work units.

    ``workers`` selects the execution engine: ``1`` (the default) runs
    serially in-process; any other value — including ``None``/``0`` for
    "all cores" — shards the batch across a process pool.  Either way
    the work is :func:`repro.experiments.parallel.run_flows_parallel`'s,
    and parallel output is byte-identical to serial for the same
    scenarios.

    ``trace`` attaches a flight recorder to every flow (see
    :func:`run_flow`); merged events come back on each result's
    ``trace_events`` and are deterministic across worker counts.
    """
    from .parallel import run_flows_parallel

    run = run or RunConfig(workers=workers)
    return run_flows_parallel(
        scenarios,
        max_sim_time=max_sim_time,
        workers=run.workers,
        chunk_flows=run.chunk_flows,
        trace=trace,
    )
