"""Flight recorder: a bounded ring buffer of structured trace events.

One :class:`FlightRecorder` observes one flow's server-side sender.
Hook points in the TCP stack call :meth:`FlightRecorder.record` with
the current simulation time, an event kind, and a snapshot of the
kernel variables the paper cares about (cwnd, ssthresh, SRTT, RTO,
in-flight).  The buffer is a ``deque(maxlen=capacity)``: when full the
oldest events are evicted and counted in :attr:`FlightRecorder.dropped`
— recording never grows without bound and never fails.

Event kinds
-----------

``state``
    Congestion state transition; ``detail`` is the new state
    (Open / Disorder / Recovery / Loss).
``vars``
    Per-ACK kernel-variable snapshot — the ground-truth counterpart of
    TAPO's per-ACK inference (one row of the Fig. 11 series).
``rtt``
    RTO-estimator update; ``detail`` is ``seed``/``sample``/``timeout``
    and ``value`` the RTT sample (seconds) where applicable.
``timer``
    Retransmission-timer activity; ``detail`` is ``arm:rto``,
    ``arm:probe``, ``fire:rto``, ``fire:probe`` or ``cancel``; for arms
    ``value`` is the programmed delay.
``retx``
    A (re)transmission; ``detail`` is ``fast``/``rto``/``probe``/
    ``recovery`` and ``seq`` the segment's sequence number.
``probe``
    A recovery-policy probe fired (``detail`` = policy name: ``tlp`` or
    ``srto``).
``zwnd``
    Zero-receive-window episode activity: ``enter``, ``probe``
    (a persist-timer zero-window probe was sent) or ``exit``.
``engine``
    Raw event-loop activity (``schedule``/``fire``/``cancel``) — only
    produced when an :class:`EngineProbe` is attached; far noisier than
    the transport-level events, intended for debugging the simulator
    itself.

Determinism: events carry a per-recorder monotonic index, so merging
events from parallel workers sorts on ``(flow, time, index)`` and is
reproducible regardless of which worker finished first.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

#: Default per-flow ring size.  Roughly three events per ACK arrive in
#: the worst case (vars + timer cancel + timer arm), so this holds the
#: full history of any dataset flow while bounding pathological ones.
DEFAULT_RING_CAPACITY = 1 << 16

#: Column order used by every exporter (CSV headers, JSON keys).
EVENT_FIELDS = (
    "flow",
    "index",
    "time",
    "kind",
    "detail",
    "seq",
    "cwnd",
    "ssthresh",
    "srtt",
    "rto",
    "in_flight",
    "value",
)


@dataclass(slots=True)
class TraceEvent:
    """One structured flight-recorder sample."""

    flow: int
    index: int
    time: float
    kind: str
    detail: str
    seq: int
    cwnd: int
    ssthresh: int
    srtt: float | None
    rto: float
    in_flight: int
    value: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in EVENT_FIELDS}


class FlightRecorder:
    """Bounded, per-flow store of :class:`TraceEvent` objects."""

    __slots__ = ("flow_id", "capacity", "events", "dropped", "_index")

    def __init__(
        self, flow_id: int = -1, capacity: int = DEFAULT_RING_CAPACITY
    ):
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self.flow_id = flow_id
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self._index = 0

    def record(
        self,
        time: float,
        kind: str,
        detail: str = "",
        seq: int = 0,
        cwnd: int = 0,
        ssthresh: int = 0,
        srtt: float | None = None,
        rto: float = 0.0,
        in_flight: int = 0,
        value: float = 0.0,
    ) -> None:
        """Append one event, evicting the oldest when full."""
        events = self.events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(
            TraceEvent(
                self.flow_id,
                self._index,
                time,
                kind,
                detail,
                seq,
                cwnd,
                ssthresh,
                srtt,
                rto,
                in_flight,
                value,
            )
        )
        self._index += 1

    def __len__(self) -> int:
        return len(self.events)

    @property
    def recorded(self) -> int:
        """Total events seen, including evicted ones."""
        return self._index

    def dump(self) -> list[TraceEvent]:
        """Snapshot the buffer contents (oldest first)."""
        return list(self.events)


class EngineProbe:
    """Event-loop observer that spills raw engine activity into a
    recorder.

    Attach with ``engine.observer = EngineProbe(recorder)``.  Every
    schedule/fire/cancel becomes one ``engine`` event — useful when the
    transport-level trace is not enough to explain a timing, at the
    cost of recording every packet delivery too.
    """

    __slots__ = ("recorder",)

    def __init__(self, recorder: FlightRecorder):
        self.recorder = recorder

    def on_schedule(self, time: float, callback) -> None:
        self.recorder.record(time, "engine", "schedule")

    def on_fire(self, time: float, callback) -> None:
        self.recorder.record(time, "engine", "fire")

    def on_cancel(self, time: float) -> None:
        self.recorder.record(time, "engine", "cancel")


def merge_events(
    event_lists: Iterable[Iterable[TraceEvent] | None],
) -> list[TraceEvent]:
    """Deterministically merge per-flow event streams.

    Accepts the ``trace_events`` of any number of flow results (``None``
    entries — untraced flows — are skipped) and orders the union by
    ``(flow, time, index)``.  Because the index is assigned at record
    time inside each single-threaded simulation, the merged order is
    identical no matter how flows were sharded across workers.
    """
    merged: list[TraceEvent] = []
    for events in event_lists:
        if events:
            merged.extend(events)
    merged.sort(key=lambda e: (e.flow, e.time, e.index))
    return merged
