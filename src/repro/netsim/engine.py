"""Discrete event simulation engine.

A single-threaded event loop over a binary heap.  Components schedule
callbacks at absolute or relative times and receive a :class:`Timer`
handle that supports cancellation and rescheduling — the exact facility
a TCP retransmission timer needs.

Determinism: events at the same timestamp fire in scheduling order
(a monotonic tie-breaker is part of the heap key), so simulations are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable


class SimulationError(RuntimeError):
    """Raised on engine misuse (e.g. scheduling in the past)."""


# A heap entry is a plain list ``[time, tie, callback, done]``: heapq
# compares lists in C, and because ``tie`` is unique the comparison
# never reaches the callback.  ``done`` is set when the entry is popped
# to fire and when its timer is cancelled.
_TIME, _CALLBACK, _DONE = 0, 2, 3


class Timer:
    """Handle for a scheduled callback.

    ``cancel()`` is idempotent and silent on a timer that already
    fired; ``pending`` tells whether the callback is still going to
    fire (false from the moment the callback starts).
    """

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine: "EventLoop", entry: list):
        self._engine = engine
        self._entry = entry

    @property
    def pending(self) -> bool:
        return not self._entry[_DONE]

    @property
    def fire_time(self) -> float:
        return self._entry[_TIME]

    def cancel(self) -> None:
        entry = self._entry
        if not entry[_DONE]:
            entry[_DONE] = True
            observer = self._engine.observer
            if observer is not None:
                observer.on_cancel(entry[_TIME])


class EventLoop:
    """The simulation clock and event queue.

    ``observer`` is the engine's tracing hook: an object with
    ``on_schedule(time, callback)``, ``on_fire(time, callback)`` and
    ``on_cancel(time)`` methods (see
    :class:`repro.obs.recorder.EngineProbe`).  It defaults to ``None``
    and costs one ``is None`` check per operation when unset, so the
    untraced simulation is unchanged.
    """

    __slots__ = ("now", "_heap", "_tie", "events_run", "observer")

    def __init__(self, start_time: float = 0.0):
        self.now = start_time
        self._heap: list[list] = []
        self._tie = itertools.count()
        self.events_run = 0
        self.observer = None

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}"
            )
        entry = [time, next(self._tie), callback, False]
        heapq.heappush(self._heap, entry)
        if self.observer is not None:
            self.observer.on_schedule(time, callback)
        return Timer(self, entry)

    def _push(self, time: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule_at` for a callback nobody cancels: the same
        event and observer call, without the :class:`Timer` handle."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, now is {self.now:.6f}"
            )
        heapq.heappush(self._heap, [time, next(self._tie), callback, False])
        if self.observer is not None:
            self.observer.on_schedule(time, callback)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.6f}")
        return self.schedule_at(self.now + delay, callback)

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None when idle."""
        heap = self._heap
        while heap and heap[0][_DONE]:
            heapq.heappop(heap)
        return heap[0][_TIME] if heap else None

    def step(self) -> bool:
        """Run the next event; return False when the queue is empty."""
        if self.peek_time() is None:
            return False
        entry = heapq.heappop(self._heap)
        entry[_DONE] = True
        self.now = entry[_TIME]
        self.events_run += 1
        if self.observer is not None:
            self.observer.on_fire(entry[_TIME], entry[_CALLBACK])
        entry[_CALLBACK]()
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Drain the queue, optionally bounded by time or event count.

        With ``until``, events after that time stay queued and the clock
        is left at ``until``.

        This is the simulator's hottest loop — every packet, timer and
        app event passes through it — so the heap and ``heappop`` are
        bound locally instead of being re-looked-up per event.
        """
        remaining = max_events
        heap = self._heap
        heappop = heapq.heappop
        observer = self.observer
        while remaining is None or remaining > 0:
            if not heap:
                if until is not None:
                    self.now = max(self.now, until)
                return
            entry = heap[0]
            if entry[_DONE]:
                heappop(heap)
                continue
            time = entry[_TIME]
            if until is not None and time > until:
                self.now = until
                return
            heappop(heap)
            entry[_DONE] = True
            self.now = time
            self.events_run += 1
            if observer is not None:
                observer.on_fire(time, entry[_CALLBACK])
            entry[_CALLBACK]()
            if remaining is not None:
                remaining -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[_DONE] = True
        self._heap.clear()
