"""Trace-overhead smoke: tracing *off* must cost ≤2% of the hot loop.

The flight-recorder hooks ride the simulator's hottest paths (the
event loop, the sender's ACK clock, the RTO estimator), guarded by a
single ``is None`` check each.  This bench pins that guarantee:

* ``measure_loop_overhead`` times the hooked :class:`EventLoop` with
  ``observer=None`` against an inline replica of the pre-hook loop
  (same heap, same tie-breaking, no observer branches) on a
  chained-timer workload, min-of-repeats;
* ``measure_flow_overhead`` times whole-flow simulation with tracing
  off vs on — informational (tracing *on* is allowed to cost more).

Under pytest (the CI smoke job) the untraced ratio is asserted at
``REPRO_TRACE_OVERHEAD_MAX`` (default 1.02, i.e. ≤2%)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py \
        --events 200000 --repeats 5 --json-out out/trace_overhead.json
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import sys
import time

from repro.netsim.engine import EventLoop
from repro.experiments.runner import run_flow
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

DEFAULT_EVENTS = 200_000
#: The list-entry loop runs the workload ~2.4x faster than the dataclass
#: one did, so the same wall time buys more repeats for the min filter.
DEFAULT_REPEATS = 21
DEFAULT_FLOWS = 6
DEFAULT_SEED = 20141222

#: Default ceiling on (hooked, untraced) / baseline wall time.
OVERHEAD_BUDGET = 1.02

# The engine's heap-entry layout, under module globals as the engine
# reads it, so the replica pays the same name lookups.
_TIME, _CALLBACK, _DONE = 0, 2, 3


class _BaselineTimer:
    """Pre-hook ``Timer``: cancel just flags the heap entry."""

    __slots__ = ("_engine", "_entry")

    def __init__(self, engine, entry):
        self._engine = engine
        self._entry = entry

    def cancel(self):
        entry = self._entry
        if not entry[_DONE]:
            entry[_DONE] = True


class _BaselineLoop:
    """Replica of the event loop as it was before the observer hooks.

    Kept faithful on purpose: same ``[time, tie, callback, done]``
    list entries, same heap discipline, same ``Timer``-handle
    allocation, same sanity checks, bounds tests and local bindings in
    ``run`` — the only difference from :class:`EventLoop` is the
    absence of the observer branches, so the timing delta isolates
    exactly what the hooks cost when unset.
    """

    __slots__ = ("now", "_heap", "_tie", "events_run")

    def __init__(self, start_time: float = 0.0):
        self.now = start_time
        self._heap = []
        self._tie = itertools.count()
        self.events_run = 0

    def schedule_at(self, when, callback):
        if when < self.now:
            raise RuntimeError("cannot schedule in the past")
        entry = [when, next(self._tie), callback, False]
        heapq.heappush(self._heap, entry)
        return _BaselineTimer(self, entry)

    def schedule(self, delay, callback):
        if delay < 0:
            raise RuntimeError("negative delay")
        return self.schedule_at(self.now + delay, callback)

    def run(self, until=None, max_events=None):
        remaining = max_events
        heap = self._heap
        heappop = heapq.heappop
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
            entry[_CALLBACK]()
            if remaining is not None:
                remaining -= 1


def _drive(loop, events: int) -> None:
    """Chained-timer workload: each event schedules the next, and every
    fourth event also schedules-and-cancels a decoy timer (the pattern
    an ACK-clocked sender re-arming its RTO produces)."""
    remaining = events

    def tick():
        nonlocal remaining
        remaining -= 1
        if remaining <= 0:
            return
        loop.schedule(0.001, tick)
        if remaining % 4 == 0:
            loop.schedule(1.0, tick).cancel()

    loop.schedule(0.0, tick)
    loop.run()


def _timed_run(make_loop, events: int) -> float:
    # CPU time, not wall time: the loops are pure CPU, and process_time
    # is immune to scheduler preemption on noisy CI runners.
    loop = make_loop()
    started = time.process_time()
    _drive(loop, events)
    return time.process_time() - started


def measure_loop_overhead(
    events: int = DEFAULT_EVENTS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Hooked-but-untraced loop vs the pre-hook baseline replica.

    Baseline and hooked runs are interleaved (so scheduler/thermal
    drift lands on both sides equally) and the minimum of ``repeats``
    runs is compared — min-of-N converges on the true floor, which is
    what the ≤2% budget is about; means would fold CI noise in.
    """
    _timed_run(_BaselineLoop, events)  # warmup (heap, allocator, JIT-y caches)
    _timed_run(EventLoop, events)
    baseline = hooked = float("inf")
    for _ in range(repeats):
        baseline = min(baseline, _timed_run(_BaselineLoop, events))
        hooked = min(hooked, _timed_run(EventLoop, events))
    return {
        "events": events,
        "repeats": repeats,
        "baseline_s": baseline,
        "hooked_untraced_s": hooked,
        "overhead_ratio": hooked / baseline if baseline > 0 else 1.0,
    }


def measure_flow_overhead(
    flows: int = DEFAULT_FLOWS, seed: int = DEFAULT_SEED
) -> dict:
    """Whole-flow simulation, tracing off vs on (informational)."""

    def simulate(trace: bool) -> float:
        scenarios = list(
            generate_flows(get_profile("web_search"), flows, seed=seed)
        )
        started = time.perf_counter()
        for scenario in scenarios:
            run_flow(scenario, trace=trace)
        return time.perf_counter() - started

    off = min(simulate(False) for _ in range(3))
    on = min(simulate(True) for _ in range(3))
    return {
        "flows": flows,
        "untraced_s": off,
        "traced_s": on,
        "traced_ratio": on / off if off > 0 else 1.0,
    }


def overhead_budget() -> float:
    return float(
        os.environ.get("REPRO_TRACE_OVERHEAD_MAX", str(OVERHEAD_BUDGET))
    )


# ----------------------------------------------------------------------
# pytest entry points (the CI trace-overhead smoke job)
# ----------------------------------------------------------------------
def test_untraced_loop_overhead_within_budget():
    # Best of three measurement rounds: a noise spike fails one round,
    # a real hook regression fails all three.
    budget = overhead_budget()
    report = None
    for _ in range(3):
        report = measure_loop_overhead()
        if report["overhead_ratio"] <= budget:
            return
    assert report["overhead_ratio"] <= budget, (
        f"untraced hook overhead {report['overhead_ratio']:.4f}x exceeds "
        f"budget {budget:.2f}x: {report}"
    )


def test_untraced_flow_results_identical():
    """The ratio above is only meaningful if results stay identical."""

    def signature():
        scenario = list(
            generate_flows(get_profile("web_search"), 1, seed=DEFAULT_SEED)
        )[0]
        result = run_flow(scenario, trace=True)
        return [
            (p.timestamp, p.seq, p.ack, p.flags, p.payload_len)
            for p in result.packets
        ]

    first = signature()
    assert first == signature()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--flows", type=int, default=DEFAULT_FLOWS)
    parser.add_argument("--json-out", help="also write the report here")
    import _emit

    _emit.add_store_argument(parser)
    args = parser.parse_args(argv)

    import time as _time

    started = _time.perf_counter()
    report = {
        "loop": measure_loop_overhead(args.events, args.repeats),
        "flow": measure_flow_overhead(args.flows),
        "budget": overhead_budget(),
    }
    _emit.emit_result(
        "trace_overhead",
        report,
        store_path=args.results_store,
        wall_time=_time.perf_counter() - started,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_out:
        out_dir = os.path.dirname(args.json_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json_out, "w") as handle:
            handle.write(text)
    ratio = report["loop"]["overhead_ratio"]
    print(
        f"untraced hook overhead: {100 * (ratio - 1):+.2f}% "
        f"(budget +{100 * (overhead_budget() - 1):.0f}%)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
