"""Ordered fan-out of picklable chunks across worker processes.

:func:`run_flows_parallel` (simulation: flows are independent and carry
their own derived seeds, so output is **byte-identical** to the serial
path) and :class:`AnalysisPool` (streaming TAPO analysis with
back-pressure on the packet source) share one runner,
:func:`map_ordered`.  It keeps a bounded window of chunks queued or
running and yields outcomes in submission order.  The window is
``4 × workers`` for the simulator — its default chunk count, so every
chunk is submitted up front and slow (stalled-flow) chunks overlap fast
ones — and ``2 × workers`` for analysis, where the window is what
pauses packet reading and so bounds memory.

The runner owns the only failure ladder.  A
:class:`~repro.errors.ReproError` is deterministic — the task rejected
its input — and propagates at once.  Anything else is transient: the
chunk is retried in single-worker pools with doubling backoff, then
once in the parent, and what that raises is handed to the caller as the
chunk's outcome (the simulator re-raises it, analysis poisons the
chunk).  If the failure is a :class:`~concurrent.futures.BrokenExecutor`
— a worker died (OOM killer, interpreter crash) and took its pool along
— the main pool is replaced too, so one death fails one window and
later chunks run in parallel again.  Each chunk that needed the ladder
counts once in :attr:`AnalysisPoolStats.chunks_retried`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
)
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from ..config import AnalysisConfig, RunConfig, resolve_workers
from ..errors import FaultStats, PoisonTaskError, ReproError, SkippedFlow
from ..packet.flow import FlowTrace
from ..workload.generator import FlowScenario
from .metrics import RunMetrics, WorkerStats
from .runner import DatasetRun, FlowRunResult, run_flow

#: Target chunks per worker; >1 smooths load imbalance between
#: fast (short-flow) and slow (stalled-flow) chunks.
_CHUNKS_PER_WORKER = 4

#: Ladder depth and pacing for callers that take no ``RunConfig``.
_MAX_RETRIES = RunConfig.max_retries
_RETRY_BACKOFF = RunConfig.retry_backoff


def _chunked(items: Iterable, size: int) -> Iterator[list]:
    """Lazily split ``items`` into lists of ``size``; the last may be short."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def chunk_scenarios(
    scenarios: list[FlowScenario], workers: int, chunk_flows: int | None = None
) -> list[list[FlowScenario]]:
    """Split a scenario list into contiguous, order-preserving chunks."""
    if chunk_flows is None:
        target = workers * _CHUNKS_PER_WORKER
        chunk_flows = max(1, -(-len(scenarios) // target))
    return list(_chunked(scenarios, chunk_flows))


@dataclass
class _ChunkResult:
    results: list[FlowRunResult]
    worker_id: int
    busy_time: float


def _simulate_chunk(
    scenarios: list[FlowScenario],
    max_sim_time: float,
    trace: bool | str = False,
) -> _ChunkResult:
    """Worker entry point: simulate one chunk of scenarios in order."""
    start = time.perf_counter()
    results = [
        run_flow(s, max_sim_time=max_sim_time, trace=trace)
        for s in scenarios
    ]
    return _ChunkResult(
        results=results,
        worker_id=os.getpid(),
        busy_time=time.perf_counter() - start,
    )


def _make_executor(workers: int) -> Executor:
    """Process pool preferring the cheap ``fork`` start method."""
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    return ProcessPoolExecutor(max_workers=workers)


@dataclass
class AnalysisPoolStats:
    """Accounting for one :func:`map_ordered` / :class:`AnalysisPool` pass."""

    flows: int = 0
    flows_skipped: int = 0
    chunks: int = 0
    chunks_retried: int = 0
    chunks_poisoned: int = 0
    in_flight_chunks: int = 0
    peak_in_flight_chunks: int = 0

    def to_registry(self, registry, prefix: str = "repro_stream_") -> None:
        registry.counter(
            prefix + "analysis_chunks_total", "Analysis chunks dispatched"
        ).inc(self.chunks)
        registry.counter(
            prefix + "analysis_chunks_retried_total",
            "Analysis chunks re-run after a worker failure",
        ).inc(self.chunks_retried)
        registry.counter(
            prefix + "analysis_chunks_poisoned_total",
            "Analysis chunks quarantined after repeated worker deaths",
        ).inc(self.chunks_poisoned)
        registry.counter(
            prefix + "analyzed_flows_total", "Flows analyzed"
        ).inc(self.flows)
        registry.counter(
            prefix + "flows_skipped_total",
            "Flows quarantined under a tolerant error budget",
        ).inc(self.flows_skipped)
        registry.gauge(
            prefix + "peak_in_flight_chunks",
            "Most analysis chunks queued or executing at once",
        ).set(float(self.peak_in_flight_chunks))


def _open_pool(factory, workers: int):
    """The factory's pool as a context manager; one that yields ``None``
    if the factory raises — every rung can step over "no pool"."""
    try:
        return factory(workers)
    except Exception:
        return nullcontext()


def _submit(pool: Executor | None, fn: Callable, chunk) -> Future:
    """``pool.submit`` that reports every failure — no pool, or one that
    is already broken and refuses the task — through the future."""
    try:
        if pool is None:
            raise BrokenExecutor("no worker pool")
        return pool.submit(fn, chunk)
    except Exception as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _rescue(
    fn: Callable, chunk, factory, max_retries: int, retry_backoff: float
):
    """The rungs below the main pool: single-worker pools, which isolate
    each attempt, then the parent, where a raise becomes the outcome."""
    attempts = 0
    for _ in range(max_retries):
        with _open_pool(factory, 1) as pool:
            if pool is None:
                continue  # nothing ran, so nothing to wait out
            if attempts:
                time.sleep(retry_backoff * 2 ** (attempts - 1))
            attempts += 1
            try:
                return _submit(pool, fn, chunk).result()
            except ReproError:
                raise
            except Exception:
                pass
    try:
        return fn(chunk)
    except ReproError:
        raise
    except Exception as exc:
        return exc


def map_ordered(
    fn: Callable,
    chunks: Iterable,
    *,
    workers: int,
    max_in_flight: int,
    stats: AnalysisPoolStats,
    max_retries: int = _MAX_RETRIES,
    retry_backoff: float = _RETRY_BACKOFF,
    executor_factory=None,
) -> Iterator[tuple]:
    """Run ``fn(chunk)`` across ``workers`` processes, in order.

    Pulls ``chunks`` lazily, keeps at most ``max_in_flight`` of them
    queued or running, and yields ``(chunk, outcome)`` in submission
    order.  ``outcome`` is ``fn``'s return value, or the exception the
    parent-process attempt raised once every rung of the ladder (see
    the module docstring) had failed; a
    :class:`~repro.errors.ReproError` is never an outcome, it
    propagates.  ``fn`` and the chunks must pickle.
    """
    factory = executor_factory or _make_executor
    chunks = iter(chunks)
    #: (chunk, future, pool it was submitted to), oldest first.
    window: deque[tuple[object, Future, object]] = deque()
    replacements = 0
    with ExitStack() as stack:
        pool = stack.enter_context(_open_pool(factory, workers))
        while True:
            for chunk in islice(chunks, max_in_flight - len(window)):
                window.append((chunk, _submit(pool, fn, chunk), pool))
                stats.chunks += 1
                stats.in_flight_chunks = len(window)
                stats.peak_in_flight_chunks = max(
                    stats.peak_in_flight_chunks, len(window)
                )
            if not window:
                return
            chunk, future, origin = window.popleft()
            try:
                outcome = future.result()
            except ReproError:
                raise
            except Exception as failure:
                stats.chunks_retried += 1
                # One death fails every future of its pool; only the
                # first of them to be collected gets to replace it.
                if (
                    isinstance(failure, BrokenExecutor)
                    and origin is pool
                    and replacements < max_retries
                ):
                    replacements += 1
                    stack.close()
                    pool = stack.enter_context(_open_pool(factory, workers))
                outcome = _rescue(
                    fn, chunk, factory, max_retries, retry_backoff
                )
            stats.in_flight_chunks = len(window)
            yield chunk, outcome


def run_flows_parallel(
    scenarios: Iterable[FlowScenario],
    max_sim_time: float = 600.0,
    workers: int | None = None,
    chunk_flows: int | None = None,
    executor_factory=None,
    trace: bool | str = False,
) -> DatasetRun:
    """Run a scenario batch across ``workers`` processes.

    Returns the same :class:`DatasetRun` the serial path produces (same
    result order, same per-flow contents), with
    :class:`~repro.experiments.metrics.RunMetrics` attached.  With
    ``workers=1``, no pool is created at all.
    """
    scenario_list = list(scenarios)
    workers = min(
        resolve_workers(workers), max(1, len(scenario_list))
    )
    started = time.perf_counter()
    service = scenario_list[-1].service if scenario_list else ""

    if workers <= 1:
        results = [
            run_flow(s, max_sim_time=max_sim_time, trace=trace)
            for s in scenario_list
        ]
        return _assemble(service, results, started, workers=1, chunks=1)

    stats = AnalysisPoolStats()
    results: list[FlowRunResult] = []
    worker_stats: dict[int, WorkerStats] = {}
    for _, outcome in map_ordered(
        partial(_simulate_chunk, max_sim_time=max_sim_time, trace=trace),
        chunk_scenarios(scenario_list, workers, chunk_flows),
        workers=workers,
        max_in_flight=_CHUNKS_PER_WORKER * workers,
        stats=stats,
        executor_factory=executor_factory,
    ):
        if isinstance(outcome, Exception):
            raise outcome
        results.extend(outcome.results)
        worker = worker_stats.setdefault(
            outcome.worker_id, WorkerStats(outcome.worker_id)
        )
        worker.flows += len(outcome.results)
        worker.chunks += 1
        worker.events += sum(r.events for r in outcome.results)
        worker.busy_time += outcome.busy_time

    run = _assemble(
        service, results, started, workers=workers, chunks=stats.chunks
    )
    run.metrics.chunks_retried = stats.chunks_retried
    run.metrics.worker_stats = list(worker_stats.values())
    return run


# -- streaming flow analysis ----------------------------------------------

#: Flows per analysis work unit; TAPO analysis of one flow is much
#: cheaper than simulating it, so chunks are bigger than simulation's.
_ANALYZE_CHUNK_FLOWS = 32


def _analyze_chunk(
    flows: list[FlowTrace], config: AnalysisConfig
) -> tuple[list, list[SkippedFlow], tuple[int, int, int]]:
    """Worker entry point: run TAPO over one chunk of completed flows.

    Returns ``(analyses, skipped, flow_counts)``, the last being the
    worker's ``(fast, replayed, materialized)`` flow counts (see
    :meth:`Tapo.flow_counts <repro.core.tapo.Tapo.flow_counts>`).
    Under a tolerant
    ``config.errors`` budget a crashing flow is quarantined into the
    ``skipped`` list instead of failing the chunk; budget caps are
    *not* enforced here (``enforce=False``) because only the parent
    sees run-wide fault totals.
    """
    from ..core.tapo import Tapo

    tapo = Tapo(config=config)
    analyses = list(tapo._analyze_flows(flows, tapo.faults, enforce=False))
    return analyses, list(tapo.faults.skipped), tapo.flow_counts()


@dataclass
class AnalysisPool:
    """Fan completed flows out to analyzer workers with backpressure.

    :meth:`map_stream` pulls flows from an iterator, ships them to the
    pool in chunks, and yields :class:`~repro.core.flow_analyzer.FlowAnalysis`
    results **in submission order**.  At most ``max_in_flight`` chunks
    are queued or executing at once; when the bound is hit, no further
    flows are pulled from upstream until a chunk completes — the
    backpressure that keeps a streaming pipeline's memory flat no
    matter how fast the packet source is.

    ``workers=1`` analyzes inline with no pool and no pickling.
    ``analyzer`` is the :class:`~repro.core.tapo.Tapo` the caller
    watches: the inline path runs on it and worker chunks fold their
    flow counts into it, so its ``fast_flows`` / ``fallback_flows`` /
    ``materialized_flows`` are live whatever the worker count.

    Worker failures go down :func:`map_ordered`'s ladder (module
    docstring); a :class:`~repro.errors.ReproError` from a worker
    propagates (under tolerant budgets workers quarantine crashing
    flows themselves, so none escapes).  A chunk that fails every rung
    is poisoned: strict budgets raise
    :class:`~repro.errors.PoisonTaskError`, tolerant budgets quarantine
    its flows as :class:`~repro.errors.SkippedFlow` records.
    """

    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    workers: int | None = 1
    chunk_flows: int | None = None
    max_in_flight: int | None = None
    executor_factory: object = None
    max_retries: int = _MAX_RETRIES
    retry_backoff: float = _RETRY_BACKOFF
    stats: AnalysisPoolStats = field(default_factory=AnalysisPoolStats)
    faults: FaultStats = field(default_factory=FaultStats)
    analyzer: object = None

    def map_stream(self, flows: Iterable[FlowTrace]) -> Iterator:
        workers = resolve_workers(self.workers)
        if workers <= 1:
            yield from self._map_serial(flows)
            return
        stats = self.stats
        retried_before = stats.chunks_retried
        try:
            for chunk, outcome in map_ordered(
                partial(_analyze_chunk, config=self.config),
                _chunked(flows, self.chunk_flows or _ANALYZE_CHUNK_FLOWS),
                workers=workers,
                max_in_flight=self.max_in_flight or 2 * workers,
                stats=stats,
                max_retries=self.max_retries,
                retry_backoff=self.retry_backoff,
                executor_factory=self.executor_factory,
            ):
                if isinstance(outcome, Exception):
                    outcome = self._poison_chunk(chunk, outcome)
                results, skipped, counts = outcome
                if self.analyzer is not None:
                    self.analyzer.add_flow_counts(*counts)
                stats.flows += len(results)
                stats.flows_skipped += len(skipped)
                for record in skipped:
                    self.faults.record_skip(record)
                self.config.errors.check(
                    self.faults.flows_skipped,
                    stats.flows + self.faults.flows_skipped,
                    "quarantined flows",
                )
                yield from results
        finally:
            self.faults.tasks_retried += stats.chunks_retried - retried_before

    def _map_serial(self, flows: Iterable[FlowTrace]) -> Iterator:
        from ..core.tapo import Tapo

        tapo = self.analyzer or Tapo(config=self.config)
        stats = self.stats
        before = self.faults.flows_skipped
        for analysis in tapo._analyze_flows(flows, self.faults):
            stats.flows += 1
            yield analysis
        stats.flows_skipped += self.faults.flows_skipped - before
        stats.chunks = 1 if stats.flows else 0

    def _poison_chunk(
        self, chunk: list[FlowTrace], cause: Exception
    ) -> tuple[list, list[SkippedFlow], tuple[int, int, int]]:
        """Quarantine a chunk that killed every worker that ran it."""
        self.stats.chunks_poisoned += 1
        self.faults.tasks_poisoned += 1
        error = PoisonTaskError(
            f"chunk of {len(chunk)} flows failed every worker "
            f"({self.max_retries} retries): "
            f"{type(cause).__name__}: {cause}"
        )
        if not self.config.errors.tolerant:
            raise error from cause
        skipped = [SkippedFlow.from_exception(flow, error) for flow in chunk]
        return [], skipped, (0, 0, 0)


def _assemble(
    service: str,
    results: list[FlowRunResult],
    started: float,
    workers: int,
    chunks: int,
) -> DatasetRun:
    metrics = RunMetrics(
        wall_time=time.perf_counter() - started,
        flows=len(results),
        events=sum(r.events for r in results),
        packets=sum(len(r.packets) for r in results),
        workers=workers,
        chunks=chunks,
        trace_events=sum(len(r.trace_events or ()) for r in results),
        trace_events_dropped=sum(r.trace_dropped for r in results),
    )
    metrics.phases["simulate"] = metrics.wall_time
    return DatasetRun(service=service, results=results, metrics=metrics)
