"""Parallel flow simulation across worker processes.

Flows in the dataset are independent (no cross-flow coupling — see
:mod:`repro.experiments.runner`), so a batch of scenarios shards
cleanly across a process pool.  The contract of
:func:`run_flows_parallel` is that its output is **byte-identical** to
the serial path for the same scenarios: each flow carries its own
derived seed, chunks preserve scenario order, and results are
reassembled in submission order regardless of which worker finished
first.

Failure handling degrades rather than crashes: if a worker dies (OOM
killer, interpreter crash) or a chunk raises, the affected chunks are
re-simulated serially in the parent process and the retry is counted
in :class:`~repro.experiments.metrics.RunMetrics`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from ..config import AnalysisConfig
from ..errors import FaultStats, PoisonTaskError, ReproError, SkippedFlow
from ..packet.flow import FlowTrace
from ..workload.generator import FlowScenario
from .metrics import RunMetrics, WorkerStats
from .runner import DatasetRun, FlowRunResult, run_flow

#: Target chunks per worker; >1 smooths load imbalance between
#: fast (short-flow) and slow (stalled-flow) chunks.
_CHUNKS_PER_WORKER = 4


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: ``None``/``0`` = all cores."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(workers))


def chunk_scenarios(
    scenarios: list[FlowScenario], workers: int, chunk_flows: int | None = None
) -> list[list[FlowScenario]]:
    """Split a scenario list into contiguous, order-preserving chunks."""
    if not scenarios:
        return []
    if chunk_flows is None:
        target = workers * _CHUNKS_PER_WORKER
        chunk_flows = max(1, -(-len(scenarios) // target))
    return [
        scenarios[i : i + chunk_flows]
        for i in range(0, len(scenarios), chunk_flows)
    ]


@dataclass
class _ChunkResult:
    index: int
    results: list[FlowRunResult]
    worker_id: int
    busy_time: float


def _simulate_chunk(
    index: int,
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
        index=index,
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

    if workers <= 1 or len(scenario_list) <= 1:
        results = [
            run_flow(s, max_sim_time=max_sim_time, trace=trace)
            for s in scenario_list
        ]
        return _assemble(service, results, started, workers=1, chunks=1)

    chunks = chunk_scenarios(scenario_list, workers, chunk_flows)
    chunk_results: list[_ChunkResult | None] = [None] * len(chunks)
    factory = executor_factory or _make_executor
    recovered: set[int] = set()  # chunks that needed any retry
    try:
        with factory(workers) as pool:
            futures = {
                index: pool.submit(
                    _simulate_chunk, index, chunk, max_sim_time, trace
                )
                for index, chunk in enumerate(chunks)
            }
            for index, future in futures.items():
                try:
                    chunk_results[index] = future.result()
                except ReproError:
                    # Deterministic, typed: the simulation itself
                    # rejected its input.  Retrying cannot help.
                    raise
                except Exception:
                    recovered.add(index)
            # Resubmit failed chunks to the pool once before falling
            # back to the parent: one transient worker death should
            # not serialize the recovery.
            for index in sorted(recovered):
                try:
                    chunk_results[index] = pool.submit(
                        _simulate_chunk,
                        index,
                        chunks[index],
                        max_sim_time,
                        trace,
                    ).result()
                except ReproError:
                    raise
                except Exception:
                    pass  # re-run serially below
    except ReproError:
        raise
    except Exception:
        pass  # pool never came up or died wholesale; recover below

    for index, result in enumerate(chunk_results):
        if result is None:
            recovered.add(index)
            chunk_results[index] = _simulate_chunk(
                index, chunks[index], max_sim_time, trace
            )
    retried = len(recovered)

    results: list[FlowRunResult] = []
    worker_stats: dict[int, WorkerStats] = {}
    for chunk_result in chunk_results:
        assert chunk_result is not None  # every chunk ran or was retried
        results.extend(chunk_result.results)
        stats = worker_stats.setdefault(
            chunk_result.worker_id, WorkerStats(chunk_result.worker_id)
        )
        stats.flows += len(chunk_result.results)
        stats.chunks += 1
        stats.events += sum(r.events for r in chunk_result.results)
        stats.busy_time += chunk_result.busy_time

    run = _assemble(
        service,
        results,
        started,
        workers=workers,
        chunks=len(chunks),
    )
    run.metrics.chunks_retried = retried
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
class AnalysisPoolStats:
    """Accounting for one :class:`AnalysisPool` pass."""

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

    Failure handling distinguishes *deterministic* faults from
    *transient* ones.  A :class:`~repro.errors.ReproError` escaping a
    worker is deterministic — the analyzer itself rejected the input —
    so it propagates (strict budgets) rather than being retried; under
    tolerant budgets workers quarantine such flows internally and the
    error never escapes.  Anything else (a dead worker, a broken pool)
    is treated as transient: the chunk is retried up to ``max_retries``
    times in fresh single-worker pools with exponential backoff, then
    re-run serially in the parent, and only if *that* also dies is the
    chunk declared poisoned — strict budgets raise
    :class:`~repro.errors.PoisonTaskError`, tolerant budgets quarantine
    the chunk's flows as :class:`~repro.errors.SkippedFlow` records.
    """

    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    workers: int | None = 1
    chunk_flows: int | None = None
    max_in_flight: int | None = None
    executor_factory: object = None
    max_retries: int = 2
    retry_backoff: float = 0.1
    stats: AnalysisPoolStats = field(default_factory=AnalysisPoolStats)
    faults: FaultStats = field(default_factory=FaultStats)
    analyzer: object = None

    def map_stream(self, flows: Iterable[FlowTrace]) -> Iterator:
        workers = resolve_workers(self.workers)
        chunk_flows = self.chunk_flows or _ANALYZE_CHUNK_FLOWS
        if workers <= 1:
            yield from self._map_serial(flows)
            return
        max_in_flight = self.max_in_flight or 2 * workers
        factory = self.executor_factory or _make_executor
        in_flight: deque[tuple[Future | None, list[FlowTrace]]] = deque()
        with factory(workers) as pool:
            chunk: list[FlowTrace] = []
            for flow in flows:
                chunk.append(flow)
                if len(chunk) >= chunk_flows:
                    if len(in_flight) >= max_in_flight:
                        yield from self._drain_one(in_flight)
                    self._submit(pool, in_flight, chunk)
                    chunk = []
            if chunk:
                if len(in_flight) >= max_in_flight:
                    yield from self._drain_one(in_flight)
                self._submit(pool, in_flight, chunk)
            while in_flight:
                yield from self._drain_one(in_flight)

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

    def _submit(
        self,
        pool: Executor,
        in_flight: deque,
        chunk: list[FlowTrace],
    ) -> None:
        try:
            future = pool.submit(_analyze_chunk, chunk, self.config)
        except Exception:
            # The pool is broken (e.g. a previous chunk killed a
            # worker).  Queue the chunk anyway; _drain_one recovers it
            # through the retry path.
            future = None
        in_flight.append((future, chunk))
        stats = self.stats
        stats.chunks += 1
        stats.in_flight_chunks = len(in_flight)
        if stats.in_flight_chunks > stats.peak_in_flight_chunks:
            stats.peak_in_flight_chunks = stats.in_flight_chunks

    def _drain_one(self, in_flight: deque) -> Iterator:
        future, chunk = in_flight.popleft()
        if future is None:
            results, skipped, counts = self._retry_chunk(chunk)
        else:
            try:
                results, skipped, counts = future.result()
            except ReproError:
                # Deterministic: the analyzer itself refused the input
                # under a strict budget.  Retrying cannot help.
                raise
            except Exception:
                results, skipped, counts = self._retry_chunk(chunk)
        if self.analyzer is not None:
            self.analyzer.add_flow_counts(*counts)
        self.stats.in_flight_chunks = len(in_flight)
        self.stats.flows += len(results)
        self.stats.flows_skipped += len(skipped)
        for record in skipped:
            self.faults.record_skip(record)
        self.config.errors.check(
            self.faults.flows_skipped,
            self.stats.flows + self.faults.flows_skipped,
            "quarantined flows",
        )
        yield from results

    def _retry_chunk(
        self, chunk: list[FlowTrace]
    ) -> tuple[list, list[SkippedFlow], tuple[int, int, int]]:
        """Recover a chunk whose worker died or whose pool broke.

        Fresh single-worker pools isolate each attempt from the (very
        possibly broken) main pool; the final attempt runs serially in
        the parent.  A chunk that outlives every attempt is poison.
        """
        self.stats.chunks_retried += 1
        self.faults.tasks_retried += 1
        factory = self.executor_factory or _make_executor
        delay = self.retry_backoff
        for attempt in range(max(0, self.max_retries)):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                with factory(1) as rescue:
                    return rescue.submit(
                        _analyze_chunk, chunk, self.config
                    ).result()
            except ReproError:
                raise
            except Exception:
                continue
        try:
            return _analyze_chunk(chunk, self.config)
        except ReproError:
            raise
        except Exception as exc:
            return self._poison_chunk(chunk, exc)

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
