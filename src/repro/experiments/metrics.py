"""Runtime metrics for experiment runs.

The experiment layer can simulate hundreds of thousands of events per
invocation; :class:`RunMetrics` makes that work observable.  Every
:class:`~repro.experiments.runner.DatasetRun` carries one, the CLI
prints them with ``--stats``, and the parallel-scaling bench consumes
them to compute speedups.

Metrics are plain data (picklable) so they survive the on-disk dataset
cache and can be merged across services and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WorkerStats:
    """Per-worker accounting for one parallel run.

    ``busy_time`` is the wall-clock time the worker spent inside
    :func:`~repro.experiments.runner.run_flow`; dividing by the run's
    total wall time gives that worker's utilization.
    """

    worker_id: int
    flows: int = 0
    chunks: int = 0
    events: int = 0
    busy_time: float = 0.0

    def absorb(self, other: "WorkerStats") -> None:
        self.flows += other.flows
        self.chunks += other.chunks
        self.events += other.events
        self.busy_time += other.busy_time


@dataclass
class RunMetrics:
    """What one experiment run cost and where the time went."""

    wall_time: float = 0.0
    flows: int = 0
    events: int = 0
    packets: int = 0
    workers: int = 1
    chunks: int = 0
    chunks_retried: int = 0
    #: Chunks quarantined after killing every worker that ran them.
    chunks_poisoned: int = 0
    #: Flows quarantined under a tolerant error budget.
    flows_skipped: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Corrupted/truncated on-disk cache entries detected and dropped.
    cache_corruptions: int = 0
    #: Cache writes that failed (disk errors, unpicklable payloads).
    cache_store_failures: int = 0
    #: Flight-recorder totals for traced runs (0 when tracing is off).
    trace_events: int = 0
    trace_events_dropped: int = 0
    #: Wall time by pipeline phase (simulate/analyze/cache_load/...),
    #: accumulated via :func:`repro.obs.metrics.phase_span`.
    phases: dict[str, float] = field(default_factory=dict)
    worker_stats: list[WorkerStats] = field(default_factory=list)

    # -- derived rates ------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.events / self.wall_time

    @property
    def packets_per_sec(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.packets / self.wall_time

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's capacity spent simulating."""
        if self.wall_time <= 0 or self.workers <= 0:
            return 0.0
        busy = sum(w.busy_time for w in self.worker_stats)
        if not self.worker_stats:
            busy = self.wall_time  # serial run: the one worker is us
        return min(1.0, busy / (self.wall_time * self.workers))

    # -- combination --------------------------------------------------
    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Fold ``other`` into this metrics object (in place)."""
        self.wall_time += other.wall_time
        self.flows += other.flows
        self.events += other.events
        self.packets += other.packets
        self.workers = max(self.workers, other.workers)
        self.chunks += other.chunks
        self.chunks_retried += other.chunks_retried
        self.chunks_poisoned += other.chunks_poisoned
        self.flows_skipped += other.flows_skipped
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_corruptions += other.cache_corruptions
        self.cache_store_failures += other.cache_store_failures
        self.trace_events += other.trace_events
        self.trace_events_dropped += other.trace_events_dropped
        for phase, seconds in other.phases.items():
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        mine = {w.worker_id: w for w in self.worker_stats}
        for w in other.worker_stats:
            if w.worker_id in mine:
                mine[w.worker_id].absorb(w)
            else:
                self.worker_stats.append(
                    WorkerStats(
                        worker_id=w.worker_id,
                        flows=w.flows,
                        chunks=w.chunks,
                        events=w.events,
                        busy_time=w.busy_time,
                    )
                )
        return self

    @classmethod
    def merged(cls, parts: list["RunMetrics"]) -> "RunMetrics":
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def to_registry(self, prefix: str = "repro_"):
        """Absorb this object into a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` (JSON/Prometheus
        rendering lives there)."""
        from ..obs.metrics import registry_from_run_metrics

        return registry_from_run_metrics(self, prefix=prefix)

    # -- presentation -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "wall_time": self.wall_time,
            "flows": self.flows,
            "events": self.events,
            "packets": self.packets,
            "workers": self.workers,
            "chunks": self.chunks,
            "chunks_retried": self.chunks_retried,
            "chunks_poisoned": self.chunks_poisoned,
            "flows_skipped": self.flows_skipped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corruptions": self.cache_corruptions,
            "cache_store_failures": self.cache_store_failures,
            "trace_events": self.trace_events,
            "trace_events_dropped": self.trace_events_dropped,
            "phases": dict(sorted(self.phases.items())),
            "events_per_sec": self.events_per_sec,
            "packets_per_sec": self.packets_per_sec,
            "utilization": self.utilization,
            "worker_stats": [
                {
                    "worker_id": w.worker_id,
                    "flows": w.flows,
                    "chunks": w.chunks,
                    "events": w.events,
                    "busy_time": w.busy_time,
                }
                for w in self.worker_stats
            ],
        }

    def format(self) -> str:
        """Multi-line human summary (the CLI's ``--stats`` output)."""
        lines = [
            (
                f"wall {self.wall_time:.2f}s | {self.flows} flows | "
                f"{self.events} events ({self.events_per_sec:,.0f}/s) | "
                f"{self.packets} packets ({self.packets_per_sec:,.0f}/s)"
            ),
            (
                f"workers {self.workers} | chunks {self.chunks} "
                f"(retried {self.chunks_retried}, "
                f"poisoned {self.chunks_poisoned}) | "
                f"utilization {self.utilization:.0%} | "
                f"cache {self.cache_hits} hit / {self.cache_misses} miss "
                f"/ {self.cache_corruptions} corrupt"
            ),
        ]
        if self.flows_skipped:
            lines.append(f"skipped: {self.flows_skipped} flows quarantined")
        if self.phases:
            lines.append(
                "phases: "
                + " | ".join(
                    f"{name} {seconds:.2f}s"
                    for name, seconds in sorted(self.phases.items())
                )
            )
        if self.trace_events:
            lines.append(
                f"trace: {self.trace_events} events "
                f"({self.trace_events_dropped} dropped)"
            )
        for w in sorted(self.worker_stats, key=lambda w: w.worker_id):
            lines.append(
                f"  worker {w.worker_id}: {w.flows} flows, "
                f"{w.events} events, busy {w.busy_time:.2f}s"
            )
        return "\n".join(lines)
