"""Counter/gauge registry and wall-time phase spans.

The registry absorbs and extends the experiment layer's
:class:`~repro.experiments.metrics.RunMetrics`: anything the runner,
dataset builder, cache, or flight recorder counts can be folded into
one :class:`MetricsRegistry`, merged across parallel workers (plain
picklable data), and rendered as JSON or Prometheus-style text
exposition for scraping/CI artifacts.

Merge semantics are per-metric-type: counters add, gauges keep the
maximum (the registry is used for capacity-style gauges — workers,
utilization, ring occupancy — where max is the meaningful fold).

:func:`phase_span` is the profiling primitive: a context manager that
accumulates wall time into a ``phases`` mapping, which
``RunMetrics`` carries and the CLI prints under ``--stats``.
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Iterator, MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass, field

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


@dataclass
class Counter:
    """Monotonically increasing metric (merge: sum)."""

    name: str
    help: str = ""
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """Point-in-time metric (merge: max)."""

    name: str
    help: str = ""
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class MetricsRegistry:
    """Named collection of counters and gauges."""

    metrics: dict[str, Counter | Gauge] = field(default_factory=dict)

    # -- registration --------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        metric = self.metrics.get(name)
        if metric is None:
            metric = Counter(name=name, help=help)
            self.metrics[name] = metric
        elif not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a gauge."""
        metric = self.metrics.get(name)
        if metric is None:
            metric = Gauge(name=name, help=help)
            self.metrics[name] = metric
        elif not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is registered as a {metric.kind}")
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self.metrics

    def __getitem__(self, name: str) -> Counter | Gauge:
        return self.metrics[name]

    def __iter__(self) -> Iterator[Counter | Gauge]:
        return iter(self.metrics.values())

    def __len__(self) -> int:
        return len(self.metrics)

    # -- combination ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place).

        Counters add; gauges keep the maximum of the two values.
        """
        for name, metric in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                cls = type(metric)
                self.metrics[name] = cls(
                    name=metric.name, help=metric.help, value=metric.value
                )
            elif mine.kind != metric.kind:
                raise TypeError(
                    f"cannot merge {metric.kind} {name!r} into {mine.kind}"
                )
            elif isinstance(mine, Counter):
                mine.value += metric.value
            else:
                mine.value = max(mine.value, metric.value)
        return self

    @classmethod
    def merged(
        cls, registries: "Iterator[MetricsRegistry] | list[MetricsRegistry]"
    ) -> "MetricsRegistry":
        """Fold per-worker registries into one fleet-level registry.

        Same semantics as pairwise :meth:`merge` (counters add, gauges
        keep the max), applied left-to-right; the inputs are left
        untouched.  This is how :mod:`repro.cluster` combines the
        registries its shard workers ship back.
        """
        total = cls()
        for registry in registries:
            total.merge(registry)
        return total

    # -- rendering -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "value": metric.value,
            }
            for name, metric in sorted(self.metrics.items())
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one sample per metric)."""
        lines: list[str] = []
        for name, metric in sorted(self.metrics.items()):
            prom = _sanitize(name)
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            value = metric.value
            if isinstance(value, float) and value.is_integer():
                rendered = str(int(value))
            else:
                rendered = repr(value)
            lines.append(f"{prom} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")


def registry_from_run_metrics(
    run_metrics, prefix: str = "repro_"
) -> MetricsRegistry:
    """Absorb a :class:`~repro.experiments.metrics.RunMetrics` into a
    fresh registry (the ``--metrics-out`` export path).
    """
    reg = MetricsRegistry()
    counters = {
        "flows_total": (run_metrics.flows, "Flows simulated"),
        "events_total": (run_metrics.events, "Simulator events executed"),
        "packets_total": (run_metrics.packets, "Packets captured"),
        "chunks_total": (run_metrics.chunks, "Parallel chunks executed"),
        "chunks_retried_total": (
            run_metrics.chunks_retried,
            "Chunks re-run serially after a worker failure",
        ),
        "chunks_poisoned_total": (
            run_metrics.chunks_poisoned,
            "Chunks that failed every retry, serial parent included",
        ),
        "flows_skipped_total": (
            run_metrics.flows_skipped,
            "Flows quarantined under a tolerant error budget",
        ),
        "cache_hits_total": (run_metrics.cache_hits, "Dataset cache hits"),
        "cache_misses_total": (
            run_metrics.cache_misses,
            "Dataset cache misses",
        ),
        "cache_corruptions_total": (
            run_metrics.cache_corruptions,
            "Corrupted dataset cache entries dropped",
        ),
        "cache_store_failures_total": (
            run_metrics.cache_store_failures,
            "Dataset cache writes that failed (best-effort store)",
        ),
        "trace_events_total": (
            run_metrics.trace_events,
            "Flight-recorder events captured",
        ),
        "trace_events_dropped_total": (
            run_metrics.trace_events_dropped,
            "Flight-recorder events evicted from full rings",
        ),
    }
    for name, (value, help_text) in counters.items():
        reg.counter(prefix + name, help_text).inc(float(value))
    reg.gauge(prefix + "wall_time_seconds", "Run wall time").set(
        run_metrics.wall_time
    )
    reg.gauge(prefix + "workers", "Worker processes used").set(
        float(run_metrics.workers)
    )
    reg.gauge(prefix + "utilization", "Worker pool utilization").set(
        run_metrics.utilization
    )
    reg.gauge(
        prefix + "events_per_second", "Simulator event throughput"
    ).set(run_metrics.events_per_sec)
    for phase, seconds in sorted(run_metrics.phases.items()):
        reg.counter(
            f"{prefix}phase_{_sanitize(phase)}_seconds_total",
            f"Wall time spent in the {phase} phase",
        ).inc(seconds)
    return reg


#: HTTP content types of the two export formats (the ``/metrics``
#: endpoint and any scraper agree on these).
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_JSON = "application/json; charset=utf-8"


def render_exports(registry: MetricsRegistry) -> dict[str, str]:
    """Render every supported export format in one place.

    The single source of truth for metric serialization: the
    ``--metrics-out`` files (:func:`write_registry`) and the live
    daemon's ``/metrics`` endpoint both serve exactly these strings,
    so names and formatting can never drift between the two surfaces.
    Returns ``{"json": ..., "prom": ...}``.
    """
    return {
        "json": registry.to_json(indent=2),
        "prom": registry.render_prometheus(),
    }


def write_registry(registry: MetricsRegistry, prefix) -> tuple:
    """Write a registry to ``PREFIX.json`` and ``PREFIX.prom`` (the
    ``--metrics-out`` contract shared by every CLI); returns the two
    paths."""
    from pathlib import Path

    prefix = Path(prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    exports = render_exports(registry)
    json_path = prefix.with_suffix(".json")
    prom_path = prefix.with_suffix(".prom")
    json_path.write_text(exports["json"])
    prom_path.write_text(exports["prom"])
    return json_path, prom_path


@contextmanager
def phase_span(phases: MutableMapping[str, float], name: str):
    """Accumulate the wall time of the enclosed block into
    ``phases[name]`` (seconds, additive across entries)."""
    started = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + (
            time.perf_counter() - started
        )
