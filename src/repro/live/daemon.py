"""The live monitoring daemon: sources -> analysis -> windows -> serving.

:class:`LiveDaemon` wires the subsystem together around the existing
streaming analyzer:

* a :class:`~repro.live.sources.LiveSource` is pumped through
  :meth:`repro.core.tapo.Tapo.analyze_stream` by a generator that
  polls for new bytes, sleeps briefly when there are none, and — on
  stop/exhaustion — finalizes the source so the demuxer flushes every
  open flow (backpressure is inherited from the streaming pipeline:
  the pump is only pulled when the analyzer wants packets);
* each completed :class:`~repro.core.flow_analyzer.FlowAnalysis` and
  each quarantined :class:`~repro.errors.SkippedFlow` folds into a
  :class:`~repro.live.windows.WindowStore` under a lock the HTTP
  snapshot handlers share;
* an :class:`~repro.live.alerts.AlertEngine` re-evaluates after every
  absorbed flow; state-change events go to the log and the alert sink.

**Shutdown.** SIGTERM/SIGINT (or :meth:`LiveDaemon.stop`) makes the
pump finalize the source instead of waiting for growth: remaining
bytes drain, the demuxer evicts every open flow, the analyzer yields
them, and the final all-windows report — plus a checkpoint — is
flushed.  A graceful shutdown therefore loses nothing, and the
flushed ``windows`` report is byte-identical to :func:`batch_report`
over the same packets.

**Checkpoint/resume.** A checkpoint atomically (tmp + rename) pairs
the source's consumed offsets with the window-store and alert-engine
state.  After a crash, resume re-reads from the checkpointed offsets:
no completed window is lost and no record is replayed into a window
twice.  The one caveat: flows *open* in the demuxer at checkpoint
time straddle the cut — their pre-checkpoint packets were consumed,
so after a hard crash those flows are analyzed from their
post-checkpoint tail only.  Completed-window data is never affected.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from collections import deque
from collections.abc import Iterator
from pathlib import Path

from ..config import AnalysisConfig, RunConfig
from ..core.tapo import Tapo
from ..errors import FaultStats
from ..obs.metrics import MetricsRegistry
from ..packet.flow import StreamStats
from ..packet.pcap import PcapReader
from ..persist import atomic_write
from ..results.dashboard import render_dashboard
from ..results.trends import trend_report
from .alerts import AlertEngine, AlertRule
from .http import LiveHTTPServer
from .sources import (
    LiveSource,
    PcapTailSource,
    RotatingDirectorySource,
    StdinSource,
)
from .windows import WindowStore

logger = logging.getLogger("repro.live")

#: Checkpoint schema version (the daemon-level envelope).
CHECKPOINT_VERSION = 1

_SOURCE_TYPES = {
    PcapTailSource.name: PcapTailSource,
    RotatingDirectorySource.name: RotatingDirectorySource,
}


class LiveDaemon:
    """Continuous stall monitoring over a live capture source.

    Parameters mirror the batch pipeline where they overlap
    (``analysis``, ``run``, ``server_side``); the rest are the live
    knobs: window geometry, alert rules, HTTP serving, checkpointing,
    and pacing.  ``http_port``/``http_host`` of ``None`` disables the
    endpoint; port ``0`` binds an ephemeral port (see
    :attr:`http.port <repro.live.http.LiveHTTPServer.port>`).
    """

    def __init__(
        self,
        source: LiveSource,
        *,
        window_seconds: float = 60.0,
        retention: int = 120,
        top_k: int = 10,
        service: str = "live",
        analysis: AnalysisConfig | None = None,
        run: RunConfig | None = None,
        server_side=None,
        rules: "list[AlertRule] | tuple[AlertRule, ...]" = (),
        alert_sink=None,
        http_host: str | None = None,
        http_port: int | None = None,
        checkpoint_path: "str | Path | None" = None,
        checkpoint_interval: float = 30.0,
        poll_interval: float = 0.5,
        once: bool = False,
        resume: bool = False,
        results_store=None,
        alert_history: int = 200,
    ):
        self.source = source
        self.analysis = analysis or AnalysisConfig()
        self.run_config = run or RunConfig()
        self.server_side = server_side
        self.tapo = Tapo(config=self.analysis)
        self.store = WindowStore(
            window_seconds=window_seconds,
            retention=retention,
            top_k=top_k,
            service=service,
        )
        self.engine = AlertEngine(rules, sink=alert_sink)
        self.stats = StreamStats()
        self.poll_interval = poll_interval
        self.once = once
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_interval = checkpoint_interval
        self._last_checkpoint = 0.0
        #: Wall-clock time of the last checkpoint write (None before
        #: the first) — /healthz reports the age.
        self._last_checkpoint_wall: float | None = None
        #: Longitudinal results store (:class:`repro.results.store.
        #: ResultsStore` or None): one "live" record per expired
        #: (final) window, plus a totals record at shutdown.
        self.results = results_store
        #: Recent alert state-change events, newest last (served on the
        #: dashboard; bounded so memory is O(alert_history)).
        self.alert_history: deque = deque(maxlen=alert_history)
        self.records_in = 0
        self.flows_seen = 0
        self.checkpoints_written = 0
        self._skips_absorbed = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._previous_handlers: dict = {}
        self._started_at: float | None = None
        self._finished = False
        self.http: LiveHTTPServer | None = None
        if http_port is not None or http_host is not None:
            self.http = LiveHTTPServer(
                self,
                host=http_host or "127.0.0.1",
                port=http_port or 0,
            )
        self.store.on_expire = self._flush_window
        if resume:
            self._try_resume()

    # -- results-store flushes -----------------------------------------
    def _flush_window(self, window) -> None:
        """Append one expired (final) window to the results store.

        Called by the window store the moment a window can no longer
        change, so every record is the window's final word.  Append
        failures are logged and swallowed: the longitudinal store must
        never take down live monitoring.
        """
        if self.results is None:
            return
        rendered = window.to_dict()
        causes = {
            name: entry["time_share"]
            for name, entry in rendered["causes"].items()
        }
        try:
            self.results.append(
                "live",
                f"{self.store.service}_window",
                metrics={
                    key: rendered[key]
                    for key in (
                        "flows", "flows_with_stalls", "skipped",
                        "coverage", "stalls", "stall_time",
                        "stall_ratio", "transmission_time", "bytes_out",
                        "data_packets", "retransmissions", "timeouts",
                    )
                },
                causes=causes,
                config=self.analysis,
                meta={
                    "bucket": rendered["bucket"],
                    "start": rendered["start"],
                    "end": rendered["end"],
                },
            )
        except OSError:
            logger.exception("results-store append failed; continuing")

    def _flush_totals(self) -> None:
        """Append the all-time totals record at shutdown."""
        if self.results is None:
            return
        totals = self.store.total().to_dict()
        causes = {
            name: entry["time_share"]
            for name, entry in totals["causes"].items()
        }
        faults = self._faults_snapshot()
        try:
            self.results.append(
                "live",
                f"{self.store.service}_totals",
                metrics={
                    key: totals[key]
                    for key in (
                        "flows", "flows_with_stalls", "skipped",
                        "coverage", "stalls", "stall_time",
                        "stall_ratio", "transmission_time", "bytes_out",
                        "data_packets", "retransmissions", "timeouts",
                    )
                },
                causes=causes,
                faults={
                    "corrupt_records": faults.corrupt_records,
                    "resyncs": faults.resyncs,
                    "option_errors": faults.option_errors,
                    "checksum_errors": faults.checksum_errors,
                    "flows_skipped": faults.flows_skipped,
                },
                wall_time=(
                    time.monotonic() - self._started_at
                    if self._started_at is not None
                    else None
                ),
                config=self.analysis,
                meta={
                    "records_in": self.records_in,
                    "alert_events": self.engine.events_emitted,
                },
            )
        except OSError:
            logger.exception("results-store append failed; continuing")

    # -- resume --------------------------------------------------------
    def _try_resume(self) -> None:
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return
        state = json.loads(self.checkpoint_path.read_text())
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {state.get('version')!r}"
            )
        self.store = WindowStore.restore(state["windows"])
        self.store.on_expire = self._flush_window
        self.engine.restore(state["alerts"])
        counters = state["counters"]
        self.records_in = counters["records_in"]
        self.flows_seen = counters["flows_seen"]
        source_state = state["source"]
        source_cls = _SOURCE_TYPES.get(source_state.get("type"))
        if source_cls is not None and source_state["type"] == self.source.name:
            self.source.close()
            self.source = source_cls.restore(
                source_state, errors=self.analysis.errors
            )
        logger.info(
            "resumed from %s: %d records, %d flows, %d live windows",
            self.checkpoint_path,
            self.records_in,
            self.flows_seen,
            len(self.store.windows()),
        )

    # -- control -------------------------------------------------------
    def stop(self) -> None:
        """Request graceful shutdown (idempotent, signal-safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to :meth:`stop` (main thread only) until
        :meth:`run` returns, which puts the previous handlers back — a
        process that goes on to fork workers must not hand them a
        handler that swallows ``terminate()``."""

        def handler(signum, frame):
            logger.info(
                "received %s; flushing final report",
                signal.Signals(signum).name,
            )
            self.stop()

        for signum in (signal.SIGTERM, signal.SIGINT):
            self._previous_handlers[signum] = signal.signal(signum, handler)

    # -- the pump ------------------------------------------------------
    def _batches(self) -> Iterator:
        """Feed the analyzer: poll for growth, sleep when idle, and on
        stop/exhaustion finalize the source (drains its tail).

        Each poll hands over
        :class:`~repro.packet.columnar.PacketColumns` batches — one per
        drained slab, so latency is that of a poll, not of a packet.
        """
        source = self.source
        while True:
            produced = False
            for batch in source.poll_columns():
                produced = True
                self.records_in += len(batch)
                yield batch
            if self._stop.is_set() or self.once or source.exhausted:
                for batch in source.finish_columns():
                    self.records_in += len(batch)
                    yield batch
                return
            self._maybe_checkpoint()
            if not produced:
                # Nothing new; wait in short slices so stop() is
                # honored promptly even mid-sleep.
                deadline = time.monotonic() + self.poll_interval
                while (
                    not self._stop.is_set()
                    and time.monotonic() < deadline
                ):
                    time.sleep(min(0.05, self.poll_interval))

    # -- absorption ----------------------------------------------------
    def _absorb_locked(self, analysis=None) -> list[dict]:
        """Fold new results into the store; returns alert events."""
        if analysis is not None:
            self.store.add(analysis)
            self.flows_seen += 1
        skipped = self.tapo.faults.skipped
        while self._skips_absorbed < len(skipped):
            self.store.add_skip(skipped[self._skips_absorbed])
            self._skips_absorbed += 1
        return self.engine.evaluate(self.store)

    def _log_events(self, events: list[dict]) -> None:
        self.alert_history.extend(events)
        for event in events:
            level = (
                logging.WARNING
                if event["state"] == "firing"
                else logging.INFO
            )
            logger.log(
                level,
                "alert %s %s: %s = %.6g (threshold %s %g)",
                event["alert"],
                event["state"],
                event["metric"],
                event["value"],
                "breach" if event["state"] == "firing" else "clear",
                event["threshold"],
            )

    # -- main loop -----------------------------------------------------
    def run(self) -> dict:
        """Run until stopped (or, with ``once=True``, until the source
        is drained); returns the final flushed report."""
        self._started_at = time.monotonic()
        if self.http is not None:
            self.http.start()
            logger.info("serving on %s", self.http.url)
        try:
            stream = self.tapo.analyze_stream(
                self._batches(),
                self.server_side,
                run=self.run_config,
                stats=self.stats,
            )
            for analysis in stream:
                with self._lock:
                    events = self._absorb_locked(analysis)
                self._log_events(events)
                self._maybe_checkpoint()
            with self._lock:
                events = self._absorb_locked()
            self._log_events(events)
        finally:
            self._finished = True
            self._flush_totals()
            self.write_checkpoint()
            report = self.report()
            if self.http is not None:
                self.http.stop()
            self.source.close()
            while self._previous_handlers:
                signal.signal(*self._previous_handlers.popitem())
        return report

    # -- checkpointing -------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        now = time.monotonic()
        if now - self._last_checkpoint >= self.checkpoint_interval:
            self.write_checkpoint()

    def write_checkpoint(self) -> None:
        """Atomically persist source offsets + window + alert state."""
        if self.checkpoint_path is None:
            return
        with self._lock:
            state = {
                "version": CHECKPOINT_VERSION,
                "source": self.source.checkpoint(),
                "windows": self.store.checkpoint(),
                "alerts": self.engine.checkpoint(),
                "counters": {
                    "records_in": self.records_in,
                    "flows_seen": self.flows_seen,
                },
            }
        atomic_write(self.checkpoint_path, json.dumps(state, sort_keys=True))
        self._last_checkpoint = time.monotonic()
        self._last_checkpoint_wall = time.time()
        self.checkpoints_written += 1

    # -- snapshot surface (shared with the HTTP handlers) --------------
    def _faults_snapshot(self) -> FaultStats:
        faults = FaultStats()
        faults.merge(self.tapo.faults)
        self.source.fold_faults(faults)
        return faults

    def health(self) -> dict:
        now = time.time()
        with self._lock:
            # Wedge detectors: how stale is each durability surface?
            checkpoint_age = (
                now - self._last_checkpoint_wall
                if self._last_checkpoint_wall is not None
                else None
            )
            # Trace time of the newest completed-window edge — the
            # last moment windowed data advanced.
            last_flush = (
                (self.store.max_bucket + 1) * self.store.window_seconds
                if self.store.max_bucket is not None
                else None
            )
            store_age = (
                now - self.results.last_append_ts
                if self.results is not None
                and self.results.last_append_ts is not None
                else None
            )
            return {
                "status": "ok",
                "finished": self._finished,
                "stopping": self._stop.is_set(),
                "source": self.source.name,
                "records_in": self.records_in,
                "flows": self.flows_seen,
                "flows_skipped": self._skips_absorbed,
                "windows_active": len(self.store.windows()),
                "max_bucket": self.store.max_bucket,
                "alerts_active": self.engine.active(),
                "uptime_seconds": (
                    time.monotonic() - self._started_at
                    if self._started_at is not None
                    else 0.0
                ),
                "checkpoint_age_seconds": checkpoint_age,
                "checkpoints_written": self.checkpoints_written,
                "last_window_flush_trace_time": last_flush,
                "results_store": (
                    str(self.results.path)
                    if self.results is not None
                    else None
                ),
                "results_records_appended": (
                    self.results.records_appended
                    if self.results is not None
                    else 0
                ),
                "store_append_age_seconds": store_age,
            }

    def metrics_registry(self) -> MetricsRegistry:
        """One registry for both ``/metrics`` and ``--metrics-out``."""
        registry = MetricsRegistry()
        with self._lock:
            self.stats.to_registry(registry)
            self._faults_snapshot().to_registry(registry)
            self.store.to_registry(registry)
            self.tapo.flow_counts_to_registry(registry)
            registry.counter(
                "repro_live_records_total", "Packet records ingested"
            ).inc(self.records_in)
            registry.counter(
                "repro_live_checkpoints_total", "Checkpoints written"
            ).inc(self.checkpoints_written)
            registry.counter(
                "repro_live_alert_events_total",
                "Alert state-change events emitted",
            ).inc(self.engine.events_emitted)
            registry.counter(
                "repro_alerts_emitted_total",
                "Alert state-change events emitted (canonical name)",
            ).inc(self.engine.events_emitted)
            sink = self.engine.sink
            if sink is not None and hasattr(sink, "rotations"):
                registry.counter(
                    "repro_alert_sink_rotations_total",
                    "Size-bounded alert-log rotations performed",
                ).inc(sink.rotations)
            if self.results is not None:
                registry.counter(
                    "repro_results_records_appended_total",
                    "Records appended to the longitudinal results store",
                ).inc(self.results.records_appended)
            registry.gauge(
                "repro_live_alerts_active", "Alert rules currently firing"
            ).set(float(len(self.engine.active())))
            registry.gauge(
                "repro_live_source_offset_bytes",
                "Consumed byte offset of the current capture file",
            ).set(float(getattr(self.source, "offset", 0)))
            registry.gauge(
                "repro_live_files_completed",
                "Rotated capture files fully processed",
            ).set(float(getattr(self.source, "files_completed", 0)))
        return registry

    def report(self) -> dict:
        """The serving/flush shape: a deterministic ``windows`` section
        (pure trace state — what :func:`batch_report` reproduces
        byte-for-byte) plus a ``runtime`` section of process facts."""
        with self._lock:
            faults = self._faults_snapshot()
            return {
                "windows": self.store.report(),
                "runtime": {
                    "source": self.source.name,
                    "records_in": self.records_in,
                    "flows": self.flows_seen,
                    "flows_skipped": self._skips_absorbed,
                    "corrupt_records": faults.corrupt_records,
                    "resyncs": faults.resyncs,
                    "option_errors": faults.option_errors,
                    "alerts_active": self.engine.active(),
                    "alert_events": self.engine.events_emitted,
                    "checkpoints_written": self.checkpoints_written,
                    "finished": self._finished,
                },
            }

    # -- longitudinal surface (dashboard endpoints) --------------------
    def runs(self) -> list:
        """All records of the attached results store (lenient load, so
        a damaged store still serves what survives); ``[]`` without
        one.  Served at ``/runs.json``."""
        if self.results is None:
            return []
        from ..errors import ErrorBudget

        return self.results.load(errors=ErrorBudget.lenient())

    def trends(self) -> dict:
        """Trend report over the attached results store (the
        ``/trends.json`` shape)."""
        return trend_report(self.runs())

    def dashboard_html(self) -> str:
        """The full operator dashboard (the ``/dashboard`` page)."""
        runs = self.runs()
        return render_dashboard(
            title=f"repro live · {self.store.service}",
            subtitle=f"source: {self.source.name}",
            health=self.health(),
            report=self.report()["windows"],
            trends=trend_report(runs),
            runs=runs,
            alerts=list(self.alert_history),
        )


def batch_report(
    paths,
    *,
    window_seconds: float = 60.0,
    retention: int = 120,
    top_k: int = 10,
    service: str = "live",
    analysis: AnalysisConfig | None = None,
    run: RunConfig | None = None,
    server_side=None,
) -> dict:
    """One-shot batch equivalent of the daemon's ``windows`` report.

    Reads the finished capture files (in the given order — pass them
    sorted by rotation name to mirror the directory watcher), streams
    them through one analyzer exactly like the daemon's single demux
    stream, and folds the results into an identically-configured
    :class:`~repro.live.windows.WindowStore`.  Because every window
    aggregate is order-independent (integer arithmetic, total-order
    top-K), the returned dict is byte-identical to what a daemon run
    over the same packets flushes — the equivalence the live-smoke CI
    job asserts.
    """
    analysis = analysis or AnalysisConfig()
    tapo = Tapo(config=analysis)
    store = WindowStore(
        window_seconds=window_seconds,
        retention=retention,
        top_k=top_k,
        service=service,
    )

    def batches():
        for path in paths:
            with PcapReader(path, errors=analysis.errors) as reader:
                yield from reader.iter_columns()

    for flow_analysis in tapo.analyze_stream(
        batches(), server_side, run=run or RunConfig()
    ):
        store.add(flow_analysis)
    for skipped in tapo.faults.skipped:
        store.add_skip(skipped)
    return store.report()


def watch_directory(
    directory,
    pattern: str = "*.pcap",
    *,
    errors=None,
    **daemon_kwargs,
) -> LiveDaemon:
    """Convenience constructor: a daemon watching a rotating-capture
    directory.  ``errors`` (an :class:`~repro.errors.ErrorBudget` or
    spec string) applies to both parsing and analysis; remaining
    keywords go to :class:`LiveDaemon`."""
    analysis = daemon_kwargs.pop("analysis", None) or AnalysisConfig()
    if errors is not None:
        from ..errors import ErrorBudget

        analysis = analysis.replace(errors=ErrorBudget.parse(errors))
    source = RotatingDirectorySource(
        directory, pattern=pattern, errors=analysis.errors
    )
    return LiveDaemon(source, analysis=analysis, **daemon_kwargs)


def open_source(spec, *, pattern: str = "*.pcap", errors=None) -> LiveSource:
    """Resolve a CLI source spec: ``-`` = stdin, a directory = rotating
    watcher, anything else = follow-mode tail of a single pcap."""
    if spec == "-":
        return StdinSource(errors=errors)
    path = Path(spec)
    if path.is_dir():
        return RotatingDirectorySource(path, pattern=pattern, errors=errors)
    return PcapTailSource(path, errors=errors)
