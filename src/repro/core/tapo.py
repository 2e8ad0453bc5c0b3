"""TAPO: the TCP stall diagnosis tool (the paper's contribution).

The facade ties the three components of Sec. 3.3 together:

1. reconstruction of the congestion state machine for each flow,
2. calculation of the Table 2 parameters by mimicking the TCP stack,
3. classification of stalls with the decision tree.

Inputs can be a pcap file, an in-memory packet list, or pre-demuxed
flows; output is a list of classified :class:`FlowAnalysis` objects or
a per-service :class:`ServiceReport`.

The engine underneath is *streaming* and *columnar*: every accepted
source becomes :class:`~repro.packet.columnar.PacketColumns` batches,
an incremental demuxer
(:func:`repro.core.columnar_pipeline.demux_columns_stream`) evicts
flows as they close, and completed flows — column-backed, replayed
without building packet objects, pickled as their columns — fan out to
analyzer workers with bounded in-flight chunks
(:class:`repro.experiments.parallel.AnalysisPool`).  Memory is bounded
by open-flow state, never by trace length.  The batch entry points
(:meth:`Tapo.analyze_packets`, :meth:`Tapo.analyze_pcap`,
:meth:`Tapo.report`) are thin wrappers over the same core with
eviction disabled; there a record list of one connection, what the
simulator hands over per flow, is its one flow without the demux.  The
record-level object demux (:func:`repro.packet.flow.demux_stream`) is
not used here; it is the reference
:func:`repro.testing.reference_analyze` holds this pipeline to.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from ..config import AnalysisConfig, RunConfig
from ..errors import (
    FaultStats,
    FlowAnalysisError,
    ReproError,
    SkippedFlow,
)
from ..packet.columnar import PacketColumns
from ..packet.flow import FlowTrace, ServerPredicate, StreamStats
from ..packet.packet import PacketRecord
from ..packet.pcap import PcapReader
from .classifier import classify_flow
from .columnar_pipeline import batch_records, demux_columns_stream, one_flow
from .flow_analyzer import FlowAnalysis, FlowAnalyzer
from .report import ServiceReport

#: Anything :meth:`Tapo.analyze_stream` accepts as a packet source: a
#: pcap path, an open reader, an iterable of records, an iterable of
#: record chunks (lists) as produced by ``PcapReader.iter_chunks``, or
#: an iterable of decoded :class:`PacketColumns` batches (what live
#: capture sources and cluster shards hand over).
PacketSource = (
    "str | Path | PcapReader | Iterable[PacketRecord] "
    "| Iterable[list[PacketRecord]] | Iterable[PacketColumns]"
)

#: Fault-injection seam (see :mod:`repro.testing.faults`): when set,
#: called as ``FLOW_HOOK(flow)`` before each flow's analysis and may
#: raise to simulate an analyzer crash.  Module state, so fork-based
#: worker pools inherit it.  Never set outside tests.
FLOW_HOOK = None


def _demux(
    source,
    server_side: ServerPredicate | None,
    *,
    idle_timeout: float | None = None,
    close_linger: float | None = None,
    stats: StreamStats | None = None,
) -> Iterator[FlowTrace]:
    """The one ingest path: shape any accepted packet source into
    column batches and demultiplex those.  Eviction is off unless the
    caller passes its clocks (batch semantics); then, with no
    :class:`StreamStats` to book, a one-connection record list is its
    one flow (:func:`one_flow`) and skips both."""
    if isinstance(source, PcapReader):
        batches = source.iter_columns()
    else:
        batch = idle_timeout is None and close_linger is None and stats is None
        flow = one_flow(source, server_side) if batch else None
        if flow is not None:
            return iter((flow,))
        batches = batch_records(source)
    return demux_columns_stream(
        batches,
        server_side,
        idle_timeout=idle_timeout,
        close_linger=close_linger,
        stats=stats,
    )


class Tapo:
    """TCP performance analysis tool.

    Parameters
    ----------
    config:
        An :class:`repro.config.AnalysisConfig` with the paper's
        knobs: ``tau`` (stall-threshold multiplier on SRTT),
        ``init_cwnd`` (initial shadow congestion window), and
        ``record_series`` (keep the per-ACK inferred kernel-variable
        time-series).
    """

    def __init__(self, config: AnalysisConfig | None = None):
        if config is not None and not isinstance(config, AnalysisConfig):
            raise TypeError(
                "Tapo(config) takes an AnalysisConfig, not "
                f"{type(config).__name__}"
            )
        self.config = config or AnalysisConfig()
        #: Fault accounting for the most recent multi-flow entry-point
        #: call (reset per call); quarantined flows live in
        #: ``faults.skipped``.
        self.faults = FaultStats()
        #: Flows the analyzer settled on its in-order branch (the fast
        #: replay), flows it promoted to its general loop, and flows
        #: whose packet objects were built from columns, for the most
        #: recent multi-flow call on *this* instance (worker processes
        #: count on their own instances).
        #: Diagnostic only — results are identical either way.
        self.fast_flows = 0
        self.fallback_flows = 0
        self.materialized_flows = 0

    def _reset(self) -> None:
        """Start a multi-flow call: fresh faults and flow counts."""
        self.faults = FaultStats()
        self.fast_flows = self.fallback_flows = self.materialized_flows = 0

    def _open(self, path: str | Path) -> PcapReader:
        return PcapReader(
            path,
            errors=self.config.errors,
            verify_checksums=self.config.verify_checksums,
        )

    def flow_counts(self) -> tuple[int, int, int]:
        """``(fast, replayed, materialized)`` flow counts."""
        return self.fast_flows, self.fallback_flows, self.materialized_flows

    def add_flow_counts(self, fast: int, replayed: int, materialized: int) -> None:
        """Fold in the counts of flows a worker process analyzed."""
        self.fast_flows += fast
        self.fallback_flows += replayed
        self.materialized_flows += materialized

    def flow_counts_to_registry(self, registry) -> None:
        """Export the flow counts — the fast-replay miss rate and what
        it costs in packet objects — to a metrics registry."""
        for name, help_text, value in zip(
            ("repro_flows_fast_total", "repro_flows_replayed_total",
             "repro_flows_materialized_total"),
            ("Flows settled on the analyzer's in-order branch",
             "Flows promoted to the analyzer's general loop",
             "Flows whose packet objects were built from columns"),
            self.flow_counts(),
        ):
            registry.counter(name, help_text).inc(value)

    @property
    def skipped_flows(self) -> list[SkippedFlow]:
        """Flows quarantined during the most recent analysis call."""
        return self.faults.skipped

    # -- single flow ------------------------------------------------------
    def analyze_flow(self, flow: FlowTrace) -> FlowAnalysis:
        """Analyze and classify one flow.

        One :class:`FlowAnalyzer` replays the flow's rows — off its
        columns for a columnar flow, so no packet object is built.  A
        flow it settles on its in-order branch counts as fast, one it
        had to promote as replayed (DESIGN.md 5.2).

        Any analyzer crash surfaces as a typed
        :class:`~repro.errors.FlowAnalysisError` carrying the flow key
        and the packet index the analyzer had reached; the multi-flow
        entry points turn that into a quarantined
        :class:`~repro.errors.SkippedFlow` under tolerant budgets.
        """
        analyzer: FlowAnalyzer | None = None
        try:
            if FLOW_HOOK is not None:
                FLOW_HOOK(flow)
            analyzer = FlowAnalyzer(flow, config=self.config)
            analysis = analyzer.run()
            classify_flow(analysis, analyzer.tracker)
            if analyzer.tracker is None:
                self.fast_flows += 1
            else:
                self.fallback_flows += 1
            if flow.materialized:
                self.materialized_flows += 1
        except ReproError:
            raise
        except Exception as exc:
            raise FlowAnalysisError(
                f"flow {flow.key} crashed the analyzer: "
                f"{type(exc).__name__}: {exc}",
                key=flow.key,
                packet_index=analyzer._fed if analyzer is not None else 0,
            ) from exc
        return analysis

    def _analyze_flows(
        self, flows: Iterable[FlowTrace], faults: FaultStats,
        enforce: bool = True,
    ) -> Iterator[FlowAnalysis]:
        """Analyze flows under the configured error budget.

        Strict budgets propagate the first
        :class:`~repro.errors.ReproError`; tolerant budgets quarantine
        the crashing flow into ``faults`` and continue.  ``enforce``
        applies ``budget:`` caps here — analyzer workers pass ``False``
        because only the parent sees run-wide fault totals.
        """
        budget = self.config.errors
        done = 0
        for flow in flows:
            done += 1
            try:
                yield self.analyze_flow(flow)
            except ReproError as exc:
                if not budget.tolerant:
                    raise
                faults.record_skip(
                    SkippedFlow.from_exception(
                        flow, exc, getattr(exc, "packet_index", None)
                    )
                )
                if enforce:
                    budget.check(
                        faults.flows_skipped, done, "quarantined flows"
                    )

    # -- packet streams ------------------------------------------------------
    def analyze_packets(
        self,
        packets: Iterable[PacketRecord],
        server_side: ServerPredicate | None = None,
    ) -> list[FlowAnalysis]:
        """Demux a packet stream into flows and analyze each.

        Batch semantics: every flow is held until end of stream and
        results come back sorted by first packet time — the streaming
        core with eviction disabled.
        """
        self._reset()
        flows = _demux(packets, server_side)
        return list(self._analyze_flows(flows, self.faults))

    def analyze_pcap(
        self,
        path: str | Path,
        server_side: ServerPredicate | None = None,
    ) -> list[FlowAnalysis]:
        """Analyze every flow in a pcap file.

        Packets never exist as objects: the file is decoded
        slab-by-slab into :class:`PacketColumns` batches,
        demultiplexed on the columns, and every flow — clean or
        stalled — is replayed on them.
        """
        with self._open(path) as reader:
            analyses = self.analyze_packets(reader, server_side)
            reader.fold_faults(self.faults)
            return analyses

    # -- streaming --------------------------------------------------------
    def analyze_stream(
        self,
        source,
        server_side: ServerPredicate | None = None,
        *,
        run: RunConfig | None = None,
        stats: StreamStats | None = None,
        registry=None,
    ) -> Iterator[FlowAnalysis]:
        """Analyze an unbounded packet source with bounded memory.

        ``source`` may be a pcap path, an open :class:`PcapReader`, an
        iterable of :class:`PacketRecord`, or an iterable of record
        chunks.  A pcap path may name a pipe or FIFO
        (``/dev/stdin``); a capture is read one window at a time
        (:meth:`PcapReader.iter_columns`), so resident memory is one
        read window plus open-flow state, whatever the capture size.
        Flows are yielded as they *complete* (FIN/RST close
        or ``run.idle_timeout`` of trace-time silence), not at end of
        stream; classifications are identical to
        :meth:`analyze_pcap` on the same trace, modulo yield order.

        With ``run.workers > 1``, completed flows fan out to a worker
        pool in chunks of ``run.chunk_flows``, with at most
        ``run.max_in_flight_chunks`` outstanding — when the bound is
        hit, the packet source is not read further until a chunk
        retires (backpressure).  Results arrive in flow-completion
        order for any worker count.

        ``stats`` (a :class:`~repro.packet.flow.StreamStats`) and
        ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`)
        expose flows-evicted / in-flight-chunk / peak-buffered-packet
        counters for observability.
        """
        from ..experiments.parallel import AnalysisPool

        run = run or RunConfig()
        self._reset()
        opened: PcapReader | None = None
        if isinstance(source, (str, Path)):
            source = opened = self._open(source)
        stream_stats = stats if stats is not None else StreamStats()
        pool = AnalysisPool(
            config=self.config,
            workers=run.workers,
            chunk_flows=run.chunk_flows,
            max_in_flight=run.max_in_flight_chunks,
            max_retries=run.max_retries,
            retry_backoff=run.retry_backoff,
            faults=self.faults,
            analyzer=self,
        )
        flows = _demux(
            source,
            server_side,
            idle_timeout=run.idle_timeout,
            close_linger=run.close_linger,
            stats=stream_stats,
        )
        try:
            yield from pool.map_stream(flows)
        finally:
            if isinstance(source, PcapReader):
                source.fold_faults(self.faults)
            if registry is not None:
                stream_stats.to_registry(registry)
                pool.stats.to_registry(registry)
                self.faults.to_registry(registry)
                self.flow_counts_to_registry(registry)
            if opened is not None:
                opened.close()

    def report_stream(
        self,
        source,
        service: str = "trace",
        server_side: ServerPredicate | None = None,
        *,
        run: RunConfig | None = None,
        stats: StreamStats | None = None,
        registry=None,
    ) -> ServiceReport:
        """Stream-analyze ``source`` into one :class:`ServiceReport`.

        Each analysis is added as its flow completes, so the result
        equals a single-pass batch report over the same flows.
        """
        report = ServiceReport(service=service)
        for analysis in self.analyze_stream(
            source, server_side, run=run, stats=stats, registry=registry
        ):
            report.add(analysis)
        report.skipped.extend(self.faults.skipped)
        return report

    # -- services --------------------------------------------------------------
    def report(
        self,
        traces: Iterable[list[PacketRecord]],
        service: str = "trace",
    ) -> ServiceReport:
        """Analyze per-connection traces into a service report.

        ``traces`` is an iterable of already-separated per-connection
        packet lists (the shape the simulator produces); mixed streams
        should go through :meth:`analyze_packets` instead.
        """
        self._reset()
        report = ServiceReport(service=service)
        # One error-budget run over every trace's flows, so a fractional
        # budget sees the whole call's units, as in analyze_packets.
        flows = chain.from_iterable(
            _demux(packets, None) for packets in traces
        )
        for analysis in self._analyze_flows(flows, self.faults):
            report.add(analysis)
        report.skipped.extend(self.faults.skipped)
        return report


def analyze_pcap(
    path: str | Path,
    config: AnalysisConfig | None = None,
) -> list[FlowAnalysis]:
    """Module-level convenience wrapper around :class:`Tapo`."""
    return Tapo(config=config).analyze_pcap(path)
