"""The supported public surface of :mod:`repro`, in one place.

Five verbs cover the pipeline, all configured through the two frozen
dataclasses in :mod:`repro.config` (``AnalysisConfig``, ``RunConfig``):

======================  =================================================
:func:`analyze`         pcap/packets -> list of classified flow analyses
:func:`analyze_stream`  unbounded source -> analyses as flows complete,
                        memory bounded by open-flow state, which grows
                        with each open connection's length
:func:`analyze_cluster` capture(s) -> merged report from an N-shard
                        worker fleet, byte-identical to a single
                        process (:class:`repro.cluster.Coordinator`
                        for full fleet control)
:func:`simulate`        service workloads -> simulated, analyzed dataset
:func:`report`          analyses / packet traces -> one ServiceReport
======================  =================================================

Everything listed in ``__all__`` is the stable API — re-exported both
here and lazily at the top level (``from repro import Tapo``); other
modules are implementation detail and may move.  The full surface:

* analyzer: ``Tapo``, ``FlowAnalysis``, ``ServiceReport``, ``Stall``,
  ``StallCause``, ``RetxCause``, ``DoubleKind``, ``CaState``;
* packets and flows: ``PacketRecord``, ``StreamStats``,
  ``server_by_ip``, ``server_by_port``;
* cluster: ``analyze_cluster``, ``Coordinator``, ``NetConfig``
  (cross-host listener mode), ``run_worker`` (dial-in worker loop);
* live monitoring: ``LiveDaemon``, ``WindowStore``, ``AlertRule``,
  ``watch_directory``;
* policy tournament: ``PolicyRegistry`` (the recovery-policy registry
  behind ``--policies``), the ``TRACKsPolicy`` / ``MobileLRPolicy``
  contenders, and the scenario x policy matrix — ``MatrixConfig``,
  ``run_matrix``, ``MatrixResult``;
* longitudinal results: ``ResultsStore``, ``TrendConfig``,
  ``trend_report``, ``merge_records``, ``render_dashboard``;
* configuration: ``AnalysisConfig``, ``RunConfig``;
* errors and budgets: ``ReproError``, ``ParseError``,
  ``FlowAnalysisError``, ``CacheError``, ``WorkerError``,
  ``PoisonTaskError``, ``AuthError`` (cluster handshake),
  ``ErrorBudget``, ``ErrorBudgetExceeded``, ``FaultStats``,
  ``SkippedFlow``.

Quickstart::

    from repro import api

    # Batch: small trace, everything in memory.
    for flow in api.analyze("trace.pcap"):
        print(flow.stall_ratio, [s.cause for s in flow.stalls])

    # Streaming: arbitrarily large trace, flat memory, 8 workers.
    from repro.config import RunConfig
    for flow in api.analyze_stream("huge.pcap",
                                   run=RunConfig(workers=8)):
        ...

    # Sharded: 4 worker processes, byte-identical merged report.
    merged = api.analyze_cluster("huge.pcap", shards=4)

Deprecation policy: renamed or superseded surface keeps working for at
least one minor release behind a shim that emits a single
``DeprecationWarning`` naming the replacement and the removal version;
see the "API stability & deprecation policy" section of the README.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from .config import AnalysisConfig, RunConfig
from .core.flow_analyzer import FlowAnalysis
from .core.report import ServiceReport
from .core.stalls import CaState, DoubleKind, RetxCause, Stall, StallCause
from .core.tapo import Tapo
from .errors import (
    CacheError,
    ErrorBudget,
    ErrorBudgetExceeded,
    FaultStats,
    FlowAnalysisError,
    ParseError,
    PoisonTaskError,
    ReproError,
    SkippedFlow,
    WorkerError,
)
from .packet.flow import (
    ServerPredicate,
    StreamStats,
    server_by_ip,
    server_by_port,
)
from .packet.packet import PacketRecord
from .tcp import MobileLRPolicy, PolicyRegistry, TRACKsPolicy

__all__ = [
    "AlertRule",
    "AnalysisConfig",
    "AuthError",
    "CaState",
    "CacheError",
    "Coordinator",
    "DoubleKind",
    "ErrorBudget",
    "ErrorBudgetExceeded",
    "FaultStats",
    "FlowAnalysis",
    "FlowAnalysisError",
    "LiveDaemon",
    "MatrixConfig",
    "MatrixResult",
    "MobileLRPolicy",
    "NetConfig",
    "PacketRecord",
    "ParseError",
    "PoisonTaskError",
    "PolicyRegistry",
    "ReproError",
    "ResultsStore",
    "RetxCause",
    "RunConfig",
    "ServiceReport",
    "SkippedFlow",
    "Stall",
    "StallCause",
    "StreamStats",
    "TRACKsPolicy",
    "Tapo",
    "TrendConfig",
    "WindowStore",
    "WorkerError",
    "analyze",
    "analyze_cluster",
    "analyze_stream",
    "merge_records",
    "render_dashboard",
    "report",
    "run_matrix",
    "run_worker",
    "server_by_ip",
    "server_by_port",
    "simulate",
    "trend_report",
    "watch_directory",
]


def __getattr__(name: str):
    """Resolve the cluster, live, matrix and results exports on first
    use, through the package's lazy export table: analyzing a capture
    never loads those subsystems."""
    from importlib import import_module

    from . import _EXPORTS

    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def analyze(
    source: str | Path | Iterable[PacketRecord],
    server_side: ServerPredicate | None = None,
    config: AnalysisConfig | None = None,
) -> list[FlowAnalysis]:
    """Analyze every flow of a pcap file or packet iterable (batch).

    Results are sorted by first packet time.  For traces that do not
    fit in memory, use :func:`analyze_stream`.
    """
    tapo = Tapo(config=config)
    if isinstance(source, (str, Path)):
        return tapo.analyze_pcap(source, server_side)
    return tapo.analyze_packets(source, server_side)


def analyze_stream(
    source,
    server_side: ServerPredicate | None = None,
    config: AnalysisConfig | None = None,
    *,
    run: RunConfig | None = None,
    stats: StreamStats | None = None,
    registry=None,
) -> Iterator[FlowAnalysis]:
    """Analyze an unbounded packet source with bounded memory.

    Yields each flow's analysis as the flow *completes* (FIN/RST close
    or idle timeout).  A pcap ``source`` (a path, a FIFO or
    ``/dev/stdin``) is read one window at a time, so memory is one read
    window plus open-flow state; a flow's rows are held until it
    closes, so that state grows with each open connection's length.
    ``run`` controls eviction bounds, worker processes, and
    backpressure; classifications are identical to :func:`analyze` on
    the same trace.  See :meth:`repro.core.tapo.Tapo.analyze_stream`.
    """
    return Tapo(config=config).analyze_stream(
        source, server_side, run=run, stats=stats, registry=registry
    )


def simulate(
    flows_per_service: int | None = None,
    seed: int | None = None,
    services: tuple[str, ...] | None = None,
    *,
    run: RunConfig | None = None,
):
    """Simulate the paper's service workloads and analyze them.

    Returns a :class:`repro.experiments.dataset.Dataset` with one
    simulated+analyzed :class:`ServiceReport` per service.  An argument
    left ``None`` takes
    :func:`~repro.experiments.dataset.build_dataset`'s default, the
    paper's dataset.  ``run`` controls worker processes and cache usage.
    """
    from .experiments.dataset import build_dataset

    given = {
        "flows_per_service": flows_per_service,
        "seed": seed,
        "services": services,
    }
    return build_dataset(
        **{name: value for name, value in given.items() if value is not None},
        run=run,
    )


def report(
    source,
    service: str = "trace",
    server_side: ServerPredicate | None = None,
    config: AnalysisConfig | None = None,
    *,
    run: RunConfig | None = None,
) -> ServiceReport:
    """Aggregate a packet source or analyses into one ServiceReport.

    ``source`` may be anything :func:`analyze_stream` accepts, or an
    iterable of already-computed :class:`FlowAnalysis` objects.  Packet
    sources stream through the bounded-memory pipeline, and the result
    equals a batch pass.
    """
    if not isinstance(source, (str, Path)):
        source = iter(source)
        first = next(source, None)
        if first is None:
            return ServiceReport(service=service)
        if isinstance(first, FlowAnalysis):
            result = ServiceReport(service=service)
            result.add(first)
            for analysis in source:
                result.add(analysis)
            return result
        source = _chain_one(first, source)
    return Tapo(config=config).report_stream(
        source, service=service, server_side=server_side, run=run
    )


def _chain_one(first, rest):
    yield first
    yield from rest
