"""repro: reproduction of "Demystifying and Mitigating TCP Stalls at
the Server Side" (Zhou et al., CoNEXT 2015).

The package provides:

* :mod:`repro.api` — the supported public surface (``analyze``,
  ``analyze_stream``, ``simulate``, ``report``);
* :mod:`repro.config` — frozen ``AnalysisConfig`` / ``RunConfig``;
* :mod:`repro.core` — TAPO, the passive TCP stall classifier;
* :mod:`repro.tcp` — a Linux-2.6.32-style TCP stack simulator with
  pluggable recovery policies (native RTO, TLP, the paper's S-RTO,
  T-RACKs, and Mobile-LR, all in a ``PolicyRegistry``);
* :mod:`repro.netsim` — a discrete-event network simulator with WAN,
  datacenter, and cellular path-condition models;
* :mod:`repro.matrix` — the scenario x policy tournament runner behind
  ``repro-paper matrix``;
* :mod:`repro.packet` — headers, pcap I/O, flow demuxing;
* :mod:`repro.workload` / :mod:`repro.app` — the three studied services;
* :mod:`repro.experiments` — harnesses regenerating every table and
  figure of the paper's evaluation;
* :mod:`repro.cluster` — sharded analysis fleet: N worker processes,
  one merged report byte-identical to a single-process run.

Quick start::

    from repro import api
    for flow in api.analyze("trace.pcap"):
        for stall in flow.stalls:
            print(stall.describe())

Attributes are imported lazily (PEP 562): ``import repro`` loads
nothing but this module, and ``repro.Tapo`` or ``from repro import
analyze`` pulls in just the subsystems they need.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "2.0.0"

#: Public attribute -> providing submodule.  Everything here is
#: importable both as ``repro.<name>`` and ``from repro import <name>``.
_EXPORTS = {
    # facade verbs + configs
    "analyze": "repro.api",
    "analyze_cluster": "repro.cluster",
    "analyze_stream": "repro.api",
    "simulate": "repro.api",
    "report": "repro.api",
    "AnalysisConfig": "repro.config",
    "RunConfig": "repro.config",
    # sharded cluster surface
    "AuthError": "repro.cluster",
    "Coordinator": "repro.cluster",
    "NetConfig": "repro.cluster",
    "run_worker": "repro.cluster",
    # error taxonomy + fault accounting
    "CacheError": "repro.errors",
    "ErrorBudget": "repro.errors",
    "ErrorBudgetExceeded": "repro.errors",
    "FaultStats": "repro.errors",
    "FlowAnalysisError": "repro.errors",
    "ParseError": "repro.errors",
    "PoisonTaskError": "repro.errors",
    "ReproError": "repro.errors",
    "SkippedFlow": "repro.errors",
    "WorkerError": "repro.errors",
    # analyzer surface
    "CaState": "repro.core",
    "DoubleKind": "repro.core",
    "FlowAnalysis": "repro.core",
    "RetxCause": "repro.core",
    "ServiceReport": "repro.core",
    "Stall": "repro.core",
    "StallCause": "repro.core",
    "Tapo": "repro.core",
    "analyze_pcap": "repro.core",
    # packet surface
    "PacketRecord": "repro.packet.packet",
    "StreamStats": "repro.packet.flow",
    "server_by_ip": "repro.packet.flow",
    "server_by_port": "repro.packet.flow",
    # simulator surface
    "EndpointConfig": "repro.tcp",
    "SRTOPolicy": "repro.tcp",
    "TLPPolicy": "repro.tcp",
    "TcpConnection": "repro.tcp",
    # policy tournament surface
    "MatrixConfig": "repro.matrix",
    "MatrixResult": "repro.matrix",
    "MobileLRPolicy": "repro.tcp",
    "PolicyRegistry": "repro.tcp",
    "TRACKsPolicy": "repro.tcp",
    "run_matrix": "repro.matrix",
    # live monitoring surface
    "AlertRule": "repro.live",
    "LiveDaemon": "repro.live",
    "WindowStore": "repro.live",
    "watch_directory": "repro.live",
    # longitudinal results surface
    "ResultsStore": "repro.results",
    "TrendConfig": "repro.results",
    "merge_records": "repro.results",
    "render_dashboard": "repro.results",
    "trend_report": "repro.results",
}

__all__ = sorted(_EXPORTS) + ["__version__", "api", "config"]

if TYPE_CHECKING:  # pragma: no cover - static-analysis imports only
    from .api import analyze, analyze_stream, report, simulate
    from .cluster import (
        AuthError,
        Coordinator,
        NetConfig,
        analyze_cluster,
        run_worker,
    )
    from .config import AnalysisConfig, RunConfig
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
    from .core import (
        CaState,
        DoubleKind,
        FlowAnalysis,
        RetxCause,
        ServiceReport,
        Stall,
        StallCause,
        Tapo,
        analyze_pcap,
    )
    from .live import AlertRule, LiveDaemon, WindowStore, watch_directory
    from .packet.flow import StreamStats, server_by_ip, server_by_port
    from .packet.packet import PacketRecord
    from .results import (
        ResultsStore,
        TrendConfig,
        merge_records,
        render_dashboard,
        trend_report,
    )
    from .matrix import MatrixConfig, MatrixResult, run_matrix
    from .tcp import (
        EndpointConfig,
        MobileLRPolicy,
        PolicyRegistry,
        SRTOPolicy,
        TcpConnection,
        TLPPolicy,
        TRACKsPolicy,
    )


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
