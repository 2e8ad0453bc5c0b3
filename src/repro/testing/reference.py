"""The record-level reference pipeline the parity tests compare to.

Production analysis demultiplexes column batches only
(:mod:`repro.core.columnar_pipeline`).  The object decode and object
demux it replaced — :meth:`PcapReader.iter_records
<repro.packet.pcap.PcapReader.iter_records>` and
:func:`repro.packet.flow.demux_stream` — remain as public record-level
API, and this helper chains them into the analyzer so a test (or a
benchmark's parity gate) can hold the columnar pipeline to them byte
for byte without any production switch selecting them.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from ..config import AnalysisConfig
from ..core.flow_analyzer import FlowAnalysis
from ..core.tapo import Tapo
from ..errors import FaultStats
from ..packet.flow import ServerPredicate, demux_stream
from ..packet.packet import PacketRecord


def reference_analyze(
    source: "str | Path | Iterable[PacketRecord]",
    config: AnalysisConfig | None = None,
    server_side: ServerPredicate | None = None,
    *,
    idle_timeout: float | None = None,
    close_linger: float | None = None,
) -> tuple[list[FlowAnalysis], FaultStats]:
    """Analyze ``source`` on packet objects; return ``(analyses, faults)``.

    A pcap path is decoded record by record, anything else is taken as
    the records themselves; either way the object demux builds plain
    :class:`~repro.packet.flow.FlowTrace`\\ s (batch semantics unless
    eviction clocks are given) and :meth:`Tapo.analyze_flow
    <repro.core.tapo.Tapo.analyze_flow>` runs on each under
    ``config.errors``, so quarantined flows and reader faults land in
    ``faults`` as they do in production.
    """
    tapo = Tapo(config=config)
    faults = FaultStats()

    def analyze(records: Iterable[PacketRecord]) -> list[FlowAnalysis]:
        flows = demux_stream(
            records,
            server_side,
            idle_timeout=idle_timeout,
            close_linger=close_linger,
        )
        return list(tapo._analyze_flows(flows, faults))

    if not isinstance(source, (str, Path)):
        return analyze(source), faults
    with tapo._open(source) as reader:
        analyses = analyze(reader.iter_records())
        reader.fold_faults(faults)
    return analyses, faults
