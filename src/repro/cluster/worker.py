"""Shard worker: one process, one flow-hash shard of the capture.

A worker is shared-nothing: it opens the capture itself, decodes it
slab-by-slab into column batches, keeps only the rows whose flow
hashes to its shard (:meth:`PacketColumns.select_shard
<repro.packet.columnar.PacketColumns.select_shard>`), and runs the
ordinary streaming pipeline (:meth:`Tapo.analyze_stream
<repro.core.tapo.Tapo.analyze_stream>`) over what remains.  Because
sharding is per *flow* (both directions of a connection hash
identically), each worker sees complete flows and its analyses are
bit-identical to what a single-process run produces for those flows.
The flows in the result stay column-backed: a lazy flow owns its own
per-flow arrays (not views into a decode slab) and pickles as those,
so the RESULT frame carries no packet objects.

The shard's product is one :class:`ShardResult` — a canonically sorted
partial :class:`~repro.core.report.ServiceReport`, the worker's
:class:`~repro.obs.metrics.MetricsRegistry`, and its
:class:`~repro.errors.FaultStats` — shipped back over the cluster
protocol as a single RESULT frame, with PROGRESS frames (per-shard
packet offsets) along the way.

``run_shard`` is also callable in-process: the coordinator uses it
directly for ``shards=1`` runs and as the last-resort fallback when a
shard's worker keeps dying.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from ..config import AnalysisConfig, RunConfig
from ..core.report import ServiceReport
from ..core.tapo import Tapo
from ..errors import FaultStats
from ..obs.metrics import MetricsRegistry
from ..packet.columnar import PacketColumns
from ..packet.flow import StreamStats, server_by_ip, server_by_port
from ..packet.pcap import PcapReader
from .protocol import MessageKind, Transport

#: Environment seam for the CI worker-death smoke: when set to a shard
#: number, that shard's worker dies (``os._exit``) right before sending
#: its RESULT — but only once, guarded by a sentinel file in
#: ``REPRO_CLUSTER_KILL_DIR`` — so the run exercises death detection,
#: retry, and still terminates.  Mirrors
#: :func:`repro.testing.faults.kill_worker_once`.
KILL_SHARD_ENV = "REPRO_CLUSTER_KILL_SHARD"
KILL_DIR_ENV = "REPRO_CLUSTER_KILL_DIR"

#: Send a PROGRESS frame at most every this many decoded packets.
PROGRESS_EVERY = 262_144


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to produce its shard, picklable.

    ``server_ip`` / ``server_port`` replace the in-process
    server-predicate callable (closures don't ship); the worker
    rebuilds the predicate locally.
    """

    paths: tuple[str, ...]
    shard: int
    n_shards: int
    service: str = "cluster"
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    run: RunConfig = field(default_factory=RunConfig)
    server_ip: int | None = None
    server_port: int | None = None

    def server_side(self):
        if self.server_ip is not None:
            return server_by_ip(self.server_ip)
        if self.server_port is not None:
            return server_by_port(self.server_port)
        return None


@dataclass
class ShardProgress:
    """One PROGRESS frame: how far into its inputs a shard has read."""

    shard: int
    path_index: int = 0
    packets_decoded: int = 0
    packets_kept: int = 0
    flows_done: int = 0

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "path_index": self.path_index,
            "packets_decoded": self.packets_decoded,
            "packets_kept": self.packets_kept,
            "flows_done": self.flows_done,
        }


@dataclass
class ShardResult:
    """One shard's finished product, shipped in the RESULT frame.

    ``faults`` needs care when merging: its flow-level fields
    (``flows_skipped``, ``tasks_*``, ``skipped``) are disjoint across
    shards and sum, but its reader-level fields (``corrupt_records``,
    ``resyncs``, option/checksum counters) describe the *whole
    capture*, which every worker decodes independently — summing those
    would count each fault once per shard.  The coordinator takes
    reader-level counts from a single shard (they are deterministic
    and identical) and sums the rest.
    """

    shard: int
    report: ServiceReport
    registry: MetricsRegistry
    faults: FaultStats
    stream: dict
    progress: ShardProgress


def run_shard(
    spec: ShardSpec,
    progress_sink: Callable[[ShardProgress], None] | None = None,
) -> ShardResult:
    """Analyze one shard of the capture(s) and build its result.

    Runs with batch demux semantics (no idle/linger eviction): a shard
    worker sees only its own flows' packets, so eviction clocks driven
    by the full stream cannot be reproduced per-shard — and without
    eviction, flow boundaries (and therefore analyses) are provably
    identical to a single-process batch run.  Memory is bounded by the
    shard's open flows, i.e. roughly ``1/n_shards`` of the trace's.
    """
    config = spec.analysis
    run = spec.run.replace(
        workers=1, idle_timeout=None, close_linger=None
    )
    tapo = Tapo(config=config)
    server_side = spec.server_side()
    registry = MetricsRegistry()
    stats = StreamStats()
    progress = ShardProgress(shard=spec.shard)
    reader_faults = FaultStats()

    def batches() -> Iterator[PacketColumns]:
        since_report = 0
        for path_index, path in enumerate(spec.paths):
            progress.path_index = path_index
            with PcapReader(
                path,
                errors=config.errors,
                verify_checksums=config.verify_checksums,
            ) as reader:
                for cols in reader.iter_columns():
                    progress.packets_decoded += len(cols)
                    since_report += len(cols)
                    kept = cols.select_shard(spec.shard, spec.n_shards)
                    progress.packets_kept += len(kept)
                    if len(kept):
                        yield kept
                    if (
                        progress_sink is not None
                        and since_report >= PROGRESS_EVERY
                    ):
                        since_report = 0
                        progress_sink(progress)
                reader.fold_faults(reader_faults)

    report = tapo.report_stream(
        batches(), spec.service, server_side,
        run=run, stats=stats, registry=registry,
    )
    progress.flows_done = len(report.flows)
    report.canonical_sort()
    report.tag_provenance(f"shard-{spec.shard}")

    faults = FaultStats()
    faults.merge(tapo.faults)
    faults.merge(reader_faults)
    reader_faults.to_registry(registry)
    return ShardResult(
        shard=spec.shard,
        report=report,
        registry=registry,
        faults=faults,
        stream={
            "packets": stats.packets,
            "flows_total": stats.flows_total,
            "peak_buffered_packets": stats.peak_buffered_packets,
            "peak_active_flows": stats.peak_active_flows,
        },
        progress=progress,
    )


@contextlib.contextmanager
def heartbeat_pump(transport: Transport, shard: int,
                   interval: float | None):
    """Send HEARTBEAT frames every ``interval`` seconds while active.

    Runs on a daemon thread so a worker deep in a decode slab still
    proves liveness; :meth:`Transport.send` serializes whole frames, so
    beacons never interleave with PROGRESS/RESULT bytes.  A send
    failure ends the pump silently — the main loop will hit the same
    broken channel and surface it properly.  ``interval`` of ``None``
    or ``<= 0`` disables the pump.
    """
    if not interval or interval <= 0:
        yield
        return
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                transport.send(
                    MessageKind.HEARTBEAT,
                    {"shard": shard, "pid": os.getpid()},
                )
            except Exception:
                return

    thread = threading.Thread(
        target=loop, name="repro-cluster-heartbeat", daemon=True
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=max(1.0, 2 * interval))


def _maybe_die(shard: int) -> None:
    """Honor the kill-once injection seam (see :data:`KILL_SHARD_ENV`)."""
    target = os.environ.get(KILL_SHARD_ENV)
    if target is None or int(target) != shard:
        return
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if not kill_dir:
        return
    sentinel = Path(kill_dir) / "cluster_kill_once.sentinel"
    try:
        sentinel.touch(exist_ok=False)
    except FileExistsError:
        return
    os._exit(42)
