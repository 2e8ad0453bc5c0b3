"""Cluster coordinator: shard a capture across worker processes.

The coordinator composes primitives the rest of the codebase already
proves out — associative :meth:`ServiceReport.merge
<repro.core.report.ServiceReport.merge>`, deterministic flow-hash
sharding (:func:`repro.packet.flow.flow_shard`), the streaming
analysis pipeline, mergeable :class:`~repro.obs.metrics.MetricsRegistry`
objects — into one fleet:

1. hand the shards still to do to the cluster's one event loop
   (:func:`~repro.cluster.net.run_sessions`), which forks a local
   worker per shard over a ``socketpair`` — or, with a
   :class:`~repro.cluster.net.NetConfig`, serves authenticated TCP
   workers that dial in — and multiplexes their
   HEARTBEAT/PROGRESS/RESULT/ERROR frames with ``selectors``;
2. checkpoint per-shard offsets and completed results to a spool
   directory (:func:`~repro.persist.atomic_write`) as those frames
   arrive;
3. leave worker *death* (end-of-stream before RESULT) and *silence*
   (nothing within the heartbeat deadline) to that loop: the shard is
   retried in another worker with jittered exponential backoff — the
   :class:`~repro.experiments.parallel.AnalysisPool` retry ladder —
   falling back to running the shard in-process in the parent after
   ``run.max_retries`` losses;
4. merge the per-shard reports (canonically sorted, provenance
   tagged), registries, and fault counters into one fleet-level
   :class:`ClusterResult` whose report is byte-identical to a
   single-process batch run of the same capture.

``shards=1`` never forks: the coordinator runs the single shard
in-process, which is exactly the single-process baseline the parity
gate compares against.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..config import AnalysisConfig, RunConfig
from ..core.report import ServiceReport
from ..errors import FaultStats
from ..obs.metrics import MetricsRegistry
from ..persist import atomic_write
from .net import NetConfig, bind_listener, run_sessions
from .worker import ShardResult, ShardSpec, run_shard

#: Checkpoint schema version (see :class:`Coordinator` ``checkpoint_dir``).
CHECKPOINT_VERSION = 1
STATE_FILE = "state.json"


@dataclass
class ClusterResult:
    """The fleet's merged product.

    ``report`` is canonically sorted and carries per-shard provenance;
    ``faults`` sums flow-level damage across shards while taking
    capture-level decode counters from one representative shard (every
    worker decodes the full capture, so summing those would multiply
    them by the shard count — see :class:`~repro.cluster.worker.
    ShardResult`).
    """

    report: ServiceReport
    registry: MetricsRegistry
    faults: FaultStats
    shards: list[dict] = field(default_factory=list)
    n_shards: int = 1
    transport: str = "socket"  #: ``"socket"`` local, ``"tcp"`` listener
    wall_time: float = 0.0
    workers_died: int = 0
    shards_resumed: int = 0
    reassignments: int = 0
    heartbeat_misses: int = 0
    auth_failures: int = 0
    workers: list[dict] = field(default_factory=list)


def merge_shard_results(
    results: "list[ShardResult]", service: str
) -> tuple[ServiceReport, MetricsRegistry, FaultStats]:
    """Fold per-shard results into fleet totals.

    Reports merge associatively and are canonically re-sorted, so the
    outcome is independent of shard count and completion order;
    registries merge with counter-sum/gauge-max semantics; fault
    counters split as documented on :class:`~repro.cluster.worker.
    ShardResult`.
    """
    ordered = sorted(results, key=lambda r: r.shard)
    report = ServiceReport.merged(
        [r.report for r in ordered], service=service
    )
    report.canonical_sort()
    registry = MetricsRegistry.merged(r.registry for r in ordered)
    faults = FaultStats()
    for index, result in enumerate(ordered):
        if index == 0:
            faults.corrupt_records = result.faults.corrupt_records
            faults.resyncs = result.faults.resyncs
            faults.option_errors = result.faults.option_errors
            faults.checksum_errors = result.faults.checksum_errors
        faults.flows_skipped += result.faults.flows_skipped
        faults.tasks_retried += result.faults.tasks_retried
        faults.tasks_poisoned += result.faults.tasks_poisoned
        faults.skipped.extend(result.faults.skipped)
    faults.skipped.sort(key=lambda s: (s.key, s.error_type))
    return report, registry, faults


class Coordinator:
    """Run an N-shard analysis cluster over one or more captures.

    Parameters
    ----------
    source:
        A pcap path, or a sequence of pcap paths analyzed in order
        (a fleet of finished capture files).
    n_shards:
        Worker processes; each owns the flows hashing to its shard.
        ``1`` runs in-process (no fork) — the single-process baseline.
    service:
        Label on the merged report.
    analysis / run:
        The usual frozen configs.  ``run.max_retries`` and
        ``run.retry_backoff`` govern the worker-death retry ladder.
    server_ip / server_port:
        Optional server-endpoint pin (otherwise inferred per flow, as
        everywhere else).
    checkpoint_dir:
        Spool directory for per-shard offsets and completed results:
        ``state.json`` (atomic, schema-versioned) plus one
        ``shard-N.pkl`` per finished shard.  With ``resume=True`` a
        rerun loads finished shards from the spool and only re-runs
        the incomplete ones (from offset zero — shard analysis is
        deterministic, so restarting a partial shard is correct).
    heartbeat_interval / heartbeat_deadline:
        Workers beacon a HEARTBEAT frame every ``heartbeat_interval``
        seconds; a worker with an assigned shard that sends *nothing*
        (heartbeat, progress, or result) for ``heartbeat_deadline``
        seconds is declared lost even though its connection looks open
        — the half-open-peer case TCP alone never surfaces.  ``None``
        (or ``0``) disables the respective side.
    jitter_seed:
        Seed for retry-backoff jitter (see :func:`~repro.cluster.net.
        backoff_delay`); ``None`` uses OS entropy, tests pin it.
    net:
        A :class:`~repro.cluster.net.NetConfig` switches the run to
        cross-host listener mode: instead of forking local workers the
        coordinator accepts authenticated TCP workers
        (``repro-paper cluster-worker``) and assigns shards to them.
    """

    def __init__(
        self,
        source,
        n_shards: int = 4,
        *,
        service: str = "cluster",
        analysis: AnalysisConfig | None = None,
        run: RunConfig | None = None,
        server_ip: int | None = None,
        server_port: int | None = None,
        checkpoint_dir: "str | Path | None" = None,
        resume: bool = False,
        heartbeat_interval: float | None = 5.0,
        heartbeat_deadline: float | None = 30.0,
        jitter_seed: int | None = None,
        net: NetConfig | None = None,
    ):
        if isinstance(source, (str, Path)):
            paths = (str(source),)
        else:
            paths = tuple(str(p) for p in source)
        if not paths:
            raise ValueError("cluster needs at least one capture path")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.paths = paths
        self.n_shards = n_shards
        self.transport = "tcp" if net is not None else "socket"
        self.service = service
        self.analysis = analysis or AnalysisConfig()
        self.run_config = run or RunConfig()
        self.server_ip = server_ip
        self.server_port = server_port
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_deadline = heartbeat_deadline
        self.net = net
        self._jitter_rng = random.Random(jitter_seed)
        self._listener = None
        self._state: dict = {}
        self._progress: dict[int, dict] = {}
        self.workers_died = 0
        self.shards_resumed = 0
        self.reassignments = 0
        self.heartbeat_misses = 0
        self.auth_failures = 0
        self.worker_stats: list[dict] = []

    # -- public -------------------------------------------------------
    def spec_for(self, shard: int) -> ShardSpec:
        return ShardSpec(
            paths=self.paths,
            shard=shard,
            n_shards=self.n_shards,
            service=self.service,
            analysis=self.analysis,
            run=self.run_config,
            server_ip=self.server_ip,
            server_port=self.server_port,
        )

    def bind(self) -> tuple[str, int]:
        """Bind the TCP listener (net mode) and return ``(host, port)``.

        Useful before :meth:`run` when ``port=0`` let the OS pick: the
        caller learns the address to hand to dialing workers.
        """
        return self.bind_socket().getsockname()[:2]

    def bind_socket(self):
        """The bound listener socket (net mode only), binding lazily."""
        if self.net is None:
            raise ValueError("bind() requires listener mode (net=...)")
        if self._listener is None:
            self._listener = bind_listener(self.net)
        return self._listener

    def close_listener(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def run(self) -> ClusterResult:
        """Execute the fleet and return the merged result."""
        started = time.monotonic()
        results: dict[int, ShardResult] = {}
        self._load_checkpoint(results)
        todo = [s for s in range(self.n_shards) if s not in results]
        if self.net is None and (
            self.n_shards == 1 or not _fork_available()
        ):
            for shard in todo:
                self._finish_shard(results, run_shard(self.spec_for(shard)))
        elif todo:
            run_sessions(self, todo, results)
        report, registry, faults = merge_shard_results(
            list(results.values()), self.service
        )
        shards = [
            {
                "shard": result.shard,
                "flows": len(result.report.flows),
                "skipped": len(result.report.skipped),
                "packets_decoded": result.progress.packets_decoded,
                "packets_kept": result.progress.packets_kept,
                "stream": result.stream,
            }
            for result in sorted(results.values(), key=lambda r: r.shard)
        ]
        return ClusterResult(
            report=report,
            registry=registry,
            faults=faults,
            shards=shards,
            n_shards=self.n_shards,
            transport=self.transport,
            wall_time=time.monotonic() - started,
            workers_died=self.workers_died,
            shards_resumed=self.shards_resumed,
            reassignments=self.reassignments,
            heartbeat_misses=self.heartbeat_misses,
            auth_failures=self.auth_failures,
            workers=list(self.worker_stats),
        )

    def _finish_shard(
        self, results: dict[int, ShardResult], result: ShardResult
    ) -> None:
        results[result.shard] = result
        self._progress[result.shard] = result.progress.to_dict()
        self._spool_result(result)
        self._write_checkpoint(results)

    # -- checkpoint / resume ------------------------------------------
    def _signature(self) -> dict:
        return {
            "paths": list(self.paths),
            "n_shards": self.n_shards,
            "service": self.service,
        }

    def _load_checkpoint(self, results: dict[int, ShardResult]) -> None:
        if self.checkpoint_dir is None or not self.resume:
            return
        state_path = self.checkpoint_dir / STATE_FILE
        try:
            state = json.loads(state_path.read_text())
        except (OSError, ValueError):
            return
        if state.get("version") != CHECKPOINT_VERSION:
            return
        if state.get("signature") != self._signature():
            return  # different capture/shard layout: start fresh
        for shard_text, entry in state.get("shards", {}).items():
            if entry.get("status") != "done":
                continue
            shard = int(shard_text)
            try:
                with open(self.checkpoint_dir / entry["result"], "rb") as fh:
                    result = pickle.load(fh)
            except (OSError, pickle.UnpicklingError, KeyError):
                continue  # damaged spool entry: just re-run the shard
            results[shard] = result
            self._progress[shard] = result.progress.to_dict()
            self.shards_resumed += 1

    def _spool_result(self, result: ShardResult) -> None:
        if self.checkpoint_dir is None:
            return
        atomic_write(
            self.checkpoint_dir / f"shard-{result.shard}.pkl",
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _write_checkpoint(self, results: dict[int, ShardResult]) -> None:
        if self.checkpoint_dir is None:
            return
        state = {
            "version": CHECKPOINT_VERSION,
            "signature": self._signature(),
            "shards": {
                str(shard): {
                    "status": "done" if shard in results else "running",
                    "result": (
                        f"shard-{shard}.pkl" if shard in results else None
                    ),
                    "progress": self._progress.get(shard),
                }
                for shard in range(self.n_shards)
            },
        }
        atomic_write(
            self.checkpoint_dir / STATE_FILE,
            json.dumps(state, indent=2, sort_keys=True),
        )


class ClusterProvider:
    """Adapt a :class:`ClusterResult` to the live HTTP provider
    contract, so one :class:`~repro.live.http.LiveHTTPServer` serves
    the fleet's combined ``/report.json``, ``/metrics``, ``/healthz``,
    and ``/shards.json``."""

    def __init__(self, result: ClusterResult):
        self._result = result

    def health(self) -> dict:
        result = self._result
        return {
            "status": "ok",
            "n_shards": result.n_shards,
            "transport": result.transport,
            "flows": len(result.report.flows),
            "flows_skipped": len(result.report.skipped),
            "workers_died": result.workers_died,
            "reassignments": result.reassignments,
            "heartbeat_misses": result.heartbeat_misses,
            "auth_failures": result.auth_failures,
            "wall_time": result.wall_time,
        }

    def metrics_registry(self) -> MetricsRegistry:
        return self._result.registry

    def report(self) -> dict:
        result = self._result
        return {
            "service": result.report.service,
            "cluster": {
                "n_shards": result.n_shards,
                "transport": result.transport,
                "provenance": result.report.provenance,
                "workers_died": result.workers_died,
                "shards_resumed": result.shards_resumed,
                "reassignments": result.reassignments,
                "heartbeat_misses": result.heartbeat_misses,
            },
            "report": result.report.to_dict(),
        }

    def shards(self) -> list[dict]:
        return self._result.shards

    def workers(self) -> list[dict]:
        return self._result.workers


def analyze_cluster(
    source,
    shards: int = 4,
    *,
    service: str = "cluster",
    config: AnalysisConfig | None = None,
    run: RunConfig | None = None,
    server_ip: int | None = None,
    server_port: int | None = None,
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
    heartbeat_interval: float | None = 5.0,
    heartbeat_deadline: float | None = 30.0,
    jitter_seed: int | None = None,
    net: NetConfig | None = None,
) -> ServiceReport:
    """Analyze a capture with an N-shard worker cluster (facade verb).

    The merged :class:`~repro.core.report.ServiceReport` is
    byte-identical (``to_json()``) for every ``shards`` value,
    including ``shards=1`` (fully in-process) — sharding is a pure
    execution strategy, never a semantic one.  For the full fleet
    result (registry, per-shard detail), build a :class:`Coordinator`.
    """
    return Coordinator(
        source,
        n_shards=shards,
        service=service,
        analysis=config,
        run=run,
        server_ip=server_ip,
        server_port=server_port,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        heartbeat_interval=heartbeat_interval,
        heartbeat_deadline=heartbeat_deadline,
        jitter_seed=jitter_seed,
        net=net,
    ).run().report


# -- internals --------------------------------------------------------
def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()
