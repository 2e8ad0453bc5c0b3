"""Sharded analysis cluster: coordinator, shard workers, wire protocol.

Scale the analyzer past one core — and past one machine — without
changing a single result bit: flows hash to shards
(:func:`repro.packet.flow.flow_shard`), each shard runs the ordinary
pipeline in a worker process, and the coordinator merges the partial
reports into one fleet-level :class:`~repro.core.report.ServiceReport`
byte-identical to a single-process run.

There is one event loop (:func:`~repro.cluster.net.run_sessions`) and
one worker loop (:func:`~repro.cluster.net.serve_assignments`), both
speaking the framed protocol over a connected socket.  Local workers
are forked by the coordinator, one end of a ``socketpair`` each;
across hosts, listener mode (:class:`~repro.cluster.net.NetConfig`,
``repro-paper cluster --listen``) accepts dial-in workers
(:func:`~repro.cluster.net.run_worker`, ``repro-paper
cluster-worker``) behind a mutual HMAC handshake.  Both kinds of
session get the same heartbeat liveness, jittered-backoff shard
reassignment, and in-process fallback — the merged report stays
byte-identical through every failure mode.

Entry points:

- :func:`analyze_cluster` — the facade verb (merged report only)
- :class:`Coordinator` — full fleet control (registry, per-shard
  detail, checkpoints, listener mode); :class:`ClusterProvider` serves
  its :class:`ClusterResult` over the live HTTP stack
- :func:`run_worker` — the dial-in worker loop (cross-host fleets)
- :class:`ShardSpec` / :func:`run_shard` — one shard, callable
  in-process
- :mod:`~repro.cluster.protocol` — the framed worker wire protocol
  and authenticated handshake
"""

from .coordinator import (
    ClusterProvider,
    ClusterResult,
    Coordinator,
    analyze_cluster,
    merge_shard_results,
)
from .net import (
    NetConfig,
    backoff_delay,
    run_worker,
)
from .protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    AuthError,
    Message,
    MessageKind,
    ProtocolError,
    SocketTransport,
    Transport,
    auth_digest,
    client_handshake,
    server_handshake,
)
from .worker import (
    ShardProgress,
    ShardResult,
    ShardSpec,
    heartbeat_pump,
    run_shard,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "AuthError",
    "ClusterProvider",
    "ClusterResult",
    "Coordinator",
    "Message",
    "MessageKind",
    "NetConfig",
    "ProtocolError",
    "ShardProgress",
    "ShardResult",
    "ShardSpec",
    "SocketTransport",
    "Transport",
    "analyze_cluster",
    "auth_digest",
    "backoff_delay",
    "client_handshake",
    "heartbeat_pump",
    "merge_shard_results",
    "run_shard",
    "run_worker",
    "server_handshake",
]
