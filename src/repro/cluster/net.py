"""The cluster's one event loop and one worker loop.

Every worker is a *session*: a connected socket, an assigned shard (or
none), and a liveness deadline.  :func:`run_sessions` is the only
``selectors`` loop in the cluster, whichever way a session came to be:

* **local** — the coordinator forks a child per outstanding shard,
  each on one end of a ``socket.socketpair()``.  The descriptor is
  made by the coordinator and inherited across its own fork, never
  reachable from outside, so the session counts as authenticated;
* **dial-in** — with a :class:`NetConfig` (``repro-paper cluster
  --listen``) workers on any host that can read the capture paths
  connect over TCP (:func:`run_worker`, ``repro-paper cluster-worker
  --connect``) and pass a mutual HMAC handshake
  (:func:`~repro.cluster.protocol.server_handshake`) first.

From then on both run :func:`serve_assignments` and pull shards until
the queue drains.  Failure handling at every layer:

* **Auth** — a dialing peer with the wrong (or no) secret is refused
  with a typed ``AuthError`` frame and never receives a shard spec; a
  slowloris peer is cut off by the handshake deadline.
* **Liveness** — workers send HEARTBEAT frames on an interval and the
  loop keeps a per-session deadline.  A worker that *closes* is dead;
  one that goes *silent* past the deadline (a wedged child, half-open
  TCP, a blackholed path) is declared lost just the same.
* **Reassignment** — a lost worker's in-flight shard is re-queued with
  seeded, jittered exponential backoff (a lost local worker is killed,
  reaped and replaced by a fresh fork); after ``run.max_retries``
  losses the coordinator runs the shard in-process, so the run always
  terminates.  Completed shards are never re-run: results land in the
  coordinator's result map (and checkpoint spool) the moment they
  arrive, and only in-flight work moves.
* **No workers at all** (listener mode) — after ``worker_grace``
  seconds with pending work and nobody connected, the coordinator
  drains the queue in-process (``fallback=True``), so a mis-deployed
  fleet still produces the byte-identical report, just slower.

Jitter everywhere (:func:`backoff_delay`) is deterministic under a
seed, so tests can assert exact retry schedules while production
restarts spread out instead of thundering back in lockstep.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import selectors
import signal
import socket
import time
from collections import deque
from dataclasses import dataclass

from .. import errors as errors_module
from ..errors import ReproError, WorkerError
from .protocol import (
    AuthError,
    MessageKind,
    ProtocolError,
    SocketTransport,
    client_handshake,
    server_handshake,
)
from .worker import ShardSpec, _maybe_die, heartbeat_pump, run_shard

logger = logging.getLogger("repro.cluster.net")

#: Floor for the selectors timeout so deadline checks stay responsive.
_MIN_POLL = 0.05

#: How long a dropped local worker gets to exit (on SIGTERM mid-shard,
#: on end-of-stream when idle) before it is sent SIGKILL.
_REAP_TIMEOUT = 2.0


@dataclass(frozen=True)
class NetConfig:
    """Cross-host listener parameters for a :class:`~repro.cluster.
    coordinator.Coordinator`.

    Parameters
    ----------
    host / port:
        Listen address.  Port ``0`` lets the OS pick (the bound port
        is available from :meth:`Coordinator.bind`).
    secret:
        Shared HMAC secret; required.  Distribute it out of band (an
        environment variable, a secrets manager) — it never crosses
        the wire.
    handshake_deadline:
        Seconds a dialing peer gets to complete the whole
        challenge–response before being dropped (slowloris bound).
    worker_grace:
        Seconds the coordinator waits with pending work and *zero*
        connected workers before draining the queue in-process
        (when ``fallback`` is true).
    fallback:
        Run unserviceable shards in-process instead of waiting
        forever.  Disable only when a partial fleet must block.
    """

    host: str = "127.0.0.1"
    port: int = 0
    secret: str | None = None
    handshake_deadline: float = 5.0
    worker_grace: float = 30.0
    fallback: bool = True


def backoff_delay(base: float, attempt: int, rng: random.Random) -> float:
    """Jittered exponential backoff: ``base * 2^(attempt-1)`` scaled
    into ``[0.5, 1.0)`` of nominal.

    The jitter keeps simultaneously-restarted workers (or
    simultaneously-requeued shards) from hammering the listener in
    lockstep; drawing it from a caller-owned ``rng`` keeps schedules
    deterministic under a seed.
    """
    nominal = base * (2 ** (max(1, attempt) - 1))
    return nominal * (0.5 + 0.5 * rng.random())


def bind_listener(net: NetConfig) -> socket.socket:
    """Bind and listen on the configured address (reuse-addr set)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((net.host, net.port))
    sock.listen(32)
    return sock


class _Session:
    """Coordinator-side state for one worker; ``process`` is the
    forked child behind a local session, ``None`` for a dial-in one."""

    def __init__(self, transport: SocketTransport, addr, info: dict,
                 process=None):
        self.transport = transport
        self.fd = transport.fileno()  # cached: closed sockets return -1
        self.addr = addr
        self.process = process
        self.name = f"{info.get('host', addr[0])}:{info.get('pid', '?')}"
        self.shard: int | None = None
        self.last_seen = time.monotonic()
        self.stat = {
            "worker": self.name,
            "addr": f"{addr[0]}:{addr[1]}",
            "state": "idle",
            "shard": None,
            "shards_done": 0,
            "heartbeats": 0,
            "heartbeat_misses": 0,
        }


def run_sessions(coord, todo: list[int], results: dict) -> None:
    """The coordinator's event loop, local and cross-host alike.

    ``coord`` is a :class:`~repro.cluster.coordinator.Coordinator`;
    with ``coord.net`` set its sessions are authenticated dial-in
    workers, without it forked local ones.  Either way this function
    owns the sessions and the shard queue, and settles every shard in
    ``todo`` into ``results`` before returning (workers, reassignment,
    or in-process fallback — whichever it takes).
    """
    net: NetConfig | None = coord.net
    if net is not None and not net.secret:
        raise ValueError(
            "cluster listener mode requires a shared secret "
            "(--cluster-secret / NetConfig.secret)"
        )
    selector = selectors.DefaultSelector()
    if net is not None:
        listener = coord.bind_socket()
        listener.setblocking(False)
        selector.register(listener, selectors.EVENT_READ, "accept")
    else:
        fork = multiprocessing.get_context("fork")

    pending: deque[int] = deque(sorted(todo))
    outstanding = set(todo)
    attempts = {shard: 0 for shard in todo}
    blocked: dict[int, float] = {}  # shard -> monotonic release time
    sessions: dict[int, _Session] = {}  # fd -> session
    rng = coord._jitter_rng
    deadline = coord.heartbeat_deadline
    last_activity = time.monotonic()

    def finish_inline(shard: int) -> None:
        coord._finish_shard(results, run_shard(coord.spec_for(shard)))
        outstanding.discard(shard)

    def drop(session: _Session, state: str) -> None:
        try:
            selector.unregister(session.fd)
        except (KeyError, ValueError, OSError):
            pass
        sessions.pop(session.fd, None)
        session.transport.close()
        session.stat["state"] = state
        session.stat["shard"] = None
        process = session.process
        if process is not None:
            # Mid-shard it is wedged, dying, or the run is aborting:
            # kill it.  An idle child exits on SHUTDOWN/end-of-stream.
            if session.shard is not None and process.is_alive():
                process.terminate()
            process.join(timeout=_REAP_TIMEOUT)
            if process.is_alive():
                # SIGTERM blocked or ignored (native code, a handler a
                # library installed): SIGKILL cannot be.
                process.kill()
                process.join()

    def lose(session: _Session, why: str) -> None:
        nonlocal last_activity
        shard = session.shard
        logger.warning("worker %s lost (%s)", session.name, why)
        coord.workers_died += 1
        drop(session, "lost")
        last_activity = time.monotonic()
        if shard is None or shard not in outstanding:
            return
        attempts[shard] += 1
        coord.reassignments += 1
        if attempts[shard] > coord.run_config.max_retries:
            logger.warning(
                "shard %d lost %d workers; running in-process",
                shard, attempts[shard],
            )
            finish_inline(shard)
        else:
            delay = backoff_delay(
                coord.run_config.retry_backoff, attempts[shard], rng
            )
            logger.warning(
                "shard %d re-queued (retry %d/%d in %.2fs)",
                shard, attempts[shard], coord.run_config.max_retries,
                delay,
            )
            blocked[shard] = time.monotonic() + delay

    def assign_ready() -> None:
        for session in list(sessions.values()):
            if not pending:
                return
            if session.shard is not None:
                continue
            shard = pending.popleft()
            try:
                session.transport.send(
                    MessageKind.ASSIGN,
                    {
                        "spec": coord.spec_for(shard),
                        "heartbeat_interval": coord.heartbeat_interval,
                    },
                )
            except ProtocolError as exc:
                pending.appendleft(shard)
                lose(session, f"assign failed: {exc}")
                continue
            session.shard = shard
            session.last_seen = time.monotonic()
            session.stat["state"] = "working"
            session.stat["shard"] = shard

    def admit(session: _Session) -> None:
        nonlocal last_activity
        sessions[session.fd] = session
        selector.register(session.fd, selectors.EVENT_READ, session)
        coord.worker_stats.append(session.stat)
        last_activity = time.monotonic()

    def fork_worker() -> None:
        ours, theirs = socket.socketpair()
        transport = SocketTransport(ours)
        process = fork.Process(
            target=_local_worker,
            args=(
                theirs,
                [transport, *(s.transport for s in sessions.values())],
            ),
            daemon=True,
        )
        process.start()
        # The parent must drop the worker's end or the worker's death
        # never reads as end-of-stream.
        theirs.close()
        admit(
            _Session(
                transport, ("fork", process.pid), {"pid": process.pid},
                process,
            )
        )

    def accept() -> None:
        try:
            sock, addr = listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        transport = SocketTransport(sock)
        try:
            info = server_handshake(
                transport,
                net.secret,
                deadline=net.handshake_deadline,
            )
        except (ProtocolError, OSError) as exc:
            coord.auth_failures += 1
            logger.warning("rejected peer %s: %s", addr, exc)
            transport.close()
            return
        session = _Session(transport, addr, info)
        admit(session)
        logger.info("worker %s connected", session.name)

    def service(session: _Session) -> None:
        nonlocal last_activity
        transport = session.transport
        try:
            # Bound the read so a peer that stalls mid-frame (a
            # blackholed link) cannot pin the loop past the deadline.
            transport.set_deadline(deadline or 30.0)
            message = transport.recv()
        except ProtocolError as exc:
            lose(session, str(exc))
            return
        finally:
            transport.set_deadline(None)
        if message is None:
            if session.shard is None:
                drop(session, "left")  # idle worker going away is fine
            else:
                lose(session, "end of stream before RESULT")
            return
        session.last_seen = time.monotonic()
        if message.kind is MessageKind.HEARTBEAT:
            session.stat["heartbeats"] += 1
        elif message.kind is MessageKind.PROGRESS:
            if session.shard is not None:
                coord._progress[session.shard] = message.payload
                coord._write_checkpoint(results)
        elif message.kind is MessageKind.RESULT:
            result = message.payload
            if result.shard in outstanding:
                coord._finish_shard(results, result)
                outstanding.discard(result.shard)
            session.shard = None
            session.stat["state"] = "idle"
            session.stat["shard"] = None
            session.stat["shards_done"] += 1
            last_activity = time.monotonic()
        elif message.kind is MessageKind.ERROR:
            drop(session, "errored")
            raise _typed_error(message.payload)

    def poll_timeout(now: float) -> float:
        candidates = [1.0]
        if deadline:
            for session in sessions.values():
                if session.shard is not None:
                    candidates.append(
                        session.last_seen + deadline - now
                    )
        candidates.extend(at - now for at in blocked.values())
        if net is not None and net.fallback and pending and not sessions:
            candidates.append(last_activity + net.worker_grace - now)
        return max(_MIN_POLL, min(candidates))

    try:
        while outstanding:
            now = time.monotonic()
            for shard, release_at in list(blocked.items()):
                if release_at <= now:
                    del blocked[shard]
                    pending.append(shard)
            if net is None:
                # A local worker per outstanding shard: the initial
                # fleet, then a fork for each one lost and not covered
                # by an idle survivor.
                while len(sessions) < len(outstanding):
                    fork_worker()
            assign_ready()
            if (
                net is not None
                and net.fallback
                and pending
                and not sessions
                and not blocked
                and now - last_activity >= net.worker_grace
            ):
                # Nobody is coming: drain one shard in-process per
                # pass so late workers can still pick up the rest.
                logger.warning(
                    "no workers for %.1fs; running shard %d in-process",
                    net.worker_grace, pending[0],
                )
                finish_inline(pending.popleft())
                continue
            for key, _events in selector.select(poll_timeout(now)):
                if key.data == "accept":
                    accept()
                else:
                    session = sessions.get(key.fd)
                    if session is not None:
                        service(session)
            if deadline:
                now = time.monotonic()
                for session in list(sessions.values()):
                    if (
                        session.shard is not None
                        and now - session.last_seen > deadline
                    ):
                        coord.heartbeat_misses += 1
                        session.stat["heartbeat_misses"] += 1
                        lose(
                            session,
                            f"heartbeat deadline ({deadline:.1f}s) "
                            "exceeded (silent or half-open peer)",
                        )
    finally:
        for session in list(sessions.values()):
            try:
                session.transport.send(MessageKind.SHUTDOWN)
            except ProtocolError:
                pass
            # A dial-in worker outlives the run and is let go to serve
            # another; a forked one exists for this run only.
            drop(session, "released" if session.process is None else "done")
        selector.close()
        coord.close_listener()


# -- worker (dial-in) side ---------------------------------------------

def run_worker(
    address: tuple[str, int],
    secret,
    *,
    handshake_deadline: float = 5.0,
    connect_timeout: float = 10.0,
    idle_timeout: float | None = None,
    max_retries: int = 5,
    retry_backoff: float = 0.5,
    seed: int | None = None,
) -> int:
    """Dial a cluster coordinator and execute shard assignments.

    Reconnects with seeded, jittered exponential backoff on connection
    loss (``max_retries`` consecutive failures raise
    :class:`~repro.errors.WorkerError`); authentication failures raise
    :class:`~repro.cluster.protocol.AuthError` immediately — retrying a
    wrong secret is never going to help.  ``idle_timeout`` bounds how
    long the worker waits for the next frame, so a blackholed link
    surfaces as a reconnect instead of an eternal hang.  Returns the
    number of shards completed (the coordinator's SHUTDOWN — or a
    clean close — ends the loop).
    """
    rng = random.Random(seed)
    failures = 0
    completed = 0
    info = {"host": socket.gethostname(), "pid": os.getpid()}
    while True:
        try:
            sock = socket.create_connection(
                address, timeout=connect_timeout
            )
        except OSError as exc:
            failures += 1
            if failures > max_retries:
                raise WorkerError(
                    f"cannot reach coordinator at {address[0]}:"
                    f"{address[1]} after {failures} attempts: {exc}"
                ) from exc
            time.sleep(backoff_delay(retry_backoff, failures, rng))
            continue
        transport = SocketTransport(sock)
        try:
            client_handshake(
                transport, secret,
                deadline=handshake_deadline,
                info=info,
            )
            failures = 0
            for done in serve_assignments(transport, idle_timeout):
                completed += done
            return completed
        except AuthError:
            raise
        except (ProtocolError, OSError) as exc:
            failures += 1
            if failures > max_retries:
                raise WorkerError(
                    f"lost coordinator at {address[0]}:{address[1]} "
                    f"after {failures} attempts: {exc}"
                ) from exc
            logger.warning(
                "connection lost (%s); reconnect %d/%d", exc,
                failures, max_retries,
            )
            time.sleep(backoff_delay(retry_backoff, failures, rng))
        finally:
            transport.close()


def serve_assignments(transport: SocketTransport,
                      idle_timeout: float | None = None):
    """The worker-side loop of every session, forked or dialed in:
    ASSIGN → (HEARTBEAT/PROGRESS)* → RESULT|ERROR → … until SHUTDOWN
    or a clean close.  Yields ``1`` per shard answered with RESULT and
    ``0`` per ERROR; ``idle_timeout`` bounds the wait for a frame.
    """
    while True:
        transport.set_deadline(idle_timeout)
        message = transport.recv()
        transport.set_deadline(None)
        if message is None or message.kind is MessageKind.SHUTDOWN:
            return
        if message.kind is MessageKind.ASSIGN:
            payload = message.payload
            yield _run_assignment(
                transport,
                payload["spec"],
                payload.get("heartbeat_interval"),
            )


def _local_worker(sock: socket.socket, inherited) -> None:
    """Entry point of a forked local worker.

    The fork copied the coordinator's end of every session, this one
    included; a copy left open here would keep a dead peer's stream
    from ever reading as ended, so all are closed before serving.
    It also copied the coordinator's signal handlers (a live daemon
    routes SIGTERM to "flush and stop"), which here would swallow the
    coordinator's ``terminate()``; a worker dies when told to.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    for transport in inherited:
        transport.close()
    transport = SocketTransport(sock)
    try:
        for _ in serve_assignments(transport):
            pass
    finally:
        transport.close()


def _run_assignment(
    transport: SocketTransport,
    spec: ShardSpec,
    heartbeat_interval: float | None,
) -> int:
    """Execute one assigned shard; returns 1 on RESULT, 0 on ERROR.

    Only a typed :class:`~repro.errors.ReproError` travels as an ERROR
    frame.  Anything else is a bug and kills the worker, so the death
    ladder's in-process last rung raises it with its traceback.
    """
    try:
        with heartbeat_pump(transport, spec.shard, heartbeat_interval):
            result = run_shard(
                spec,
                progress_sink=lambda p: transport.send(
                    MessageKind.PROGRESS, p.to_dict()
                ),
            )
        _maybe_die(spec.shard)
        transport.send(MessageKind.RESULT, result)
        return 1
    except ReproError as exc:
        transport.send(
            MessageKind.ERROR,
            {
                "shard": spec.shard,
                "error_type": type(exc).__name__,
                "error": str(exc),
            },
        )
        return 0


def _typed_error(payload) -> ReproError:
    """Rebuild a worker's ERROR frame as its original typed error."""
    if not isinstance(payload, dict):
        payload = {}
    error_type = payload.get("error_type", "WorkerError")
    message = (
        f"shard {payload.get('shard')}: "
        f"{error_type}: {payload.get('error')}"
    )
    cls = getattr(errors_module, error_type, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            pass
    return WorkerError(message)
