"""Worker wire protocol: length-prefixed, schema-versioned frames.

Every message between the cluster coordinator and a shard worker is
one frame::

    +--------+---------+--------+-------------+----------------------+
    | magic  | version | kind   | payload_len | payload              |
    | 4s     | u16     | u16    | u32         | payload_len bytes    |
    +--------+---------+--------+-------------+----------------------+
    'RPCL'    network byte order (struct '!4sHHI')    encoded object

The header is fixed (12 bytes) so a receiver always knows how much to
read next.  Payload encoding depends on the message kind: control and
handshake frames (PROGRESS, HEARTBEAT, CHALLENGE, AUTH, WELCOME,
ERROR, SHUTDOWN) carry JSON, so nothing an *unauthenticated*
peer sends is ever unpickled; only the two kinds exchanged after a
successful handshake on a trusted channel (ASSIGN, RESULT) carry
pickled Python objects.  A version mismatch, bad magic, or short
read/write mid-frame raises a typed :class:`ProtocolError` (with
bytes-transferred context) instead of desynchronizing.

Every channel is a connected socket behind :class:`SocketTransport` —
a ``socketpair`` the coordinator creates for each worker it forks,
real TCP for workers that dial in (:mod:`repro.cluster.net`).  The
:class:`Transport` base keeps framing apart from byte I/O so tests can
substitute a recording or a one-byte-at-a-time channel.  Framing never
assumes a full transfer: sends loop on partial ``send()`` and receives
loop on partial ``recv()``, so slow links, tiny socket buffers, and
signal-interrupted syscalls cannot tear a frame.

Cross-host channels are authenticated: :func:`server_handshake` /
:func:`client_handshake` run a mutual HMAC-SHA256 challenge–response
over a shared secret on top of the framing (constant-time compares,
per-connection nonces), raising a typed :class:`AuthError` on any
mismatch.  :meth:`SocketTransport.set_deadline` bounds the whole
exchange, so a slowloris peer dribbling one header byte at a time
cannot pin a listener.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import json
import os
import pickle
import socket
import struct
import threading
import time
from dataclasses import dataclass

from ..errors import ReproError

MAGIC = b"RPCL"
#: Bump on any frame or payload schema change; both ends assert it.
#: v2: JSON control payloads, HEARTBEAT/CHALLENGE/AUTH/WELCOME/ASSIGN
#: kinds, authenticated cross-host handshake.
PROTOCOL_VERSION = 2

#: Upper bound on a single frame payload; anything larger is treated
#: as a framing error rather than an allocation request.
MAX_PAYLOAD_BYTES = 1 << 30

_HEADER = struct.Struct("!4sHHI")


class ProtocolError(ReproError):
    """A malformed, truncated, or version-mismatched cluster frame."""


class AuthError(ProtocolError):
    """The cluster handshake failed: wrong or missing shared secret,
    a peer that would not authenticate, or a failed mutual proof."""


class MessageKind(enum.IntEnum):
    """What a frame's payload means."""

    HELLO = 1      #: reserved (no longer sent): keeps wire values stable
    PROGRESS = 2   #: worker -> coordinator: periodic per-shard offsets
    RESULT = 3     #: worker -> coordinator: the shard's final result
    ERROR = 4      #: worker -> coordinator: typed failure before RESULT
    SHUTDOWN = 5   #: coordinator -> worker: stop after the current slab
    HEARTBEAT = 6  #: worker -> coordinator: liveness beacon
    CHALLENGE = 7  #: coordinator -> worker: auth nonce
    AUTH = 8       #: worker -> coordinator: HMAC response + identity
    WELCOME = 9    #: coordinator -> worker: mutual proof
    ASSIGN = 10    #: coordinator -> worker: a shard spec to execute


#: Kinds whose payloads are pickled Python objects.  Everything else is
#: JSON, so unauthenticated peers can never reach ``pickle.loads``.
_PICKLE_KINDS = frozenset({MessageKind.RESULT, MessageKind.ASSIGN})


@dataclass
class Message:
    """One decoded frame."""

    kind: MessageKind
    payload: object


class Transport:
    """One end of a coordinator<->worker channel.

    Subclasses provide raw byte I/O (:meth:`_write_some`,
    :meth:`_read_some`) and :meth:`close`; framing, versioning, payload
    codecs, and short-transfer loops live here so every transport
    speaks the identical protocol.  :meth:`send` is thread-safe (a lock
    serializes whole frames), which lets a heartbeat thread share the
    channel with the worker's main loop.
    """

    def __init__(self):
        self._send_lock = threading.Lock()

    def send(self, kind: MessageKind, payload: object = None) -> None:
        kind = MessageKind(kind)
        if kind in _PICKLE_KINDS:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        frame = _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(kind), len(body))
        with self._send_lock:
            self._write(frame + body)

    def recv(self, allowed=None) -> Message | None:
        """The next frame, or ``None`` on a clean end-of-stream.

        End-of-stream in the *middle* of a frame — the signature of a
        dying peer or a truncating network — raises
        :class:`ProtocolError` with how many bytes made it, as do bad
        magic and version mismatches.  ``allowed`` restricts which
        message kinds are acceptable (the handshake uses this so
        pre-auth peers cannot push arbitrary frames); a disallowed
        frame raises without its payload ever being decoded.
        """
        header = self._read_exact(_HEADER.size, "frame header",
                                  clean_eof_ok=True)
        if header is None:
            return None
        magic, version, kind, length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ProtocolError(f"bad frame magic {magic!r}")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: peer speaks {version}, "
                f"this end speaks {PROTOCOL_VERSION}"
            )
        try:
            kind = MessageKind(kind)
        except ValueError as exc:
            raise ProtocolError(f"unknown message kind {kind}") from exc
        if length > MAX_PAYLOAD_BYTES:
            raise ProtocolError(
                f"implausible frame payload length {length}"
            )
        if allowed is not None and kind not in allowed:
            raise ProtocolError(
                f"unexpected {kind.name} frame before authentication"
            )
        body = self._read_exact(length, "frame payload")
        try:
            if kind in _PICKLE_KINDS:
                payload = pickle.loads(body)
            else:
                payload = json.loads(body.decode("utf-8"))
        except Exception as exc:
            raise ProtocolError(f"undecodable frame payload: {exc}") from exc
        return Message(kind=kind, payload=payload)

    # -- short-transfer loops -----------------------------------------
    def _write(self, data: bytes) -> None:
        """Write all of ``data``, looping on partial sends."""
        view = memoryview(data)
        total = len(data)
        sent = 0
        while sent < total:
            n = self._write_some(view[sent:])
            if not n or n < 0:
                raise ProtocolError(
                    f"short write: peer gone after {sent}/{total} bytes"
                )
            sent += n

    def _read_exact(self, n: int, what: str,
                    clean_eof_ok: bool = False) -> bytes | None:
        """Read exactly ``n`` bytes, looping on partial reads.

        EOF before the first byte returns ``None`` when
        ``clean_eof_ok`` (a peer closing *between* frames is normal);
        EOF anywhere else raises :class:`ProtocolError` naming how
        many bytes were transferred.
        """
        if n == 0:
            return b""
        chunks: list[bytes] = []
        got = 0
        while got < n:
            chunk = self._read_some(n - got)
            if not chunk:
                if got == 0 and clean_eof_ok:
                    return None
                raise ProtocolError(
                    f"truncated {what}: end of stream after "
                    f"{got}/{n} bytes"
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def set_deadline(self, seconds: float | None) -> None:
        """Bound subsequent reads/writes (socket transports only)."""

    # -- subclass surface ---------------------------------------------
    def _write_some(self, view: memoryview) -> int:
        raise NotImplementedError

    def _read_some(self, n: int) -> bytes:
        raise NotImplementedError

    def fileno(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SocketTransport(Transport):
    """Frames over a connected socket — ``socketpair`` on one host,
    TCP across hosts; the framing neither knows nor cares.

    :meth:`set_deadline` arms an *absolute* transfer deadline: every
    subsequent read/write adjusts the socket timeout to the time
    remaining, so a peer trickling one byte per timeout window (the
    slowloris pattern) still hits the wall.  ``None`` disarms it.
    """

    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock
        self._deadline: float | None = None

    def set_deadline(self, seconds: float | None) -> None:
        if seconds is None:
            self._deadline = None
            try:
                self._sock.settimeout(None)
            except OSError:
                pass
        else:
            self._deadline = time.monotonic() + seconds

    def _arm(self) -> None:
        if self._deadline is None:
            return
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise ProtocolError("transport deadline exceeded")
        self._sock.settimeout(remaining)

    def _write_some(self, view: memoryview) -> int:
        try:
            self._arm()
            return self._sock.send(view)
        except socket.timeout as exc:
            raise ProtocolError("transport deadline exceeded") from exc
        except OSError as exc:
            raise ProtocolError(f"socket write failed: {exc}") from exc

    def _read_some(self, n: int) -> bytes:
        try:
            self._arm()
            return self._sock.recv(n)
        except socket.timeout as exc:
            raise ProtocolError("transport deadline exceeded") from exc
        except OSError as exc:
            raise ProtocolError(f"socket read failed: {exc}") from exc

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# -- authenticated handshake -------------------------------------------

def _secret_bytes(secret) -> bytes:
    if isinstance(secret, str):
        return secret.encode("utf-8")
    return bytes(secret)


def auth_digest(secret, role: str, *parts: str) -> str:
    """HMAC-SHA256 over ``role|part|part...`` keyed by the secret.

    The role string domain-separates the worker's proof from the
    coordinator's, so one side's response can never be replayed as the
    other's.
    """
    message = "|".join((role,) + parts).encode("utf-8")
    return hmac.new(
        _secret_bytes(secret), message, hashlib.sha256
    ).hexdigest()


def server_handshake(
    transport: Transport,
    secret,
    *,
    deadline: float | None = 5.0,
) -> dict:
    """Authenticate a dialing worker; returns its AUTH payload.

    CHALLENGE ``{nonce}`` -> AUTH ``{nonce, digest, host, pid}`` (HMAC
    over both nonces, plus the worker's identity) -> WELCOME
    ``{digest}`` (the coordinator's mutual HMAC).  The frame header
    carries the protocol version check and ASSIGN the heartbeat
    interval, so the handshake carries nothing else; keys a peer does
    not read are ignored.

    Verification uses :func:`hmac.compare_digest` (constant time); any
    failure raises :class:`AuthError` after best-effort sending a typed
    ERROR frame so the peer learns why.  ``deadline`` bounds the whole
    exchange on deadline-capable transports.
    """
    if not secret:
        raise ValueError("cluster handshake requires a shared secret")
    transport.set_deadline(deadline)
    try:
        nonce = os.urandom(16).hex()
        transport.send(MessageKind.CHALLENGE, {"nonce": nonce})
        message = transport.recv(allowed=(MessageKind.AUTH,))
        if message is None:
            raise AuthError("peer closed during handshake")
        payload = message.payload if isinstance(message.payload, dict) else {}
        peer_nonce = payload.get("nonce")
        peer_digest = payload.get("digest")
        if not peer_nonce or not peer_digest:
            _refuse(transport, "peer sent no credentials "
                               "(missing --cluster-secret?)")
        expected = auth_digest(secret, "worker", nonce, peer_nonce)
        if not hmac.compare_digest(expected, str(peer_digest)):
            _refuse(transport, "worker failed authentication "
                               "(wrong cluster secret?)")
        transport.send(
            MessageKind.WELCOME,
            {"digest": auth_digest(secret, "coordinator", peer_nonce, nonce)},
        )
        return payload
    finally:
        transport.set_deadline(None)


def client_handshake(
    transport: Transport,
    secret,
    *,
    deadline: float | None = 5.0,
    info: dict | None = None,
) -> dict:
    """Answer a coordinator's challenge; returns the WELCOME payload.

    Raises :class:`AuthError` when the coordinator refuses us or fails
    the *mutual* proof (a listener that cannot prove knowledge of the
    secret never receives work from this worker).
    """
    transport.set_deadline(deadline)
    try:
        message = transport.recv(
            allowed=(MessageKind.CHALLENGE, MessageKind.ERROR)
        )
        if message is None:
            raise AuthError("coordinator closed before challenging")
        if message.kind is MessageKind.ERROR:
            raise AuthError(_error_text(message.payload))
        challenge = (
            message.payload if isinstance(message.payload, dict) else {}
        )
        coord_nonce = challenge.get("nonce")
        if not coord_nonce:
            raise AuthError("coordinator sent an empty challenge")
        nonce = os.urandom(16).hex()
        payload = dict(info or {})
        payload.update(
            nonce=nonce,
            digest=(
                auth_digest(secret, "worker", coord_nonce, nonce)
                if secret
                else None
            ),
        )
        transport.send(MessageKind.AUTH, payload)
        message = transport.recv(
            allowed=(MessageKind.WELCOME, MessageKind.ERROR)
        )
        if message is None:
            raise AuthError("coordinator closed during handshake")
        if message.kind is MessageKind.ERROR:
            raise AuthError(_error_text(message.payload))
        welcome = (
            message.payload if isinstance(message.payload, dict) else {}
        )
        if not secret:
            raise AuthError(
                "coordinator requires authentication but no cluster "
                "secret is configured"
            )
        expected = auth_digest(secret, "coordinator", nonce, coord_nonce)
        if not hmac.compare_digest(
            expected, str(welcome.get("digest") or "")
        ):
            raise AuthError(
                "coordinator failed mutual authentication "
                "(wrong cluster secret?)"
            )
        return welcome
    finally:
        transport.set_deadline(None)


def _refuse(transport: Transport, reason: str) -> None:
    """Best-effort typed refusal, then raise :class:`AuthError`."""
    try:
        transport.send(
            MessageKind.ERROR,
            {"error_type": "AuthError", "error": reason},
        )
    except ProtocolError:
        pass
    raise AuthError(reason)


def _error_text(payload) -> str:
    if isinstance(payload, dict):
        return (
            f"{payload.get('error_type', 'AuthError')}: "
            f"{payload.get('error', 'handshake refused')}"
        )
    return "handshake refused"
