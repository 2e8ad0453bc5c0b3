"""Seedable fault-injection harness.

Every injector is deterministic given its ``seed``: the same seed
produces the same corrupted bytes, the same crashing flows, and the
same worker deaths, so recovery tests are reproducible and CI can run
a fixed seed matrix.

Injection points mirror the failure domains the robustness layer
covers:

==============================  =====================================
injector                        exercises
==============================  =====================================
:func:`corrupt_pcap_bytes`      raw byte damage (fuzzing primitive)
:func:`corrupt_pcap_records`    record-aware framing damage →
                                :class:`~repro.packet.pcap.PcapReader`
                                resync / skip-and-count
:func:`inject_flow_crash`       analyzer crashes → per-flow
                                quarantine into
                                :class:`~repro.errors.SkippedFlow`
:func:`kill_worker_once`        worker process death → pool retry
                                with backoff
:func:`corrupt_cache_entry`     cache damage → corruption-as-miss
:class:`ChaosProxy`             network faults between cluster peers
                                (drop, delay, duplicate, mid-frame
                                truncation, blackhole) → handshake
                                deadlines, heartbeat-loss detection,
                                shard reassignment
==============================  =====================================

Process-crossing injectors (:func:`inject_flow_crash`,
:func:`kill_worker_once`) work by setting module-level hooks that
fork-based worker pools inherit; both are context managers that always
restore the previous hook.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER = struct.Struct("<IIII")

#: ``incl_len`` value planted by the ``length`` damage mode — far over
#: the reader's ``_MAX_RECORD_BYTES`` bound, so framing recovery (not
#: packet decoding) must handle it.
_BOGUS_INCL_LEN = 0x00FF_FFFF


@dataclass
class FaultPlan:
    """What :func:`corrupt_pcap_records` did to a capture file."""

    seed: int
    records_total: int = 0
    damaged: list[int] = field(default_factory=list)  # record indices
    modes: list[str] = field(default_factory=list)    # mode per index

    @property
    def records_damaged(self) -> int:
        return len(self.damaged)

    def describe(self) -> str:
        pairs = ", ".join(
            f"#{index}:{mode}"
            for index, mode in zip(self.damaged, self.modes)
        )
        return (
            f"seed {self.seed}: damaged {self.records_damaged}/"
            f"{self.records_total} records ({pairs})"
        )


def corrupt_pcap_bytes(
    data: bytes,
    seed: int,
    flips: int = 0,
    truncate_to: int | None = None,
    skip_global_header: bool = True,
) -> bytes:
    """Fuzzing primitive: flip ``flips`` random bits, then truncate.

    Bit positions are drawn from ``random.Random(seed)``.  With
    ``skip_global_header`` (default) the 24-byte pcap global header is
    left intact so the damage lands in record space — flipping the
    magic just makes every budget reject the file at open, which is a
    separate (and far less interesting) test.
    """
    rng = random.Random(seed)
    out = bytearray(data)
    lo = _GLOBAL_HEADER_LEN if skip_global_header else 0
    if len(out) > lo:
        for _ in range(flips):
            pos = rng.randrange(lo, len(out))
            out[pos] ^= 1 << rng.randrange(8)
    if truncate_to is not None:
        del out[max(0, truncate_to):]
    return bytes(out)


def _iter_record_spans(data: bytes) -> list[tuple[int, int]]:
    """(header_offset, incl_len) for each record of a classic pcap."""
    spans: list[tuple[int, int]] = []
    offset = _GLOBAL_HEADER_LEN
    while offset + _RECORD_HEADER.size <= len(data):
        incl_len = _RECORD_HEADER.unpack_from(data, offset)[2]
        if offset + _RECORD_HEADER.size + incl_len > len(data):
            break
        spans.append((offset, incl_len))
        offset += _RECORD_HEADER.size + incl_len
    return spans


#: Damage modes applied round-robin by :func:`corrupt_pcap_records`.
DAMAGE_MODES = ("length", "zero_header", "flip_body", "garbage_body")


def corrupt_pcap_records(
    src: str | Path,
    dst: str | Path,
    fraction: float = 0.01,
    seed: int = 0,
    modes: tuple[str, ...] = DAMAGE_MODES,
) -> FaultPlan:
    """Damage a deterministic ~``fraction`` of the records in ``src``.

    Writes the corrupted capture to ``dst`` and returns the
    :class:`FaultPlan` describing exactly which records were hit and
    how.  Damage modes:

    * ``length`` — overwrite ``incl_len`` with an implausibly large
      value (framing recovery must resync past the stale body);
    * ``zero_header`` — zero the 16-byte record header;
    * ``flip_body`` — flip a few random bits inside the packet body
      (frame stays intact; packet decoding must cope);
    * ``garbage_body`` — overwrite the body with random bytes
      (decoding fails; the reader skips and counts).
    """
    src, dst = Path(src), Path(dst)
    data = bytearray(src.read_bytes())
    spans = _iter_record_spans(bytes(data))
    plan = FaultPlan(seed=seed, records_total=len(spans))
    if not spans:
        dst.write_bytes(bytes(data))
        return plan
    rng = random.Random(seed)
    count = max(1, round(fraction * len(spans)))
    plan.damaged = sorted(rng.sample(range(len(spans)), min(count, len(spans))))
    for position, index in enumerate(plan.damaged):
        offset, incl_len = spans[index]
        body = offset + _RECORD_HEADER.size
        mode = modes[position % len(modes)]
        plan.modes.append(mode)
        if mode == "length":
            struct.pack_into("<I", data, offset + 8, _BOGUS_INCL_LEN)
        elif mode == "zero_header":
            data[offset:body] = bytes(_RECORD_HEADER.size)
        elif mode == "flip_body" and incl_len:
            for _ in range(3):
                pos = body + rng.randrange(incl_len)
                data[pos] ^= 1 << rng.randrange(8)
        elif mode == "garbage_body" and incl_len:
            data[body : body + incl_len] = rng.randbytes(incl_len)
    dst.write_bytes(bytes(data))
    return plan


# -- analyzer crashes ---------------------------------------------------


def _key_hash(key: object, seed: int) -> float:
    """Stable per-flow uniform in [0, 1) — identical in every worker."""
    digest = hashlib.sha256(f"{seed}:{key!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class InjectedFault(RuntimeError):
    """The exception :func:`inject_flow_crash` raises by default."""


@contextlib.contextmanager
def inject_flow_crash(
    fraction: float | None = None,
    seed: int = 0,
    keys: set | None = None,
    error: Exception | None = None,
):
    """Make the analyzer crash on a deterministic subset of flows.

    Selection is by a stable hash of the flow key (``fraction`` +
    ``seed``) and/or an explicit ``keys`` set, so the same flows crash
    no matter how the stream is chunked or which worker analyzes them.
    The crash is raised from inside :meth:`Tapo.analyze_flow
    <repro.core.tapo.Tapo.analyze_flow>` via the module's ``FLOW_HOOK``
    seam, which fork-based pools inherit.
    """
    from ..core import tapo as tapo_module

    fault = error if error is not None else InjectedFault(
        "injected analyzer fault"
    )

    def hook(flow) -> None:
        if keys is not None and flow.key in keys:
            raise fault
        if fraction is not None and _key_hash(flow.key, seed) < fraction:
            raise fault

    previous = tapo_module.FLOW_HOOK
    tapo_module.FLOW_HOOK = hook
    try:
        yield hook
    finally:
        tapo_module.FLOW_HOOK = previous


@contextlib.contextmanager
def kill_worker_once(sentinel_dir: str | Path, exit_code: int = 42):
    """Kill the first *worker* process that analyzes or simulates a flow.

    The kill fires at most once — a sentinel file created with
    ``O_CREAT | O_EXCL`` arbitrates between racing workers — and never
    in the parent process, so the pool's retry path (not the caller)
    has to absorb the death.  The sentinel lives in ``sentinel_dir``;
    use a fresh temp dir per test.
    """
    from ..core import tapo as tapo_module
    from ..experiments import parallel as parallel_module

    sentinel = Path(sentinel_dir) / "kill_worker_once.sentinel"
    parent = os.getpid()

    def hook(flow) -> None:
        if os.getpid() == parent:
            return
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(exit_code)

    def dying_run_flow(scenario, **kwargs):
        hook(scenario)
        return run_flow(scenario, **kwargs)

    previous = tapo_module.FLOW_HOOK
    run_flow = parallel_module.run_flow
    tapo_module.FLOW_HOOK = hook
    parallel_module.run_flow = dying_run_flow
    try:
        yield sentinel
    finally:
        tapo_module.FLOW_HOOK = previous
        parallel_module.run_flow = run_flow


# -- cache damage -------------------------------------------------------


def corrupt_cache_entry(
    path: str | Path, seed: int = 0, flips: int = 16
) -> int:
    """Flip ``flips`` random bits inside a cache entry file.

    Returns the number of bits flipped (0 for an empty file).  The
    entry's payload checksum guarantees the cache detects the damage
    and treats the entry as a recoverable miss.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return 0
    rng = random.Random(seed)
    for _ in range(flips):
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    return flips


# -- network faults -----------------------------------------------------


@dataclass(frozen=True)
class NetFaultPlan:
    """What :class:`ChaosProxy` does to one traffic direction.

    Rates are per forwarded chunk (one ``recv`` worth of bytes, i.e.
    roughly one frame for the cluster protocol's write pattern), drawn
    from the direction's seeded RNG:

    * ``drop_rate`` — silently discard the chunk (the framed stream
      desynchronizes; the receiver sees bad magic or a truncated
      frame and must treat the peer as lost);
    * ``duplicate_rate`` — forward the chunk twice (stream corruption
      from the other side: bytes after a valid frame that are not a
      frame header);
    * ``truncate_rate`` — forward a strict prefix of the chunk, then
      tear the connection down: the canonical mid-frame EOF;
    * ``delay`` — sleep this long before forwarding each chunk (slow
      link; must *not* trip liveness detection by itself);
    * ``blackhole_after`` — after this many forwarded bytes, keep the
      connection open but forward nothing ever again (the half-open
      peer TCP cannot detect without keepalives — only heartbeat
      deadlines catch it);
    * ``bytes_before_faults`` — let this many bytes through untouched
      first (e.g. let the handshake complete so the fault lands on an
      authenticated session).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    truncate_rate: float = 0.0
    delay: float = 0.0
    blackhole_after: int | None = None
    bytes_before_faults: int = 0


class _FaultGate:
    """Deterministic per-direction fault decisions.

    Split from the proxy's pump threads so the decision sequence is
    unit-testable without sockets: feed chunks to :meth:`apply` and
    assert on the returned actions.
    """

    def __init__(self, plan: NetFaultPlan, rng: random.Random):
        self.plan = plan
        self.rng = rng
        self.forwarded = 0
        self.blackholed = False
        #: One entry per chunk: pass/drop/duplicate/truncate/blackhole.
        self.actions: list[str] = []

    def apply(self, chunk: bytes) -> tuple[list[bytes], bool]:
        """Decide one chunk's fate: ``(pieces_to_forward, close_now)``.

        An empty piece list with ``close_now`` false means the chunk
        vanished (drop or blackhole) but the connection stays up.
        """
        plan = self.plan
        if self.blackholed or (
            plan.blackhole_after is not None
            and self.forwarded >= plan.blackhole_after
        ):
            self.blackholed = True
            self.actions.append("blackhole")
            return [], False
        if plan.blackhole_after is not None and (
            self.forwarded + len(chunk) > plan.blackhole_after
        ):
            # The threshold lands mid-chunk: forward exactly up to it,
            # swallow the rest.  Cutting by byte count (not chunk
            # boundary) keeps the engagement point independent of how
            # TCP happened to coalesce the stream.
            keep = plan.blackhole_after - self.forwarded
            self.forwarded = plan.blackhole_after
            self.blackholed = True
            self.actions.append("blackhole")
            return ([chunk[:keep]] if keep else []), False
        if self.forwarded < plan.bytes_before_faults:
            self.forwarded += len(chunk)
            self.actions.append("pass")
            return [chunk], False
        roll = self.rng.random()
        if roll < plan.drop_rate:
            self.actions.append("drop")
            return [], False
        roll -= plan.drop_rate
        if roll < plan.truncate_rate and len(chunk) > 1:
            cut = 1 + self.rng.randrange(len(chunk) - 1)
            self.forwarded += cut
            self.actions.append("truncate")
            return [chunk[:cut]], True
        roll -= plan.truncate_rate
        if roll < plan.duplicate_rate:
            self.forwarded += 2 * len(chunk)
            self.actions.append("duplicate")
            return [chunk, chunk], False
        self.forwarded += len(chunk)
        self.actions.append("pass")
        return [chunk], False


class ChaosProxy:
    """A seedable TCP proxy that injects network faults between
    cluster peers.

    Sits between dial-in workers and a ``repro-paper cluster --listen``
    coordinator (or any TCP pair): workers connect to
    :attr:`address`, each accepted connection is dialed through to the
    target, and every chunk of each direction passes a
    :class:`_FaultGate` driven by a per-connection, per-direction RNG
    — connection ``i``'s client→server gate seeds from
    ``(seed * 1000003 + i) * 2``, server→client from ``... * 2 + 1`` —
    so a given ``(seed, plan)`` replays the identical fault sequence
    every run.

    ``plan_for(conn_index)`` lets a test give each connection its own
    plan (worker 0 clean, worker 1 blackholed, worker 2 truncating…);
    otherwise every connection uses ``plan``.  Use as a context
    manager, or :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        seed: int = 0,
        plan: NetFaultPlan | None = None,
        plan_for=None,
    ):
        self.target = (target_host, target_port)
        self.seed = seed
        self.plan = plan or NetFaultPlan()
        self.plan_for = plan_for
        self.connections: list[dict] = []
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._sockets: list[socket.socket] = []
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("ChaosProxy is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(32)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # Same wake-up trick for the accept loop: on Linux a
            # blocked accept() survives close() but not shutdown().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            # shutdown() wakes a pump thread blocked in recv(); close()
            # alone would leave it pinned until the join timeout.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- internals ----------------------------------------------------
    def _accept_loop(self) -> None:
        index = 0
        while not self._stopping.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.target, timeout=10)
            except OSError:
                client.close()
                continue
            plan = (
                self.plan_for(index) if self.plan_for is not None
                else self.plan
            )
            base = self.seed * 1000003 + index
            gates = {
                "c2s": _FaultGate(plan, random.Random(base * 2)),
                "s2c": _FaultGate(plan, random.Random(base * 2 + 1)),
            }
            with self._lock:
                self._sockets.extend((client, upstream))
                self.connections.append(
                    {"index": index, "plan": plan, **gates}
                )
            for name, src, dst in (
                ("c2s", client, upstream),
                ("s2c", upstream, client),
            ):
                pump = threading.Thread(
                    target=self._pump,
                    args=(src, dst, gates[name]),
                    name=f"chaos-{name}-{index}",
                    daemon=True,
                )
                pump.start()
                self._threads.append(pump)
            index += 1

    def _pump(
        self, src: socket.socket, dst: socket.socket, gate: _FaultGate
    ) -> None:
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                pieces, close_now = gate.apply(chunk)
                if gate.plan.delay:
                    time.sleep(gate.plan.delay)
                for piece in pieces:
                    dst.sendall(piece)
                if close_now:
                    # Mid-frame truncation: hard-close both directions
                    # so each side sees the torn stream immediately.
                    src.close()
                    dst.close()
                    return
        except OSError:
            pass
        finally:
            if gate.blackholed:
                # Half-open simulation: keep both sockets up, just
                # never forward again.  The peers must detect this via
                # deadlines, not FIN/RST.
                return
            try:
                dst.shutdown(socket.SHUT_WR)  # propagate half-close
            except OSError:
                try:
                    dst.close()
                except OSError:
                    pass
