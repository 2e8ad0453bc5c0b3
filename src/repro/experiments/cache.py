"""Content-addressed on-disk cache for simulated datasets.

The paper's measurement section is one dataset analyzed many ways;
this cache extends :func:`~repro.experiments.dataset.build_dataset`'s
in-process memoization across processes, so the bench suite, the CLI,
and ad-hoc scripts all reuse one simulation run.

Keying: entries are addressed by a SHA-256 over the build parameters
(flows per service, seed, service names, each service's full profile
repr) **plus a code-version salt** — a digest of every ``.py`` file in
the ``repro`` package.  Any change to the simulator, the workload
profiles, or the analyzer invalidates every entry automatically; there
is no manual invalidation to forget.

Robustness: entries are written atomically
(:func:`~repro.persist.atomic_write`) and carry a payload checksum.  A
truncated, corrupted, or version-skewed entry is detected at load
time, deleted, and reported as a miss — the caller falls back to
re-simulation.  All disk errors are swallowed: the cache is an
accelerator, never a point of failure.

The cache root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; size is
bounded by an entry count and a byte cap (oldest entries evicted).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from ..errors import CacheError
from ..persist import atomic_write

_MAGIC = b"REPRODS1"

#: What ``pickle.loads`` raises on damaged or version-skewed payloads.
#: Anything outside this set is a real bug and should propagate.
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    MemoryError,
    ValueError,
    TypeError,
)

#: What serializing + atomically writing an entry can legitimately
#: raise; the cache is an accelerator, so these become a counted no-op.
_STORE_ERRORS = (
    OSError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
    RecursionError,
)
_PREFIX = "ds_"
_SUFFIX = ".pkl"

DEFAULT_MAX_ENTRIES = 24
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB

_code_salt: str | None = None


def code_version_salt() -> str:
    """Digest of the ``repro`` package source (cached per process)."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()
    return _code_salt


def dataset_cache_key(
    flows_per_service: int, seed: int, services: tuple[str, ...]
) -> tuple:
    """In-process memo key; the fingerprint below hashes the same
    parameters, so both cache layers agree on identity."""
    return (int(flows_per_service), int(seed), tuple(services))


def dataset_fingerprint(
    flows_per_service: int, seed: int, services: tuple[str, ...]
) -> str:
    """Content address of one dataset build."""
    from ..workload.services import get_profile

    digest = hashlib.sha256()
    digest.update(code_version_salt().encode())
    digest.update(
        repr(dataset_cache_key(flows_per_service, seed, services)).encode()
    )
    for service in services:
        digest.update(repr(get_profile(service)).encode())
    return digest.hexdigest()[:40]


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


class DatasetCache:
    """Bounded store of pickled datasets under a cache directory."""

    def __init__(
        self,
        root: Path | str | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: Entries dropped because the checksum or unpickle failed.
        self.corruptions = 0
        #: Writes that failed (disk full, unpicklable payload, ...).
        self.store_failures = 0

    # -- paths --------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{_PREFIX}{fingerprint}{_SUFFIX}"

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return [
            p
            for p in self.root.iterdir()
            if p.name.startswith(_PREFIX) and p.name.endswith(_SUFFIX)
        ]

    # -- load/store ---------------------------------------------------
    def load(self, fingerprint: str):
        """Return the cached object, or None on miss/corruption."""
        path = self.path_for(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            obj = self._decode(blob)
        except CacheError:
            # Corrupted, truncated, or version-skewed: drop the entry
            # so it is rebuilt.  Corruption is always a recoverable
            # miss, never a failure.
            self.misses += 1
            self.corruptions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU freshness for eviction
        except OSError:
            pass
        return obj

    @staticmethod
    def _verify(blob: bytes) -> bytes | None:
        header = len(_MAGIC) + 32
        if len(blob) < header or not blob.startswith(_MAGIC):
            return None
        checksum = blob[len(_MAGIC) : header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != checksum:
            return None
        return payload

    @classmethod
    def _decode(cls, blob: bytes):
        """Verify and unpickle an entry blob.

        Raises :class:`~repro.errors.CacheError` on any damage so the
        caller has exactly one recovery path (treat as miss).
        """
        payload = cls._verify(blob)
        if payload is None:
            raise CacheError("cache entry failed checksum verification")
        try:
            return pickle.loads(payload)
        except _UNPICKLE_ERRORS as exc:
            raise CacheError(
                f"cache entry failed to unpickle: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def store(self, fingerprint: str, obj) -> Path | None:
        """Atomically write ``obj``; best-effort (None on any error)."""
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            blob = _MAGIC + hashlib.sha256(payload).digest() + payload
            path = self.path_for(fingerprint)
            atomic_write(path, blob)
            self._evict()
            return path
        except _STORE_ERRORS:
            self.store_failures += 1
            return None

    # -- bounds -------------------------------------------------------
    def _evict(self) -> None:
        """Drop oldest entries beyond the entry/byte caps."""
        entries = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(reverse=True)  # newest first
        total = 0
        for index, (_mtime, size, path) in enumerate(entries):
            total += size
            if index >= self.max_entries or total > self.max_bytes:
                try:
                    path.unlink()
                except OSError:
                    pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def disk_cache_enabled() -> bool:
    """Disk caching default; ``REPRO_DISK_CACHE=0`` turns it off."""
    return os.environ.get("REPRO_DISK_CACHE", "1") != "0"
