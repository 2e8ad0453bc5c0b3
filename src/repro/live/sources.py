"""Live capture sources: growing files, rotating directories, stdin.

Batch analysis reads a *finished* pcap; a monitoring daemon reads one
that is still being written.  Every source here is built on the same
incremental :class:`~repro.packet.pcap.PcapScanner` state machine the
batch :class:`~repro.packet.pcap.PcapReader` uses, so framing
recovery, error-budget accounting, and fault counters are identical
between a one-shot run and a live tail of the same bytes — the
property the daemon's batch-equivalence guarantee rests on.

The common contract (:class:`LiveSource`) hands over
:class:`~repro.packet.columnar.PacketColumns` batches, the one form
the daemon pumps and every analyzer consumes (``cols.records()`` gives
packet objects where a caller wants them):

* :meth:`~LiveSource.poll_columns` yields every packet decodable from
  the bytes available *right now*, as non-empty batches, and returns —
  it never blocks waiting for growth, so the daemon loop stays
  responsive to signals and checkpoints between polls;
* :meth:`~LiveSource.finish_columns` declares end-of-input: remaining
  bytes are drained and a truncated tail is judged under the error
  budget (exactly like a batch reader hitting EOF);
* :meth:`~LiveSource.checkpoint` returns a JSON-serializable resume
  state.  Offsets count *consumed* bytes only — bytes buffered inside
  the scanner but not yet judged are re-read on resume, so no parsed
  record is replayed and none is lost.
"""

from __future__ import annotations

import io
import os
import select
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from ..errors import ErrorBudget, FaultStats
from ..packet.columnar import PacketColumns
from ..packet.pcap import (
    READ_BUFFER_BYTES,
    PcapFormatError,
    PcapScanner,
    parse_global_header,
)

#: Size of the classic pcap global header.
PCAP_HEADER_BYTES = 24


@dataclass
class SourceCounters:
    """The counter surface :class:`~repro.packet.pcap.PcapScanner`
    writes into — same attribute names as
    :class:`~repro.packet.pcap.PcapReader`, shared across every file a
    rotating source opens so totals are cumulative."""

    records_read: int = 0
    skipped: int = 0
    corrupt_records: int = 0
    resyncs: int = 0
    bytes_skipped: int = 0
    option_errors: int = 0
    checksum_errors: int = 0
    #: Verify each decoded packet's TCP checksum and count failures
    #: in ``checksum_errors``.
    verify_checksums: bool = False

    def fold_faults(self, faults: FaultStats) -> None:
        faults.corrupt_records += self.corrupt_records
        faults.resyncs += self.resyncs
        faults.option_errors += self.option_errors
        faults.checksum_errors += self.checksum_errors

    def to_state(self) -> dict:
        return asdict(self)

    @classmethod
    def from_state(cls, state: dict) -> "SourceCounters":
        """Restore from a checkpoint, taking the fields this version
        knows: older checkpoints carry counters since removed."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in state.items() if k in known})


class LiveSource:
    """Interface shared by every live capture source."""

    name = "source"
    counters: SourceCounters

    def poll_columns(self) -> Iterator[PacketColumns]:
        """Yield everything decodable from currently available bytes
        as non-empty :class:`PacketColumns` batches, then return
        (never blocks on input growth)."""
        raise NotImplementedError

    def finish_columns(self) -> Iterator[PacketColumns]:
        """Declare end-of-input and drain the tail under the budget."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """Whether no further data can ever arrive (e.g. stdin EOF)."""
        return False

    def checkpoint(self) -> dict:
        """JSON-serializable resume state."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def fold_faults(self, faults: FaultStats) -> None:
        self.counters.fold_faults(faults)


class _ScanningSource(LiveSource):
    """Shared header-then-scanner plumbing for byte-stream sources."""

    def __init__(
        self,
        errors: "ErrorBudget | str | None" = None,
        counters: SourceCounters | None = None,
    ):
        self.errors = ErrorBudget.parse(errors)
        self.counters = counters if counters is not None else SourceCounters()
        self._scanner: PcapScanner | None = None
        self._header = b""
        self._base = 0       # consumed-offset baseline (header/resume)
        self._pushed = 0     # bytes pushed into the scanner since base
        self._finished = False

    @property
    def offset(self) -> int:
        """Consumed byte offset: resuming a read here replays no
        already-parsed record and skips none."""
        if self._scanner is None:
            return 0
        return self._base + self._pushed - self._scanner.pending_bytes

    def _attach(self, endian: str, linktype: int, base: int) -> None:
        self._scanner = PcapScanner(
            endian, linktype, self.errors, counters=self.counters
        )
        self._base = base

    def _ingest(self, data: bytes) -> None:
        """Feed raw capture bytes, parsing the global header first."""
        if self._scanner is not None:
            self._pushed += len(data)
            self._scanner.push(data)
            return
        self._header += data
        if len(self._header) < PCAP_HEADER_BYTES:
            return
        endian, linktype = parse_global_header(
            self._header[:PCAP_HEADER_BYTES]
        )
        rest = self._header[PCAP_HEADER_BYTES:]
        self._header = b""
        self._attach(endian, linktype, base=PCAP_HEADER_BYTES)
        if rest:
            self._pushed += len(rest)
            self._scanner.push(rest)

    def _judge_truncated_header(self) -> None:
        if not self.errors.tolerant:
            raise PcapFormatError("pcap global header truncated")
        self.counters.corrupt_records += 1
        self.counters.bytes_skipped += len(self._header)
        self._header = b""

    def _drain_columns(self) -> Iterator[PacketColumns]:
        """Everything the scanner has framed so far, if anything."""
        if self._scanner is not None:
            columns = self._scanner.drain_columns()
            if len(columns):
                yield columns

    def _finish_scan_columns(self) -> Iterator[PacketColumns]:
        """Judge the tail: a partial header or record becomes a fault."""
        if self._finished:
            return
        if self._scanner is not None:
            self._scanner.finish()
            yield from self._drain_columns()
        elif self._header:
            self._judge_truncated_header()
        self._finished = True


class PcapTailSource(_ScanningSource):
    """Follow-mode tail of a growing pcap file.

    Reads whatever the writer has flushed so far; a record half-written
    at poll time simply waits in the scanner until the rest lands.
    ``offset`` supports resume: pass the checkpointed value to continue
    exactly where a previous process stopped.  A file *smaller* than
    the resume offset means the path was recycled with new content
    (appending writers never shrink), so the source starts over at 0.
    """

    name = "pcap_tail"

    def __init__(
        self,
        path: str | Path,
        errors: "ErrorBudget | str | None" = None,
        offset: int = 0,
        counters: SourceCounters | None = None,
    ):
        super().__init__(errors, counters)
        self.path = Path(path)
        # Unbuffered so reads past a previous EOF see appended bytes.
        self._file = open(self.path, "rb", buffering=0)
        if offset:
            if os.fstat(self._file.fileno()).st_size < offset:
                offset = 0  # path recycled: a fresh capture lives here
            else:
                raw = self._file.read(PCAP_HEADER_BYTES)
                endian, linktype = parse_global_header(raw)
                self._file.seek(offset)
                self._attach(endian, linktype, base=offset)

    def poll_columns(self) -> Iterator[PacketColumns]:
        if self._finished:
            return
        while True:
            data = self._file.read(READ_BUFFER_BYTES)
            if not data:
                return
            self._ingest(data)
            yield from self._drain_columns()

    def finish_columns(self) -> Iterator[PacketColumns]:
        yield from self.poll_columns()
        yield from self._finish_scan_columns()

    def checkpoint(self) -> dict:
        return {
            "type": self.name,
            "path": str(self.path),
            "offset": self.offset,
            "counters": self.counters.to_state(),
        }

    @classmethod
    def restore(
        cls, state: dict, errors: "ErrorBudget | str | None" = None
    ) -> "PcapTailSource":
        return cls(
            state["path"],
            errors=errors,
            offset=state["offset"],
            counters=SourceCounters.from_state(state["counters"]),
        )

    def close(self) -> None:
        self._file.close()


class RotatingDirectorySource(LiveSource):
    """Watch a directory of rotating capture files.

    Matching files are processed in lexicographic name order — the
    convention of every rotating-capture writer (``tcpdump -W``,
    timestamped names): names grow monotonically.  The newest matching
    file is tailed; the moment a strictly newer name appears, the
    current file is finalized (its tail judged under the budget),
    recorded in the dedup set, and the watcher moves on.  A finished
    name never re-enters processing even if its mtime changes.

    All files share one :class:`SourceCounters`, so fault totals span
    the whole rotation history, and one error budget governs the whole
    stream — exactly like a batch run over the concatenated files.
    """

    name = "rotating"

    def __init__(
        self,
        directory: str | Path,
        pattern: str = "*.pcap",
        errors: "ErrorBudget | str | None" = None,
    ):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(
                f"not a directory: {self.directory}"
            )
        self.pattern = pattern
        self.errors = ErrorBudget.parse(errors)
        self.counters = SourceCounters()
        self._done: set[str] = set()
        self._tail: PcapTailSource | None = None
        self._finished = False
        self.files_completed = 0

    # -- directory scanning -------------------------------------------
    def _pending(self) -> list[str]:
        """Matching names not yet finished and not currently tailed,
        in processing order."""
        current = self._tail.path.name if self._tail is not None else None
        return sorted(
            p.name
            for p in self.directory.glob(self.pattern)
            if p.is_file()
            and p.name not in self._done
            and p.name != current
        )

    def _open_tail(self, name: str, offset: int = 0) -> None:
        self._tail = PcapTailSource(
            self.directory / name,
            errors=self.errors,
            offset=offset,
            counters=self.counters,
        )

    def _complete_tail(self) -> None:
        self._done.add(self._tail.path.name)
        self._tail.close()
        self._tail = None
        self.files_completed += 1

    # -- LiveSource ----------------------------------------------------
    def poll_columns(self) -> Iterator[PacketColumns]:
        if self._finished:
            return
        while True:
            if self._tail is None:
                pending = self._pending()
                if not pending:
                    return
                self._open_tail(pending[0])
            yield from self._tail.poll_columns()
            current = self._tail.path.name
            if any(name > current for name in self._pending()):
                # Rotated: a newer file exists, so this one is closed
                # for writing — judge its tail and move on.
                yield from self._tail.finish_columns()
                self._complete_tail()
                continue
            return

    def finish_columns(self) -> Iterator[PacketColumns]:
        if self._finished:
            return
        yield from self.poll_columns()
        while True:
            if self._tail is not None:
                yield from self._tail.finish_columns()
                self._complete_tail()
            pending = self._pending()
            if not pending:
                break
            self._open_tail(pending[0])
        self._finished = True

    def checkpoint(self) -> dict:
        return {
            "type": self.name,
            "directory": str(self.directory),
            "pattern": self.pattern,
            "done": sorted(self._done),
            "current": (
                self._tail.path.name if self._tail is not None else None
            ),
            "offset": self._tail.offset if self._tail is not None else 0,
            "files_completed": self.files_completed,
            "counters": self.counters.to_state(),
        }

    @classmethod
    def restore(
        cls, state: dict, errors: "ErrorBudget | str | None" = None
    ) -> "RotatingDirectorySource":
        source = cls(
            state["directory"], pattern=state["pattern"], errors=errors
        )
        source._done = set(state["done"])
        source.files_completed = state["files_completed"]
        source.counters = SourceCounters.from_state(state["counters"])
        current = state["current"]
        if current is not None:
            path = source.directory / current
            if path.is_file():
                source._open_tail(current, offset=state["offset"])
            else:
                # Rotated away (deleted) while we were down; its unread
                # tail is gone — mark finished so it is not re-awaited.
                source._done.add(current)
        return source

    def close(self) -> None:
        if self._tail is not None:
            self._tail.close()
            self._tail = None


class StdinSource(_ScanningSource):
    """Read a pcap stream from stdin (or any binary stream).

    On a real pipe, availability is probed with :func:`select.select`
    at zero timeout so :meth:`poll_columns` never blocks the daemon loop; on
    plain file-like objects (tests, files) it just reads.  EOF drains
    the tail and marks the source :attr:`exhausted` — a pipe cannot
    grow back.  Checkpointing records no offset: a pipe is not
    seekable, so resume-from-checkpoint replays window state only.
    """

    name = "stdin"

    def __init__(
        self,
        stream=None,
        errors: "ErrorBudget | str | None" = None,
    ):
        super().__init__(errors)
        self._stream = sys.stdin.buffer if stream is None else stream
        try:
            self._fd: int | None = self._stream.fileno()
        except (AttributeError, OSError, io.UnsupportedOperation):
            self._fd = None

    def _read_available(self) -> bytes | None:
        """One non-blocking read: ``None`` = nothing yet, ``b""`` = EOF."""
        if self._fd is None:
            return self._stream.read(READ_BUFFER_BYTES)
        ready, _, _ = select.select([self._fd], [], [], 0.0)
        if not ready:
            return None
        return os.read(self._fd, READ_BUFFER_BYTES)

    def poll_columns(self) -> Iterator[PacketColumns]:
        if self._finished:
            return
        while True:
            data = self._read_available()
            if data is None:
                return
            if data == b"":
                yield from self._finish_scan_columns()
                return
            self._ingest(data)
            yield from self._drain_columns()

    def finish_columns(self) -> Iterator[PacketColumns]:
        if self._finished:
            return
        while True:
            data = self._read_available()
            if not data:
                break
            self._ingest(data)
            yield from self._drain_columns()
        yield from self._finish_scan_columns()

    @property
    def exhausted(self) -> bool:
        return self._finished

    def checkpoint(self) -> dict:
        return {"type": self.name}
