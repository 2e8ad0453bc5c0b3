"""Windowed capture I/O: pipe sources, early stops, bounded mappings.

``PcapReader.iter_columns`` reads a capture one window at a time and
releases each window before yielding its batch.  These tests feed the
same capture through a regular file and through a FIFO (the shape of
``cat capture.pcap | tapo /dev/stdin``) and require the same rows,
counters and reports, and on Linux they watch ``/proc/self`` to check
that no more than a window of the capture is ever mapped.
"""

import contextlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.config import AnalysisConfig, RunConfig
from repro.core.report import ServiceReport
from repro.core.tapo import Tapo
from repro.packet.pcap import (
    COLUMN_BUFFER_BYTES,
    PcapFormatError,
    PcapReader,
    write_pcap,
)
from repro.testing import generate_trace

needs_fifo = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="platform has no FIFOs"
)
needs_proc = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="needs Linux /proc"
)

SMALL_WINDOW = 64 << 10


@pytest.fixture(scope="module")
def capture(tmp_path_factory) -> Path:
    """A capture larger than one default window, so at any window
    size some record straddles two reads."""
    path = tmp_path_factory.mktemp("windows") / "capture.pcap"
    write_pcap(path, generate_trace(7, flows=420))
    assert path.stat().st_size > COLUMN_BUFFER_BYTES
    return path


@pytest.fixture(scope="module")
def small(tmp_path_factory) -> Path:
    """A capture of a few hundred KiB, for windows of a few records."""
    path = tmp_path_factory.mktemp("windows") / "small.pcap"
    write_pcap(path, generate_trace(7, flows=24))
    return path


def truncated(capture: Path, directory: Path) -> Path:
    """A copy of ``capture`` cut 37 bytes into its last record."""
    path = directory / ("truncated-" + capture.name)
    path.write_bytes(capture.read_bytes()[:-37])
    return path


@contextlib.contextmanager
def fifo_of(source: Path, directory: Path):
    """A FIFO that serves ``source``'s bytes to the one reader that
    opens it, written by a thread; a reader that stops early breaks
    the pipe, which the writer shrugs off."""
    path = directory / (source.name + ".fifo")
    os.mkfifo(path)
    data = source.read_bytes()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if writer.is_alive():
            # Nobody opened the read end: open it so the writer's
            # open() returns and its write hits a closed pipe.
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
        path.unlink()


def read_columns(path, buffer_bytes, errors="strict"):
    """``(batch sizes, records, counters, error)`` of one
    ``iter_columns`` pass; ``error`` is what the pass raised, if
    anything, after the batches before it."""
    sizes, records, error = [], [], None
    with PcapReader(path, errors=errors) as reader:
        try:
            for cols in reader.iter_columns(buffer_bytes):
                sizes.append(len(cols))
                records.extend(cols.records())
        except PcapFormatError as exc:
            error = str(exc)
        counters = (
            reader.records_read, reader.skipped, reader.corrupt_records,
            reader.resyncs, reader.bytes_skipped, reader.option_errors,
        )
    return sizes, records, counters, error


def report_json(analyses) -> str:
    report = ServiceReport(service="windows")
    for analysis in analyses:
        report.add(analysis)
    return report.to_json()


def fault_counts(tapo: Tapo) -> tuple:
    faults = tapo.faults
    return (faults.corrupt_records, faults.resyncs, faults.option_errors,
            faults.flows_skipped)


@needs_fifo
class TestPipeSources:
    """A FIFO gives what the file gives.  The window spans the same
    bytes either way, so even the batch boundaries agree."""

    @pytest.mark.parametrize(
        "name, buffer_bytes",
        [("small", 120), ("small", 999), ("capture", SMALL_WINDOW),
         ("capture", COLUMN_BUFFER_BYTES)],
    )
    def test_iter_columns(self, request, tmp_path, name, buffer_bytes):
        """120 bytes is less than most records: the window doubles."""
        path = request.getfixturevalue(name)
        expected = read_columns(path, buffer_bytes)
        assert len(expected[0]) > 1 and expected[3] is None
        with fifo_of(path, tmp_path) as fifo:
            assert read_columns(fifo, buffer_bytes) == expected

    @pytest.mark.parametrize("errors", ["strict", "lenient"])
    @pytest.mark.parametrize("buffer_bytes", [999, COLUMN_BUFFER_BYTES])
    def test_truncated_tail(self, small, tmp_path, errors, buffer_bytes):
        path = truncated(small, tmp_path)
        expected = read_columns(path, buffer_bytes, errors)
        if errors == "strict":
            assert expected[3] == "pcap packet body truncated"
        else:
            assert expected[3] is None and expected[2][2] == 1
        with fifo_of(path, tmp_path) as fifo:
            assert read_columns(fifo, buffer_bytes, errors) == expected

    def test_analyze_pcap(self, capture, tmp_path):
        tapo = Tapo(AnalysisConfig(errors="lenient"))
        expected = report_json(tapo.analyze_pcap(capture))
        expected_faults = fault_counts(tapo)
        with fifo_of(capture, tmp_path) as fifo:
            assert report_json(tapo.analyze_pcap(fifo)) == expected
        assert fault_counts(tapo) == expected_faults

    def test_analyze_stream(self, capture, tmp_path):
        path = truncated(capture, tmp_path)
        tapo = Tapo(AnalysisConfig(errors="lenient"))
        run = RunConfig(idle_timeout=30.0, close_linger=2.0)
        expected = report_json(tapo.analyze_stream(path, run=run))
        expected_faults = fault_counts(tapo)
        assert expected_faults[0] == 1
        with fifo_of(path, tmp_path) as fifo:
            streamed = report_json(tapo.analyze_stream(fifo, run=run))
        assert streamed == expected
        assert fault_counts(tapo) == expected_faults

    @pytest.mark.skipif(
        not Path("/dev/stdin").exists(), reason="no /dev/stdin"
    )
    def test_cli_reads_a_pipe(self, capture):
        """``cat capture | tapo /dev/stdin --json`` prints what the
        same command prints with the capture redirected from a file."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        command = [sys.executable, "-m", "repro.core.cli", "/dev/stdin",
                   "--json"]
        with open(capture, "rb") as fh:
            from_file = subprocess.run(
                command, stdin=fh, capture_output=True, env=env,
                timeout=120,
            )
        piped = subprocess.run(
            command, input=capture.read_bytes(), capture_output=True,
            env=env, timeout=120,
        )
        assert from_file.returncode == 0, from_file.stderr
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == from_file.stdout


def mapped_lines(path: Path) -> list[str]:
    """Lines of ``/proc/self/maps`` that map ``path``."""
    target = os.path.realpath(path)
    with open("/proc/self/maps") as fh:
        return [line for line in fh if line.rstrip().endswith(target)]


def rss_file_kib() -> int:
    """Resident file-backed pages of this process, in KiB (a file on
    tmpfs counts as ``RssShmem``, so both are summed)."""
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return sum(int(fields[key].split()[0]) for key in ("RssFile", "RssShmem"))


@needs_proc
class TestWindowLifecycle:
    @pytest.mark.parametrize("stop", ["next", "analyzer error"])
    def test_early_stop_leaves_nothing_mapped(self, capture, stop):
        """A caller that keeps the generator but stops reading holds no
        mapping of the capture once the reader is closed."""
        reader = PcapReader(capture)
        batches = reader.iter_columns(SMALL_WINDOW)
        if stop == "next":
            next(batches)
        else:
            with pytest.raises(RuntimeError):
                for _cols in batches:
                    raise RuntimeError("analyzer crashed")
        reader.close()
        assert mapped_lines(capture) == []
        batches.close()

    def test_file_backed_rss_stays_within_two_windows(self, capture):
        assert capture.stat().st_size >= 8 * SMALL_WINDOW
        with PcapReader(capture) as reader:  # warm the decode path
            for _cols in reader.iter_columns(SMALL_WINDOW):
                pass
        baseline = rss_file_kib()
        growth = []
        with PcapReader(capture) as reader:
            for _cols in reader.iter_columns(SMALL_WINDOW):
                growth.append(rss_file_kib() - baseline)
        assert len(growth) >= 8
        assert max(growth) <= 2 * SMALL_WINDOW // 1024, growth
