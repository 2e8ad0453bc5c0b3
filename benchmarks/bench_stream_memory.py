"""Memory-bound proof for the streaming pipeline.

The streaming contract (``Tapo.analyze_stream``) is that memory is
bounded by *open-flow state*, not trace length.  This bench generates
a synthetic trace of sequential short flows lazily (never holding the
trace in memory), streams it through the full demux→analyze pipeline
in a subprocess, and records the subprocess's peak RSS
(``getrusage.ru_maxrss``) plus the demuxer's own
``peak_buffered_packets`` counter.  The same flows are also written to
a pcap file and streamed from disk (``--mode pcap``), so the capture
reader is held to the bound too: it may keep one read window of the
file resident, never the file.

Run at 1x and 10x the packet count, both must stay flat:

* ``peak_buffered_packets`` is the demuxer's actual buffer bound and
  must not grow with trace length at all (sequential flows close and
  evict before the next one ramps up);
* peak RSS may wiggle with allocator noise but must stay well below
  proportional growth (the batch path, measured for contrast, holds
  every packet and grows linearly).

Standalone::

    python benchmarks/bench_stream_memory.py [--json-out out.json]

or via pytest (the CI streaming-smoke job)::

    pytest benchmarks/bench_stream_memory.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

FLOWS_1X = 100
DATA_SEGMENTS = 48  # per flow: 3 handshake + 2*48 data/ack + 3 close
SCALE = 10

#: RSS at 10x must stay under this multiple of RSS at 1x.  Linear
#: growth would show up as ~6-8x (interpreter baseline amortizes the
#: rest); flat streaming lands near 1.0.
RSS_RATIO_LIMIT = 2.0
#: The demuxer's packet buffer bound must not grow with trace length.
BUFFER_RATIO_LIMIT = 1.2


def synthetic_packets(flows: int):
    """Lazily yield ``flows`` sequential request/response flows.

    Each flow: handshake, ``DATA_SEGMENTS`` server data segments (each
    acked), clean FIN close.  Flows are spaced 1 trace-second apart so
    each closes (and is evicted) before the next ramps up.
    """
    from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
    from repro.packet.packet import PacketRecord

    server = (0x0A000001, 80)
    mss = 1448
    for i in range(flows):
        start = i * 1.0
        client = (0x64400001 + (i % 0xFFFF), 20000 + (i % 40000))

        def pkt(src, dst, flags=FLAG_ACK, payload=0, dt=0.0, seq=0, ack=0):
            return PacketRecord(
                timestamp=start + dt,
                src_ip=src[0],
                src_port=src[1],
                dst_ip=dst[0],
                dst_port=dst[1],
                seq=seq,
                ack=ack,
                flags=flags,
                payload_len=payload,
            )

        yield pkt(client, server, flags=FLAG_SYN, seq=100)
        yield pkt(server, client, flags=FLAG_SYN | FLAG_ACK, dt=0.01,
                  seq=300, ack=101)
        yield pkt(client, server, payload=80, dt=0.02, seq=101, ack=301)
        seq = 301
        for j in range(DATA_SEGMENTS):
            dt = 0.03 + j * 0.002
            yield pkt(server, client, payload=mss, dt=dt, seq=seq, ack=181)
            yield pkt(client, server, dt=dt + 0.001, seq=181, ack=seq + mss)
            seq += mss
        dt = 0.03 + DATA_SEGMENTS * 0.002
        yield pkt(server, client, flags=FLAG_FIN | FLAG_ACK, dt=dt,
                  seq=seq, ack=181)
        yield pkt(client, server, flags=FLAG_FIN | FLAG_ACK, dt=dt + 0.001,
                  seq=181, ack=seq + 1)
        yield pkt(server, client, dt=dt + 0.002, seq=seq + 1, ack=182)


def packets_per_flow() -> int:
    return 6 + 2 * DATA_SEGMENTS


def _measure(flows: int, mode: str, capture: str | None = None) -> dict:
    """Subprocess body: stream (or batch) ``flows`` flows — from
    ``capture`` in ``pcap`` mode — and report peaks."""
    import resource

    from repro.config import RunConfig
    from repro.core.tapo import Tapo
    from repro.packet.flow import StreamStats

    stats = StreamStats()
    analyzed = 0
    stalls = 0
    if mode in ("stream", "pcap"):
        source = capture if mode == "pcap" else synthetic_packets(flows)
        for analysis in Tapo().analyze_stream(
            source,
            run=RunConfig(workers=1, idle_timeout=30.0, close_linger=2.0),
            stats=stats,
        ):
            analyzed += 1
            stalls += len(analysis.stalls)
    else:  # batch contrast: holds the whole trace
        for analysis in Tapo().analyze_packets(synthetic_packets(flows)):
            analyzed += 1
            stalls += len(analysis.stalls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": mode,
        "flows": analyzed,
        "packets": flows * packets_per_flow(),
        "stalls": stalls,
        "max_rss_kb": rss_kb,
        "peak_buffered_packets": stats.peak_buffered_packets,
        "peak_active_flows": stats.peak_active_flows,
    }


def run_measure(
    flows: int, mode: str = "stream", capture: str | None = None
) -> dict:
    """Run one measurement in a fresh interpreter (clean RSS baseline)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    extra = ["--capture", capture] if capture else []
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure",
         str(flows), "--mode", mode, *extra],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return json.loads(out.stdout)


def measure_capture(flows: int, directory: str) -> dict:
    """Write ``flows`` flows to a pcap in ``directory`` and stream it
    from disk in a fresh interpreter."""
    from repro.packet.pcap import PcapWriter

    path = os.path.join(directory, f"stream-{flows}.pcap")
    with PcapWriter(path) as writer:
        writer.write_all(synthetic_packets(flows))
    return {**run_measure(flows, "pcap", path),
            "capture_bytes": os.path.getsize(path)}


def compare(flows_1x: int = FLOWS_1X) -> dict:
    one = run_measure(flows_1x)
    ten = run_measure(flows_1x * SCALE)
    batch_ten = run_measure(flows_1x * SCALE, mode="batch")
    with tempfile.TemporaryDirectory() as directory:
        pcap_one = measure_capture(flows_1x, directory)
        pcap_ten = measure_capture(flows_1x * SCALE, directory)
    return {
        "stream_1x": one,
        "stream_10x": ten,
        "batch_10x": batch_ten,
        "pcap_1x": pcap_one,
        "pcap_10x": pcap_ten,
        "rss_ratio_10x_over_1x": ten["max_rss_kb"] / one["max_rss_kb"],
        "buffer_ratio_10x_over_1x": (
            ten["peak_buffered_packets"]
            / max(1, one["peak_buffered_packets"])
        ),
        "pcap_rss_ratio_10x_over_1x": (
            pcap_ten["max_rss_kb"] / pcap_one["max_rss_kb"]
        ),
    }


def test_stream_memory_stays_flat():
    """CI gate: 10x packets, flat RSS and flat demux buffer, for
    in-memory records and for a capture file streamed from disk."""
    result = compare()
    one, ten = result["stream_1x"], result["stream_10x"]
    assert ten["flows"] == SCALE * one["flows"]
    assert result["pcap_10x"]["flows"] == ten["flows"]
    assert result["pcap_1x"]["stalls"] == one["stalls"]
    assert (
        result["buffer_ratio_10x_over_1x"] <= BUFFER_RATIO_LIMIT
    ), f"demux buffer grew with trace length: {result}"
    assert (
        result["rss_ratio_10x_over_1x"] <= RSS_RATIO_LIMIT
    ), f"peak RSS grew superlinearly with trace length: {result}"
    assert (
        result["pcap_rss_ratio_10x_over_1x"] <= RSS_RATIO_LIMIT
    ), f"peak RSS grew with capture size: {result}"
    _print_report(result)


def _print_report(result: dict) -> None:
    one, ten, batch, pcap_one, pcap_ten = (
        result["stream_1x"],
        result["stream_10x"],
        result["batch_10x"],
        result["pcap_1x"],
        result["pcap_10x"],
    )
    print()
    print("Streaming memory bound (peak RSS via getrusage):")
    print(
        f"  stream 1x:  {one['packets']:>8} packets  "
        f"{one['max_rss_kb'] / 1024:7.1f} MiB  "
        f"peak buffered {one['peak_buffered_packets']} pkts"
    )
    print(
        f"  stream 10x: {ten['packets']:>8} packets  "
        f"{ten['max_rss_kb'] / 1024:7.1f} MiB  "
        f"peak buffered {ten['peak_buffered_packets']} pkts"
    )
    print(
        f"  batch  10x: {batch['packets']:>8} packets  "
        f"{batch['max_rss_kb'] / 1024:7.1f} MiB  (holds whole trace)"
    )
    for label, run in (("pcap   1x", pcap_one), ("pcap  10x", pcap_ten)):
        print(
            f"  {label}: {run['packets']:>8} packets  "
            f"{run['max_rss_kb'] / 1024:7.1f} MiB  "
            f"(capture {run['capture_bytes'] / 2**20:.1f} MiB on disk)"
        )
    print(
        f"  RSS ratio 10x/1x: {result['rss_ratio_10x_over_1x']:.2f} "
        f"(limit {RSS_RATIO_LIMIT}), buffer ratio: "
        f"{result['buffer_ratio_10x_over_1x']:.2f} "
        f"(limit {BUFFER_RATIO_LIMIT}), pcap RSS ratio: "
        f"{result['pcap_rss_ratio_10x_over_1x']:.2f} "
        f"(limit {RSS_RATIO_LIMIT})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Prove the streaming pipeline's flat memory profile."
    )
    parser.add_argument("--flows", type=int, default=FLOWS_1X)
    parser.add_argument("--json-out", help="write the comparison here")
    parser.add_argument(
        "--measure",
        type=int,
        metavar="FLOWS",
        help="(internal) measure one size in this process and print JSON",
    )
    parser.add_argument(
        "--mode", choices=("stream", "batch", "pcap"), default="stream"
    )
    parser.add_argument(
        "--capture", help="(internal) the pcap file streamed in pcap mode"
    )
    import _emit

    _emit.add_store_argument(parser)
    args = parser.parse_args(argv)

    if args.measure is not None:
        json.dump(
            _measure(args.measure, args.mode, args.capture), sys.stdout
        )
        print()
        return 0

    started = time.perf_counter()
    result = compare(args.flows)
    _print_report(result)
    _emit.emit_result(
        "stream_memory",
        result,
        store_path=args.results_store,
        wall_time=time.perf_counter() - started,
    )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json_out}")
    ok = (
        result["buffer_ratio_10x_over_1x"] <= BUFFER_RATIO_LIMIT
        and result["rss_ratio_10x_over_1x"] <= RSS_RATIO_LIMIT
        and result["pcap_rss_ratio_10x_over_1x"] <= RSS_RATIO_LIMIT
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
