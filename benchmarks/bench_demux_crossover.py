"""Where the slab demux's two grouping front-ends cross over.

``ColumnarStreamDemuxer.feed_columns`` groups a one-connection slab of
fewer than ``SMALL_SLAB_ROWS`` rows without numpy and any other slab
with a numpy sort (DESIGN.md 5.2).  This script times ``feed_columns`` +
``finish`` on one-connection slabs of growing size — prefixes of one
simulated cloud-storage connection, the shape the simulator hands
``Tapo.report`` and ``api.analyze`` — with each front-end forced, the
two interleaved call by call, and prints the median per-slab cost and
the ratio Python / numpy.  Each timed call follows the (untimed)
analysis of one simulated trace, as a demux call follows one in
``Tapo.report`` and ``api.analyze``, so neither side runs with caches
only it has warmed.

Standalone::

    PYTHONPATH=src python benchmarks/bench_demux_crossover.py [--samples N]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.api import analyze
from repro.core import columnar_pipeline
from repro.core.columnar_pipeline import ColumnarStreamDemuxer
from repro.experiments.runner import run_flows
from repro.packet.columnar import PacketColumns
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

ROWS = (16, 32, 64, 96, 128, 192, 256, 384)


def traces() -> tuple[list, list]:
    """One long connection to cut slabs from, and short traces to
    analyze between timed calls."""
    bulk = run_flows(
        list(generate_flows(get_profile("cloud_storage"), 6, seed=5)),
        workers=1,
    ).traces
    web = run_flows(
        list(generate_flows(get_profile("web_search"), 40, seed=5)),
        workers=1,
    ).traces
    return max(bulk, key=len), web


def demux_seconds(cols: PacketColumns, crossover: int, trace) -> float:
    columnar_pipeline.SMALL_SLAB_ROWS = crossover
    analyze(trace)
    start = time.perf_counter()
    demuxer = ColumnarStreamDemuxer(idle_timeout=None, close_linger=None)
    demuxer.feed_columns(cols)
    demuxer.finish()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=600)
    args = parser.parse_args(argv)
    default = columnar_pipeline.SMALL_SLAB_ROWS
    print(f"SMALL_SLAB_ROWS = {default}")
    print(f"{'rows':>4s} {'python us':>9s} {'numpy us':>8s} {'ratio':>5s}")
    packets, between = traces()
    try:
        for rows in ROWS:
            cols = PacketColumns.from_records(packets[:rows])
            python, numpy = [], []
            for sample in range(args.samples):
                trace = between[sample % len(between)]
                python.append(demux_seconds(cols, rows + 1, trace))
                numpy.append(demux_seconds(cols, 0, trace))
            a = statistics.median(python) * 1e6
            b = statistics.median(numpy) * 1e6
            print(f"{rows:4d} {a:9.1f} {b:8.1f} {a / b:5.2f}")
    finally:
        columnar_pipeline.SMALL_SLAB_ROWS = default
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
