"""TAPO analysis throughput: the columnar pipeline vs the object reference.

The paper integrated TAPO into daily production analysis, so its own
speed matters.  This bench measures single-core packets-per-second at
two depths on the simulated ``cloud_storage`` dataset:

* **decode stage** — pcap bytes to analyzable packet data.  Record
  decode materializes one :class:`~repro.packet.packet.PacketRecord`
  per packet; the columnar decode turns slabs straight into
  :class:`~repro.packet.columnar.PacketColumns` parallel arrays.  The
  ratio is reported, not gated: its denominator is a test-only
  reference that has itself got faster (~7x measured, 10x once).
* **end to end** — ``Tapo.analyze_pcap`` (column batches, the only
  production path) against the record-level reference it replaced,
  :func:`repro.testing.reference_analyze` (object decode + object
  demux).  The dataset is deliberately stall-heavy (that is the
  paper's point), so most flows are promoted to the analyzer's general
  loop — on their columns: no flow of the capture may be materialized
  into packet objects, in-process or across a two-worker fan-out.
  Both run with building a flow's packet objects rigged to raise
  (:func:`repro.testing.no_packet_objects`), so one built object
  fails the run.
  Reports must be byte-identical to the reference.

Results go to ``BENCH_tapo.json`` for the CI ``perf-smoke`` job, which
gates on the floors and the end-to-end ratio below.

Standalone::

    python benchmarks/bench_tapo_throughput.py --json-out BENCH_tapo.json

or via pytest (the CI perf-smoke job)::

    pytest benchmarks/bench_tapo_throughput.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

FLOWS = 150
SEED = 20141222
#: Best-of count.  Machine noise on shared runners easily swings a
#: single run by 20%; five repeats keep the best-of stable enough for
#: the ratio gates.
REPEATS = 5

#: Absolute single-core floors, in kpps.  The end-to-end floor was 25
#: while stalled flows were inflated into packet objects (~53 kpps
#: measured), then 60; with the slab demux and the flattened analyzer
#: loop the same box measures ~200 kpps, so 90 keeps about 2x headroom
#: for slower CI runners.  The decode stage has its own (much higher)
#: floor; its ratio to the object decoder is reported only.
E2E_FLOOR_KPPS = 90.0
DECODE_FLOOR_KPPS = 300.0
#: Regression gate: the columnar pipeline may never cost more than 20%
#: end to end versus the object reference, even on fallback-heavy input.
E2E_REGRESSION_RATIO = 0.8


def build_pcap(path) -> int:
    """Write the merged cloud_storage capture; return its packet count.

    All per-flow traces are interleaved into one time-sorted capture —
    the shape a real server-side tap produces.
    """
    from repro.config import RunConfig
    from repro.experiments.dataset import build_dataset
    from repro.packet.pcap import PcapWriter

    workers = int(os.environ.get("REPRO_WORKERS", "0"))
    dataset = build_dataset(
        flows_per_service=FLOWS,
        seed=SEED,
        services=("cloud_storage",),
        run=RunConfig(workers=workers),
    )
    packets = []
    for trace in dataset.runs["cloud_storage"].traces:
        packets.extend(trace)
    packets.sort(key=lambda record: record.timestamp)
    with PcapWriter(path) as writer:
        for record in packets:
            writer.write(record)
    return len(packets)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def measure(path: str, packets: int, repeats: int = REPEATS) -> dict:
    """Time both pipelines at both depths; verify report parity.

    Both sides of each comparison are timed *interleaved*, round by
    round, and the speedups are medians of per-round ratios:
    shared machines drift by 2x over tens of seconds, and timing one
    side in a fast window and the other in a slow one would make the
    ratio meaningless.  Adjacent measurements see the same machine.
    """
    from repro.config import AnalysisConfig, RunConfig
    from repro.core import ServiceReport, Tapo
    from repro.packet.pcap import PcapReader
    from repro.testing import no_packet_objects, reference_analyze

    def decode_objects():
        with PcapReader(path) as reader:
            count = 0
            for _record in reader.iter_records():
                count += 1
        assert count == packets

    def decode_columns():
        with PcapReader(path) as reader:
            count = 0
            for cols in reader.iter_columns():
                count += len(cols)
        assert count == packets

    tapo_cols = Tapo(config=AnalysisConfig())
    results: dict[str, list] = {}

    def e2e_columnar():
        results["columnar"] = tapo_cols.analyze_pcap(path)

    def e2e_object():
        results["object"], _faults = reference_analyze(path)

    rounds: dict[str, list[float]] = {
        "decode_obj": [],
        "decode_col": [],
        "e2e_obj": [],
        "e2e_col": [],
    }

    def round_pair(obj_key, obj_fn, col_key, col_fn, flip):
        # Alternate which side goes first so a monotonic machine
        # slowdown biases the per-round ratio both ways and cancels
        # in the median, instead of always flattering one side.
        if flip:
            rounds[col_key].append(_timed(col_fn))
            rounds[obj_key].append(_timed(obj_fn))
        else:
            rounds[obj_key].append(_timed(obj_fn))
            rounds[col_key].append(_timed(col_fn))

    for i in range(repeats):
        round_pair("decode_obj", decode_objects,
                   "decode_col", decode_columns, i % 2 == 1)
    with no_packet_objects():
        for i in range(repeats):
            round_pair("e2e_obj", e2e_object,
                       "e2e_col", e2e_columnar, i % 2 == 1)
    decode_obj_s = min(rounds["decode_obj"])
    decode_col_s = min(rounds["decode_col"])
    e2e_obj_s = min(rounds["e2e_obj"])
    e2e_col_s = min(rounds["e2e_col"])
    decode_speedup = _median(
        [o / c for o, c in zip(rounds["decode_obj"], rounds["decode_col"])]
    )
    e2e_speedup = _median(
        [o / c for o, c in zip(rounds["e2e_obj"], rounds["e2e_col"])]
    )

    fast = ServiceReport("cloud_storage", flows=results["columnar"])
    slow = ServiceReport("cloud_storage", flows=results["object"])
    parity = fast.to_json() == slow.to_json()

    # Worker fan-out: flows cross the process boundary as columns.
    tapo_fan = Tapo(config=AnalysisConfig())
    with no_packet_objects():
        fan_out_s = _timed(
            lambda: tapo_fan.report_stream(
                path, "cloud_storage", run=RunConfig(workers=2)
            )
        )

    def kpps(seconds: float) -> float:
        return packets / seconds / 1e3

    return {
        "dataset": {
            "service": "cloud_storage",
            "flows": FLOWS,
            "packets": packets,
            "seed": SEED,
        },
        "config": {
            "repeats": repeats,
            "python": sys.version.split()[0],
        },
        "decode": {
            "object_kpps": kpps(decode_obj_s),
            "columnar_kpps": kpps(decode_col_s),
            "speedup": decode_speedup,
        },
        "end_to_end": {
            "object_kpps": kpps(e2e_obj_s),
            "columnar_kpps": kpps(e2e_col_s),
            "speedup": e2e_speedup,
            "fast_flows": tapo_cols.fast_flows,
            "fallback_flows": tapo_cols.fallback_flows,
        },
        "streaming_workers_2": {
            "kpps": kpps(fan_out_s),
            "flow_counts": list(tapo_fan.flow_counts()),
        },
        "parity": parity,
        "gates": {
            "e2e_floor_kpps": E2E_FLOOR_KPPS,
            "decode_floor_kpps": DECODE_FLOOR_KPPS,
            "e2e_regression_ratio": E2E_REGRESSION_RATIO,
        },
    }


def check_gates(result: dict) -> list[str]:
    """Return a list of human-readable gate violations (empty = pass)."""
    failures = []
    decode, e2e = result["decode"], result["end_to_end"]
    if not result["parity"]:
        failures.append("columnar and object reports are not byte-identical")
    if decode["columnar_kpps"] < DECODE_FLOOR_KPPS:
        failures.append(
            f"columnar decode {decode['columnar_kpps']:.0f} kpps < "
            f"{DECODE_FLOOR_KPPS} kpps floor"
        )
    if e2e["columnar_kpps"] < E2E_FLOOR_KPPS:
        failures.append(
            f"columnar end-to-end {e2e['columnar_kpps']:.0f} kpps < "
            f"{E2E_FLOOR_KPPS} kpps floor"
        )
    if e2e["speedup"] < E2E_REGRESSION_RATIO:
        failures.append(
            f"columnar end-to-end regressed below "
            f"{E2E_REGRESSION_RATIO}x the object pipeline"
        )
    return failures


def _print_report(result: dict) -> None:
    decode, e2e = result["decode"], result["end_to_end"]
    print()
    print(
        f"TAPO throughput ({result['dataset']['packets']} packets, "
        f"single core, best of {result['config']['repeats']}, "
        f"pre-PR object decode baseline ~126 kpps on the reference "
        f"machine):"
    )
    print(
        f"  decode:     object {decode['object_kpps']:8.0f} kpps   "
        f"columnar {decode['columnar_kpps']:8.0f} kpps   "
        f"({decode['speedup']:.1f}x)"
    )
    print(
        f"  end-to-end: object {e2e['object_kpps']:8.0f} kpps   "
        f"columnar {e2e['columnar_kpps']:8.0f} kpps   "
        f"({e2e['speedup']:.2f}x, {e2e['fast_flows']} fast / "
        f"{e2e['fallback_flows']} replayed flows)"
    )
    fan = result["streaming_workers_2"]
    print(
        f"  streaming, workers=2: {fan['kpps']:8.0f} kpps   "
        "({} fast / {} replayed flows)".format(*fan["flow_counts"])
    )
    print(f"  report parity: {result['parity']}")


# -- pytest entry points (the CI perf-smoke gate) ------------------------
@pytest.fixture(scope="module")
def bench_result(tmp_path_factory):
    path = tmp_path_factory.mktemp("tapo") / "cloud_storage.pcap"
    packets = build_pcap(path)
    result = measure(str(path), packets)
    _print_report(result)
    return result


def test_reports_byte_identical(bench_result):
    assert bench_result["parity"]


def test_columnar_decode_throughput(bench_result):
    decode = bench_result["decode"]
    assert decode["columnar_kpps"] >= DECODE_FLOOR_KPPS, decode


def test_end_to_end_throughput(bench_result):
    e2e = bench_result["end_to_end"]
    assert e2e["columnar_kpps"] >= E2E_FLOOR_KPPS, e2e
    assert e2e["speedup"] >= E2E_REGRESSION_RATIO, e2e
    # Both pipeline branches must actually have run (on their columns:
    # ``measure`` ran them under ``no_packet_objects``).
    assert e2e["fast_flows"] > 0
    assert e2e["fallback_flows"] > 0


def test_worker_fan_out_stays_on_columns(bench_result):
    # Ran under ``no_packet_objects``: reaching here built none.
    fast, replayed = bench_result["streaming_workers_2"]["flow_counts"]
    assert fast > 0 and replayed > 0


def main(argv: list[str] | None = None) -> int:
    import _emit

    parser = argparse.ArgumentParser(
        description="Measure TAPO single-core throughput, both pipelines."
    )
    parser.add_argument("--json-out", help="write BENCH_tapo.json here")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--pcap", help="reuse an existing capture instead of simulating"
    )
    _emit.add_store_argument(parser)
    args = parser.parse_args(argv)

    import tempfile

    started = time.perf_counter()
    if args.pcap:
        from repro.packet.pcap import PcapReader

        with PcapReader(args.pcap) as reader:
            packets = sum(1 for _ in reader.iter_records())
        result = measure(args.pcap, packets, args.repeats)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud_storage.pcap")
            packets = build_pcap(path)
            result = measure(path, packets, args.repeats)

    _print_report(result)
    _emit.emit_result(
        "tapo_throughput",
        result,
        store_path=args.results_store,
        wall_time=time.perf_counter() - started,
    )
    failures = check_gates(result)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if args.json_out:
        out_dir = os.path.dirname(args.json_out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.json_out, "w") as fh:
            json.dump(result, fh, indent=2)
        print(f"wrote {args.json_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
