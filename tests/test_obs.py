"""Observability layer: flight recorder, metrics registry, exporters.

The contract under test is the one ISSUE'd for the obs subsystem:

* tracing off leaves the simulation byte-identical (pure observer);
* the ring buffer is bounded and counts what it drops;
* events from parallel workers merge deterministically;
* the registry round-trips RunMetrics to JSON/Prometheus and merges
  across workers;
* the ``repro-paper trace`` CLI emits aligned per-flow time-series and
  an inference-error report.
"""

import csv
import json
from collections import Counter

import pytest

from repro.config import AnalysisConfig
from repro.cli import main as cli_main
from repro.experiments.metrics import RunMetrics
from repro.experiments.parallel import run_flows_parallel
from repro.experiments.runner import run_flow, run_flows
from repro.obs.export import (
    align_series,
    ground_truth_series,
    inference_error,
    write_series_csv,
)
from repro.obs.metrics import MetricsRegistry, phase_span
from repro.obs.recorder import FlightRecorder, merge_events
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

SERVICE = "web_search"
SEED = 424242


def _scenarios(flows, seed=SEED, service=SERVICE):
    return list(generate_flows(get_profile(service), flows, seed=seed))


def _packet_signature(result):
    return [
        (p.timestamp, p.seq, p.ack, p.flags, p.payload_len, p.window)
        for p in result.packets
    ]


# ----------------------------------------------------------------------
# Tracing must be a pure observer
# ----------------------------------------------------------------------
def test_tracing_off_and_on_byte_identical():
    # Scenario objects are single-use (a run mutates session timings),
    # so each run gets a fresh but identically-seeded scenario.
    plain = run_flow(_scenarios(1)[0])
    traced = run_flow(_scenarios(1)[0], trace=True)
    engine_traced = run_flow(_scenarios(1)[0], trace="engine")

    assert plain.trace_events is None
    assert traced.trace_events
    assert any(e.kind == "engine" for e in engine_traced.trace_events)
    assert _packet_signature(plain) == _packet_signature(traced)
    assert _packet_signature(plain) == _packet_signature(engine_traced)
    assert plain.sim_time == traced.sim_time == engine_traced.sim_time
    assert plain.events == traced.events == engine_traced.events


def test_engine_trace_never_logs_a_timer_as_fired_and_cancelled():
    """The delayed-ACK callback cancels its own, already fired timer;
    every scheduled event ends at most one way."""
    for scenario in _scenarios(25, seed=3, service="cloud_storage"):
        result = run_flow(scenario, trace="engine", trace_capacity=1 << 20)
        assert result.trace_dropped == 0
        count = Counter(
            e.detail for e in result.trace_events if e.kind == "engine"
        )
        assert count["schedule"] >= count["fire"] + count["cancel"]


def test_engine_probe_sees_every_link_event():
    """One seeded lossy flow (24 retransmissions, one RTO): the probe's
    schedule / fire / cancel calls and the recorded engine events are
    pinned, so a link event that stops going through the engine's
    observer shows here."""
    scenario = _scenarios(8, seed=3, service="cloud_storage")[7]
    result = run_flow(scenario, trace="engine", trace_capacity=1 << 20)
    assert result.trace_dropped == 0
    assert result.server_stats.retransmissions == 24
    assert result.server_stats.rto_timeouts == 1
    engine = [e for e in result.trace_events if e.kind == "engine"]
    count = Counter(e.detail for e in engine)
    assert dict(count) == {"schedule": 343, "fire": 229, "cancel": 114}
    assert len(engine) == 686
    assert result.events == 229


def test_trace_events_are_time_ordered_and_typed():
    scenario = _scenarios(1)[0]
    result = run_flow(scenario, trace=True)
    events = result.trace_events
    times = [e.time for e in events]
    assert times == sorted(times)
    kinds = {e.kind for e in events}
    # Every healthy flow at least changes state and sees ACKs.
    assert {"state", "vars", "timer", "rtt"} <= kinds
    assert all(e.flow == scenario.flow_id for e in events)


# ----------------------------------------------------------------------
# Ring buffer bounds
# ----------------------------------------------------------------------
def test_ring_buffer_bounded_and_counts_drops():
    recorder = FlightRecorder(flow_id=7, capacity=8)
    for i in range(20):
        recorder.record(float(i), "vars", "ack", seq=i)
    assert len(recorder.events) == 8
    assert recorder.dropped == 12
    assert recorder.recorded == 20
    # Oldest events were evicted; the survivors are the newest.
    assert [e.seq for e in recorder.events] == list(range(12, 20))
    # Indices stay monotonic across drops.
    indices = [e.index for e in recorder.events]
    assert indices == sorted(indices)


def test_run_flow_surfaces_ring_drops():
    scenario = _scenarios(1)[0]
    result = run_flow(scenario, trace=True, trace_capacity=4)
    assert len(result.trace_events) == 4
    assert result.trace_dropped > 0


# ----------------------------------------------------------------------
# Deterministic merge across parallel workers
# ----------------------------------------------------------------------
def test_merge_events_orders_by_flow_time_index():
    a = FlightRecorder(flow_id=2, capacity=16)
    b = FlightRecorder(flow_id=1, capacity=16)
    a.record(0.5, "vars")
    a.record(0.5, "timer")
    b.record(9.0, "vars")
    merged = merge_events([a.dump(), None, b.dump()])
    assert [(e.flow, e.time, e.kind) for e in merged] == [
        (1, 9.0, "vars"),
        (2, 0.5, "vars"),
        (2, 0.5, "timer"),
    ]


def test_parallel_trace_merge_matches_serial():
    serial = run_flows(_scenarios(6), trace=True)
    parallel = run_flows_parallel(_scenarios(6), workers=3, trace=True)

    def signature(run):
        return [
            (e.flow, e.index, e.time, e.kind, e.detail, e.seq, e.cwnd)
            for e in run.merged_trace_events()
        ]

    assert signature(serial) == signature(parallel)
    assert serial.metrics.trace_events == parallel.metrics.trace_events
    assert serial.metrics.trace_events > 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_registry_counters_gauges_merge_and_render():
    reg_a = MetricsRegistry()
    reg_a.counter("repro_flows_total", "Flows").inc(3)
    reg_a.gauge("repro_workers", "Workers").set(2)
    reg_b = MetricsRegistry()
    reg_b.counter("repro_flows_total", "Flows").inc(4)
    reg_b.gauge("repro_workers", "Workers").set(5)

    reg_a.merge(reg_b)
    assert reg_a.to_dict()["repro_flows_total"]["value"] == 7
    assert reg_a.to_dict()["repro_workers"]["value"] == 5  # gauges: max

    text = reg_a.render_prometheus()
    assert "# TYPE repro_flows_total counter" in text
    assert "repro_flows_total 7" in text
    assert "# TYPE repro_workers gauge" in text

    # Registries survive pickling (workers ship them back to the pool).
    import pickle

    clone = pickle.loads(pickle.dumps(reg_a))
    assert clone.to_dict() == reg_a.to_dict()


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x_total", "x")
    with pytest.raises(TypeError):
        registry.gauge("x_total", "x")


def test_run_metrics_to_registry_and_phases():
    metrics = RunMetrics(flows=2, events=100, packets=50)
    with phase_span(metrics.phases, "simulate"):
        pass
    registry = metrics.to_registry()
    rendered = registry.render_prometheus()
    assert "repro_flows_total 2" in rendered
    assert "repro_phase_simulate_seconds_total" in rendered

    other = RunMetrics(flows=3, events=1, packets=1)
    with phase_span(other.phases, "simulate"):
        pass
    metrics.merge(other)
    assert metrics.flows == 5
    assert metrics.phases["simulate"] >= 0.0


def test_run_metrics_format_mentions_corruptions_and_traces():
    metrics = RunMetrics(
        flows=1,
        cache_misses=1,
        cache_corruptions=2,
        trace_events=10,
        trace_events_dropped=1,
    )
    text = metrics.format()
    assert "2 corrupt" in text
    assert "trace: 10 events (1 dropped)" in text


# ----------------------------------------------------------------------
# Series alignment and inference-error report
# ----------------------------------------------------------------------
def test_ground_truth_alignment_and_report(tmp_path):
    scenario = _scenarios(1)[0]
    result = run_flow(scenario, trace=True)
    truth = ground_truth_series(result.trace_events)
    assert truth, "per-ACK vars snapshots should exist"

    from repro.core.tapo import Tapo

    analyses = Tapo(
        config=AnalysisConfig(
            init_cwnd=scenario.server_config.init_cwnd, record_series=True
        )
    ).analyze_packets(result.packets)
    inferred = analyses[0].kernel_series
    assert inferred

    joined = align_series(truth, inferred)
    assert joined, "tap and sender sample the same ACK timestamps"
    report = inference_error(
        scenario.flow_id, SERVICE, truth, inferred
    )
    assert report.aligned_samples == len(joined)
    assert report.cwnd_max_err >= report.cwnd_mean_err >= 0.0
    assert "flow" in report.describe()

    path = write_series_csv(tmp_path / "series.csv", joined)
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "time"
    assert len(rows) == len(joined) + 1


def test_trace_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "trace"
    rc = cli_main(
        [
            "trace",
            "--flow",
            "1",
            "--service",
            SERVICE,
            "--seed",
            str(SEED),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "aligned samples" in stdout

    series = json.loads((out / f"flow_{SERVICE}_1_series.json").read_text())
    assert series["columns"][0] == "time"
    assert series["rows"]
    assert (out / f"flow_{SERVICE}_1_series.csv").exists()

    events = json.loads((out / f"flow_{SERVICE}_1_events.json").read_text())
    assert any(e["kind"] == "state" for e in events)

    report = json.loads((out / "inference_report.json").read_text())
    assert report["summary"]["flows"] == 1
    assert report["flows"][0]["flow_id"] == 1
