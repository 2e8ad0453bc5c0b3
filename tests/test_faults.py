"""Fault-injection tests: the pipeline's recovery guarantees.

Every failure domain the robustness layer covers is exercised through
the seedable harness in :mod:`repro.testing.faults`:

* pcap framing damage → :class:`~repro.packet.pcap.PcapReader`
  resyncs (lenient) or raises a typed
  :class:`~repro.errors.ParseError` (strict);
* analyzer crashes → the crashing flow is quarantined as a
  :class:`~repro.errors.SkippedFlow`, surfaced on the report and in
  the metrics registry, and never takes down the run;
* worker death → the chunk is retried with backoff; a chunk that
  fails every attempt is poisoned, not re-raised forever;
* cache damage → always a recoverable miss.

A clean trace must produce byte-identical results under every budget.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import AnalysisConfig, RunConfig
from repro.core import tapo as tapo_module
from repro.core.tapo import Tapo
from repro.errors import (
    ErrorBudget,
    ErrorBudgetExceeded,
    FaultStats,
    FlowAnalysisError,
    ParseError,
    PoisonTaskError,
    ReproError,
    SkippedFlow,
)
from repro.experiments import parallel as parallel_module
from repro.experiments.cache import DatasetCache
from repro.experiments.parallel import AnalysisPool
from repro.obs.metrics import MetricsRegistry
from repro.packet.flow import demux
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.packet.packet import PacketRecord
from repro.packet.pcap import PcapFormatError, PcapReader, write_pcap
from repro.testing.faults import (
    corrupt_cache_entry,
    corrupt_pcap_bytes,
    corrupt_pcap_records,
    inject_flow_crash,
    kill_worker_once,
)

SERVER = (0x0A000001, 80)


def client(i: int) -> tuple[int, int]:
    return (0x64400001 + i, 31000 + i)


def pkt(src, dst, flags=FLAG_ACK, payload=0, ts=0.0, seq=0, ack=0):
    return PacketRecord(
        timestamp=ts,
        src_ip=src[0],
        src_port=src[1],
        dst_ip=dst[0],
        dst_port=dst[1],
        seq=seq,
        ack=ack,
        flags=flags,
        payload_len=payload,
    )


def tiny_flow(i: int, start: float) -> list[PacketRecord]:
    c = client(i)
    return [
        pkt(c, SERVER, flags=FLAG_SYN, ts=start, seq=100),
        pkt(SERVER, c, flags=FLAG_SYN | FLAG_ACK, ts=start + 0.01, seq=300),
        pkt(c, SERVER, ts=start + 0.02, seq=101, ack=301),
        pkt(c, SERVER, payload=50, ts=start + 0.03, seq=101, ack=301),
        pkt(SERVER, c, payload=1000, ts=start + 0.05, seq=301, ack=151),
        pkt(c, SERVER, ts=start + 0.07, seq=151, ack=1301),
        pkt(SERVER, c, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.08,
            seq=1301, ack=151),
        pkt(c, SERVER, flags=FLAG_FIN | FLAG_ACK, ts=start + 0.09,
            seq=151, ack=1302),
        pkt(SERVER, c, ts=start + 0.10, seq=1302, ack=152),
    ]


def many_flows(n: int) -> list[PacketRecord]:
    packets = [p for i in range(n) for p in tiny_flow(i, i * 0.2)]
    packets.sort(key=lambda p: p.timestamp)
    return packets


def signature(analysis):
    return (
        analysis.flow.key,
        analysis.data_packets,
        analysis.retransmissions,
        round(analysis.duration, 9),
        tuple(
            (round(s.start_time, 9), s.cause, s.retx_cause)
            for s in analysis.stalls
        ),
    )


# -- error budget policy ------------------------------------------------


class TestErrorBudget:
    def test_parse_specs(self):
        assert ErrorBudget.parse(None) == ErrorBudget.strict()
        assert ErrorBudget.parse("strict").mode == "strict"
        assert ErrorBudget.parse("lenient").mode == "lenient"
        assert ErrorBudget.parse("budget:5").max_errors == 5
        assert ErrorBudget.parse("budget:2%").max_fraction == pytest.approx(
            0.02
        )
        assert ErrorBudget.parse("budget:0.01").max_fraction == 0.01
        budget = ErrorBudget.lenient()
        assert ErrorBudget.parse(budget) is budget

    @pytest.mark.parametrize(
        "spec", ["", "bud", "budget:", "budget:x", "budget:1.2.3"]
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            ErrorBudget.parse(spec)

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            ErrorBudget(mode="whatever")
        with pytest.raises(ValueError):
            ErrorBudget(mode="budget")  # needs a cap

    def test_allows(self):
        assert ErrorBudget.strict().allows(0, 10)
        assert not ErrorBudget.strict().allows(1, 10)
        assert ErrorBudget.lenient().allows(10**6, 1)
        count = ErrorBudget.budget(max_errors=2)
        assert count.allows(2, 2) and not count.allows(3, 100)
        frac = ErrorBudget.budget(max_fraction=0.1)
        assert frac.allows(1, 10) and not frac.allows(2, 10)
        # Both caps set: the absolute floor saves tiny inputs.
        both = ErrorBudget.budget(max_errors=3, max_fraction=0.01)
        assert both.allows(2, 5)

    def test_check_raises_typed(self):
        with pytest.raises(ErrorBudgetExceeded) as info:
            ErrorBudget.budget(max_errors=1).check(5, 100, "things")
        assert info.value.errors == 5
        assert info.value.units == 100
        assert isinstance(info.value, ReproError)

    def test_frozen_hashable_picklable(self):
        budget = ErrorBudget.budget(max_errors=3)
        assert hash(budget) == hash(ErrorBudget.budget(max_errors=3))
        assert pickle.loads(pickle.dumps(budget)) == budget
        config = AnalysisConfig(errors=budget)
        assert pickle.loads(pickle.dumps(config)) == config


# -- pcap framing recovery ----------------------------------------------


@pytest.fixture()
def clean_pcap(tmp_path):
    path = tmp_path / "clean.pcap"
    write_pcap(path, many_flows(12))
    return path


class TestPcapRecovery:
    def test_lenient_recovers_most_records(self, clean_pcap, tmp_path):
        bad = tmp_path / "bad.pcap"
        plan = corrupt_pcap_records(clean_pcap, bad, fraction=0.05, seed=3)
        assert plan.records_damaged >= 1
        with PcapReader(bad, errors="lenient") as reader:
            records = list(reader)
            assert reader.corrupt_records + reader.skipped >= 1
            # Framing damage loses at most the damaged records.
            assert len(records) >= plan.records_total - plan.records_damaged
        with PcapReader(clean_pcap) as reader:
            total = len(list(reader))
        assert len(records) <= total

    def test_strict_raises_typed_parse_error(self, clean_pcap, tmp_path):
        bad = tmp_path / "bad.pcap"
        corrupt_pcap_records(
            clean_pcap, bad, fraction=0.05, seed=3, modes=("length",)
        )
        with PcapReader(bad) as reader:  # strict is the default
            with pytest.raises(PcapFormatError) as info:
                list(reader)
        assert isinstance(info.value, ParseError)
        assert isinstance(info.value, ReproError)

    def test_budget_counts_then_raises(self, clean_pcap, tmp_path):
        bad = tmp_path / "bad.pcap"
        plan = corrupt_pcap_records(
            clean_pcap, bad, fraction=0.5, seed=1, modes=("zero_header",)
        )
        assert plan.records_damaged >= 3
        with PcapReader(bad, errors="budget:1") as reader:
            with pytest.raises(ErrorBudgetExceeded):
                list(reader)
        with PcapReader(bad, errors=f"budget:{plan.records_total}") as reader:
            list(reader)  # large enough budget completes

    def test_truncated_tail_dropped_and_counted(self, clean_pcap, tmp_path):
        data = clean_pcap.read_bytes()
        bad = tmp_path / "trunc.pcap"
        bad.write_bytes(corrupt_pcap_bytes(data, seed=0, truncate_to=len(data) - 7))
        with PcapReader(bad, errors="lenient") as reader:
            records = list(reader)
            assert reader.corrupt_records == 1
        with pytest.raises(PcapFormatError):
            list(PcapReader(bad))
        assert records  # everything before the tail survived

    def test_clean_input_identical_under_every_budget(self, clean_pcap):
        strict = [r.describe() for r in PcapReader(clean_pcap)]
        for spec in ("lenient", "budget:5", "budget:1%"):
            with PcapReader(clean_pcap, errors=spec) as reader:
                assert [r.describe() for r in reader] == strict
                assert reader.corrupt_records == 0
                assert reader.resyncs == 0


# -- per-flow isolation -------------------------------------------------


class TestFlowQuarantine:
    def test_strict_raises_flow_analysis_error(self):
        packets = many_flows(4)
        crash_key = Tapo().analyze_packets(packets)[1].flow.key
        with inject_flow_crash(keys={crash_key}):
            with pytest.raises(FlowAnalysisError) as info:
                Tapo().analyze_packets(packets)
        assert info.value.key == crash_key

    def test_lenient_quarantines_and_continues(self):
        packets = many_flows(6)
        clean = Tapo().analyze_packets(packets)
        crash_key = clean[2].flow.key
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        with inject_flow_crash(keys={crash_key}):
            analyses = tapo.analyze_packets(packets)
        assert len(analyses) == len(clean) - 1
        assert len(tapo.skipped_flows) == 1
        skip = tapo.skipped_flows[0]
        assert isinstance(skip, SkippedFlow)
        assert skip.key == crash_key
        assert skip.error_type == "FlowAnalysisError"
        assert skip.packets > 0
        assert crash_key not in {a.flow.key for a in analyses}

    def test_budget_mode_allows_then_raises(self):
        packets = many_flows(8)
        keys = {a.flow.key for a in Tapo().analyze_packets(packets)}
        crash = set(list(keys)[:3])
        ok = Tapo(AnalysisConfig(errors=ErrorBudget.budget(max_errors=3)))
        with inject_flow_crash(keys=crash):
            ok.analyze_packets(packets)
        assert len(ok.skipped_flows) == 3
        tight = Tapo(AnalysisConfig(errors=ErrorBudget.budget(max_errors=1)))
        with inject_flow_crash(keys=crash):
            with pytest.raises(ErrorBudgetExceeded):
                tight.analyze_packets(packets)

    def test_report_fractional_budget_counts_every_trace(self):
        """``Tapo.report`` takes one trace per connection; a fractional
        budget weighs a crash against the flows of all of them, exactly
        as ``analyze_packets`` does over the same packets."""
        packets = many_flows(20)
        traces = [
            [record for record, _ in flow.packets] for flow in demux(packets)
        ]
        crash_key = demux(packets)[14].key
        config = AnalysisConfig(errors=ErrorBudget.parse("budget:10%"))
        with inject_flow_crash(keys={crash_key}):
            report = Tapo(config).report(traces)
            analyses = Tapo(config).analyze_packets(packets)
        assert len(report.flows) == len(analyses) == 19
        assert [skip.key for skip in report.skipped] == [crash_key]

    def test_report_surfaces_skipped(self):
        packets = many_flows(5)
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        with inject_flow_crash(fraction=0.4, seed=11):
            report = tapo.report_stream(packets, service="svc")
        assert len(report.skipped) == len(tapo.skipped_flows)
        assert len(report.flows) + len(report.skipped) == 5
        assert 0.0 < report.coverage() <= 1.0
        merged = report.merge(
            type(report)(service="svc")
        )  # merge keeps the ledger
        assert len(merged.skipped) == len(report.skipped)

    def test_stream_parallel_quarantine_and_metrics(self):
        packets = many_flows(10)
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        registry = MetricsRegistry()
        with inject_flow_crash(fraction=0.3, seed=5):
            analyses = list(
                tapo.analyze_stream(
                    packets,
                    run=RunConfig(workers=2, chunk_flows=2),
                    registry=registry,
                )
            )
        skipped = len(tapo.skipped_flows)
        assert skipped >= 1
        assert len(analyses) + skipped == 10
        assert registry["repro_fault_flows_skipped_total"].value == skipped
        assert registry["repro_stream_flows_skipped_total"].value == skipped

    def test_serial_and_parallel_quarantine_same_flows(self):
        packets = many_flows(9)
        budget = AnalysisConfig(errors=ErrorBudget.lenient())
        results = {}
        for workers in (1, 2):
            tapo = Tapo(budget)
            with inject_flow_crash(fraction=0.3, seed=2):
                analyses = list(
                    tapo.analyze_stream(packets, run=RunConfig(workers=workers))
                )
            results[workers] = (
                {signature(a) for a in analyses},
                {s.key for s in tapo.skipped_flows},
            )
        assert results[1] == results[2]

    def test_clean_input_identical_with_layer_enabled(self):
        packets = many_flows(6)
        strict = {signature(a) for a in Tapo().analyze_packets(packets)}
        lenient_tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        lenient = {signature(a) for a in lenient_tapo.analyze_packets(packets)}
        assert lenient == strict
        assert lenient_tapo.skipped_flows == []


# -- worker death and poison tasks --------------------------------------


class TestWorkerDeath:
    def test_killed_worker_is_retried(self, tmp_path):
        packets = many_flows(8)
        expected = {signature(a) for a in Tapo().analyze_packets(packets)}
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        with kill_worker_once(tmp_path) as sentinel:
            run = RunConfig(workers=2, chunk_flows=2, retry_backoff=0.01)
            analyses = list(tapo.analyze_stream(packets, run=run))
            assert sentinel.exists()  # a worker really died
        assert {signature(a) for a in analyses} == expected
        assert tapo.faults.tasks_retried >= 1
        assert tapo.faults.tasks_poisoned == 0

    def test_one_death_fails_one_window_not_the_stream(self, tmp_path):
        packets = many_flows(400)  # 100 chunks of 4
        expected = [
            signature(a)
            for a in Tapo().analyze_stream(packets, run=RunConfig(workers=1))
        ]
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        registry = MetricsRegistry()
        with kill_worker_once(tmp_path) as sentinel:
            run = RunConfig(workers=2, chunk_flows=4, retry_backoff=0.01)
            analyses = list(
                tapo.analyze_stream(packets, run=run, registry=registry)
            )
            assert sentinel.exists()
        assert [signature(a) for a in analyses] == expected
        # The pool is replaced: only chunks in flight at the death
        # (window = 2 x workers) walk the retry ladder.
        assert 1 <= tapo.faults.tasks_retried <= 4
        assert tapo.faults.tasks_poisoned == 0
        assert registry["repro_stream_analysis_chunks_total"].value == 100
        assert registry["repro_stream_peak_in_flight_chunks"].value <= 4
        assert (
            registry["repro_stream_analysis_chunks_retried_total"].value
            == registry["repro_fault_tasks_retried_total"].value
            == tapo.faults.tasks_retried
        )

    def test_poison_chunk_quarantined_lenient(self, monkeypatch):
        packets = many_flows(6)
        flows = list(demux(packets))

        def explode(chunk, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel_module, "_analyze_chunk", explode)
        pool = AnalysisPool(
            config=AnalysisConfig(errors=ErrorBudget.lenient()),
            workers=2,
            chunk_flows=3,
            max_retries=1,
            retry_backoff=0.0,
        )
        results = list(pool.map_stream(flows))
        assert results == []
        assert pool.stats.chunks_poisoned >= 1
        assert pool.faults.tasks_poisoned >= 1
        assert len(pool.faults.skipped) == len(flows)
        assert all(
            s.error_type == "PoisonTaskError" for s in pool.faults.skipped
        )

    def test_poison_chunk_raises_strict(self, monkeypatch):
        packets = many_flows(4)
        flows = list(demux(packets))

        def explode(chunk, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel_module, "_analyze_chunk", explode)
        pool = AnalysisPool(
            workers=2, chunk_flows=2, max_retries=1, retry_backoff=0.0
        )
        with pytest.raises(PoisonTaskError):
            list(pool.map_stream(flows))


# -- cache damage -------------------------------------------------------


class TestCacheFaults:
    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = DatasetCache(root=tmp_path)
        path = cache.store("f" * 40, {"payload": list(range(100))})
        assert path is not None
        corrupt_cache_entry(path, seed=4)
        assert cache.load("f" * 40) is None
        assert cache.corruptions == 1
        assert cache.misses == 1
        assert not path.exists()  # invalidated for rebuild

    def test_store_failure_counted_not_raised(self, tmp_path):
        target = tmp_path / "not_a_dir"
        target.write_text("file, not a directory")
        cache = DatasetCache(root=target)
        assert cache.store("a" * 40, {"x": 1}) is None
        assert cache.store_failures == 1

    def test_unpicklable_payload_counted(self, tmp_path):
        cache = DatasetCache(root=tmp_path)
        assert cache.store("b" * 40, lambda: None) is None  # unpicklable
        assert cache.store_failures == 1


# -- end-to-end acceptance ---------------------------------------------


class TestEndToEnd:
    def test_one_percent_corruption_full_pipeline(self, tmp_path):
        """The ISSUE acceptance gate, in miniature: a 1%-corrupted
        trace completes end-to-end in lenient mode with >=99% of flows
        analyzed and every loss accounted for."""
        flows = 40
        clean = tmp_path / "clean.pcap"
        write_pcap(clean, many_flows(flows))
        bad = tmp_path / "bad.pcap"
        plan = corrupt_pcap_records(clean, bad, fraction=0.01, seed=1)
        assert plan.records_damaged >= 1

        registry = MetricsRegistry()
        tapo = Tapo(AnalysisConfig(errors=ErrorBudget.lenient()))
        report = tapo.report_stream(
            str(bad), service="bad", registry=registry
        )
        analyzed = len(report.flows)
        assert analyzed + len(report.skipped) >= flows - plan.records_damaged
        assert analyzed >= 0.99 * flows
        # Damage is visible, not silent: the framing faults the
        # injector planted show up in the registry.
        assert registry["repro_fault_corrupt_records_total"].value >= 1

        # Strict fails closed on the same file, with a typed error.
        with pytest.raises(ReproError):
            Tapo().report_stream(str(bad), service="bad")

    def test_fault_stats_merge_and_registry_names(self):
        stats = FaultStats(corrupt_records=2, resyncs=1)
        stats.merge(FaultStats(flows_skipped=1, tasks_retried=3))
        assert stats.corrupt_records == 2
        assert stats.tasks_retried == 3
        registry = MetricsRegistry()
        stats.to_registry(registry)
        for name in (
            "repro_fault_corrupt_records_total",
            "repro_fault_resyncs_total",
            "repro_fault_option_errors_total",
            "repro_fault_flows_skipped_total",
            "repro_fault_tasks_retried_total",
            "repro_fault_tasks_poisoned_total",
        ):
            assert name in registry, name
        text = registry.render_prometheus()
        assert "repro_fault_corrupt_records_total 2" in text


# -- CLI surface ---------------------------------------------------------


class TestCli:
    """``tapo --errors`` and the fault counters in ``--stats``/JSON."""

    @pytest.fixture()
    def bad_pcap(self, clean_pcap, tmp_path):
        bad = tmp_path / "bad.pcap"
        corrupt_pcap_records(
            clean_pcap, bad, fraction=0.1, seed=7, modes=("zero_header",)
        )
        return bad

    def test_strict_default_fails_with_typed_error(self, bad_pcap, capsys):
        from repro.core.cli import main as cli_main

        assert cli_main([str(bad_pcap)]) == 2
        err = capsys.readouterr().err
        assert "budget: strict" in err

    def test_lenient_flag_recovers_and_reports(self, bad_pcap, capsys):
        import json as json_module

        from repro.core.cli import main as cli_main

        assert cli_main([str(bad_pcap), "--errors", "lenient", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["flows"] > 0
        assert payload["faults"]["corrupt_records"] >= 1

    def test_budget_spec_accepted(self, bad_pcap, capsys):
        from repro.core.cli import main as cli_main

        assert cli_main([str(bad_pcap), "--errors", "budget:50%"]) == 0
        out = capsys.readouterr().out
        assert "faults tolerated:" in out
        assert "budget:" in out

    def test_invalid_spec_rejected_by_argparse(self, bad_pcap):
        from repro.core.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main([str(bad_pcap), "--errors", "bogus"])

    def test_stats_line_and_prometheus_names(
        self, bad_pcap, tmp_path, capsys
    ):
        from repro.core.cli import main as cli_main

        prefix = tmp_path / "metrics"
        code = cli_main(
            [
                str(bad_pcap),
                "--errors",
                "lenient",
                "--stats",
                "--metrics-out",
                str(prefix),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "faults:" in err
        assert "corrupt records" in err
        assert "flows quarantined" in err
        prom = (tmp_path / "metrics.prom").read_text()
        for name in (
            "repro_fault_corrupt_records_total",
            "repro_fault_flows_skipped_total",
            "repro_fault_tasks_retried_total",
        ):
            assert name in prom, name

    def test_clean_input_json_identical_across_budgets(
        self, clean_pcap, capsys
    ):
        from repro.core.cli import main as cli_main

        outputs = []
        for spec in ("strict", "lenient", "budget:5"):
            assert cli_main([str(clean_pcap), "--errors", spec, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


def test_run_metrics_exports_fault_counter_names():
    from repro.experiments.metrics import RunMetrics

    metrics = RunMetrics(
        flows_skipped=2, chunks_poisoned=1, cache_store_failures=1
    )
    registry = metrics.to_registry()
    for name in (
        "repro_flows_skipped_total",
        "repro_chunks_poisoned_total",
        "repro_chunks_retried_total",
        "repro_cache_store_failures_total",
        "repro_cache_corruptions_total",
    ):
        assert name in registry, name
    text = registry.render_prometheus()
    assert "repro_flows_skipped_total 2" in text
