"""Public-facade tests: ``repro.api`` verbs, frozen configs, the
deprecation policy, lazy imports, and the unified CLI dispatcher."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import warnings

import pytest

import repro
from repro import api
from repro.cli import _COMMANDS
from repro.config import AnalysisConfig, RunConfig
from repro.core.flow_analyzer import FlowAnalysis, FlowAnalyzer
from repro.core.report import ServiceReport
from repro.core.tapo import Tapo, analyze_pcap
from repro.packet.headers import FLAG_ACK, FLAG_FIN, FLAG_SYN
from repro.packet.packet import PacketRecord
from repro.packet.pcap import write_pcap

SERVER = (0x0A000001, 80)
CLIENT = (0x64400001, 31000)


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


def small_trace() -> list[PacketRecord]:
    return [
        pkt(CLIENT, SERVER, flags=FLAG_SYN, ts=0.0, seq=100),
        pkt(SERVER, CLIENT, flags=FLAG_SYN | FLAG_ACK, ts=0.01, seq=300),
        pkt(CLIENT, SERVER, ts=0.02, seq=101, ack=301),
        pkt(CLIENT, SERVER, payload=50, ts=0.03, seq=101, ack=301),
        pkt(SERVER, CLIENT, payload=1000, ts=0.05, seq=301, ack=151),
        pkt(CLIENT, SERVER, ts=0.07, seq=151, ack=1301),
        pkt(SERVER, CLIENT, flags=FLAG_FIN | FLAG_ACK, ts=0.08, seq=1301),
        pkt(CLIENT, SERVER, flags=FLAG_FIN | FLAG_ACK, ts=0.09, seq=151,
            ack=1302),
    ]


class TestConfigs:
    def test_analysis_config_frozen(self):
        config = AnalysisConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.tau = 3.0

    def test_run_config_frozen(self):
        run = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.workers = 8

    def test_replace(self):
        config = AnalysisConfig().replace(tau=3.0)
        assert config.tau == 3.0
        assert AnalysisConfig().tau == 2.0  # original untouched
        run = RunConfig().replace(workers=4, use_cache=False)
        assert (run.workers, run.use_cache) == (4, False)

    def test_defaults_match_paper(self):
        config = AnalysisConfig()
        assert config.tau == 2.0
        assert config.init_cwnd == 3
        assert config.record_series is False
        run = RunConfig()
        assert run.workers == 1
        assert run.use_cache is True
        assert run.idle_timeout == 60.0
        assert run.close_linger == 5.0

    def test_hashable(self):
        assert hash(AnalysisConfig()) == hash(AnalysisConfig())
        assert AnalysisConfig() != AnalysisConfig(tau=3.0)

    @pytest.mark.parametrize("config, field, value", [
        (AnalysisConfig, "tau", 0),
        (AnalysisConfig, "tau", -1.0),
        (AnalysisConfig, "tau", float("nan")),
        (AnalysisConfig, "tau", float("inf")),
        (AnalysisConfig, "init_cwnd", 0),
        (RunConfig, "idle_timeout", -5),
        (RunConfig, "idle_timeout", 0.0),
        (RunConfig, "idle_timeout", float("nan")),
        (RunConfig, "close_linger", 0),
        (RunConfig, "close_linger", -1.0),
    ])
    def test_out_of_range_value_is_refused(self, config, field, value):
        """The bounds the CLI adapters enforce hold for the Python API
        too: ``tau=0`` would call every gap a stall, a NaN ``tau`` none
        (``min(nan, min_rto)`` makes the stall floor NaN)."""
        with pytest.raises(ValueError, match=field):
            config(**{field: value})


def _tiny_dataset(**kwargs):
    from repro.experiments.dataset import build_dataset

    return build_dataset(
        flows_per_service=1, seed=1, services=("web_search",), **kwargs
    )


#: Every spelling 2.0 removed, as a call that used to warn and forward.
REMOVED_SPELLINGS = {
    "Tapo(tau=)": lambda: Tapo(tau=1.5),
    "Tapo(2.5)": lambda: Tapo(2.5),
    "Tapo(init_cwnd=, record_series=)": lambda: Tapo(
        init_cwnd=10, record_series=True
    ),
    "tapo.analyze_pcap(tau=)": lambda: analyze_pcap(
        "unread.pcap", tau=1.5
    ),
    "FlowAnalyzer(tau=)": lambda: FlowAnalyzer(None, tau=1.5),
    "FlowAnalyzer(init_cwnd=, record_series=)": lambda: FlowAnalyzer(
        None, init_cwnd=10, record_series=True
    ),
    "build_dataset(workers=)": lambda: _tiny_dataset(workers=1),
    "build_dataset(use_cache=)": lambda: _tiny_dataset(use_cache=False),
    "Coordinator(transport=)": lambda: api.Coordinator(
        "unread.pcap", n_shards=2, transport="pipe"
    ),
    "analyze_cluster(transport=)": lambda: api.analyze_cluster(
        "unread.pcap", shards=1, transport="socket"
    ),
}


class TestDeprecationShims:
    """The 2.0 window is closed: no shim is open, the config objects
    are the only spelling, and what the shims accepted is a
    ``TypeError`` (README, "API stability & deprecation policy")."""

    @pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
    def test_removed_spelling_raises_type_error(self, spelling):
        with pytest.raises(TypeError):
            REMOVED_SPELLINGS[spelling]()

    def test_compat_attributes_and_helpers_are_gone(self):
        import repro.config

        tapo = Tapo(config=AnalysisConfig(tau=1.5))
        for name in ("tau", "init_cwnd", "record_series"):
            assert not hasattr(tapo, name)
        assert not hasattr(RunConfig(), "resolved_workers")
        assert not hasattr(repro.config, "warn_deprecated_kwargs")
        assert not hasattr(repro.config, "DEPRECATED_REMOVAL_VERSION")

    def test_tapo_config_object_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tapo = Tapo(config=AnalysisConfig(tau=1.5))
        assert tapo.config.tau == 1.5

    def test_readme_documents_the_policy(self):
        from pathlib import Path

        readme = (
            Path(__file__).resolve().parent.parent / "README.md"
        ).read_text()
        assert "deprecation policy" in readme.lower()
        assert "No shim is currently open" in readme

    def test_build_dataset_run_config_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _tiny_dataset(run=RunConfig(workers=1, use_cache=False))


class TestFacade:
    def test_analyze_packets(self):
        analyses = api.analyze(small_trace())
        assert len(analyses) == 1
        assert isinstance(analyses[0], FlowAnalysis)

    def test_analyze_path(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, small_trace())
        analyses = api.analyze(str(path))
        assert len(analyses) == 1

    def test_analyze_stream_matches_analyze(self):
        batch = api.analyze(small_trace())
        stream = list(api.analyze_stream(small_trace()))
        assert [a.flow.key for a in stream] == [a.flow.key for a in batch]
        assert [len(a.stalls) for a in stream] == [
            len(a.stalls) for a in batch
        ]

    def test_analyze_stream_accepts_config_and_run(self):
        stream = list(
            api.analyze_stream(
                small_trace(),
                config=AnalysisConfig(tau=3.0),
                run=RunConfig(workers=1, chunk_flows=1),
            )
        )
        assert len(stream) == 1

    def test_report_from_packets(self):
        report = api.report(small_trace(), service="svc")
        assert isinstance(report, ServiceReport)
        assert report.service == "svc"
        assert len(report.flows) == 1

    def test_report_from_analyses(self):
        analyses = api.analyze(small_trace())
        report = api.report(analyses, service="svc")
        assert len(report.flows) == len(analyses)

    def test_report_from_empty_iterable(self):
        report = api.report([], service="empty")
        assert report.flows == []

    def test_simulate(self):
        dataset = api.simulate(
            flows_per_service=1,
            seed=3,
            services=("web_search",),
            run=RunConfig(use_cache=False),
        )
        assert list(dataset.reports) and dataset.total_packets > 0

    def test_facade_all_resolvable(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_live_reexports(self):
        from repro import live

        assert api.AlertRule is live.AlertRule
        assert api.LiveDaemon is live.LiveDaemon
        assert api.WindowStore is live.WindowStore
        assert api.watch_directory is live.watch_directory
        for name in ("AlertRule", "LiveDaemon", "WindowStore",
                     "watch_directory"):
            assert name in api.__all__
            assert getattr(repro, name) is getattr(live, name)


class TestApiSurfaceSnapshot:
    """``api.__all__`` is the single source of truth for the stable
    surface; the docstring and the top-level lazy exports must follow
    it.  These tests fail the moment any of the three drift apart."""

    def test_all_is_sorted_and_unique(self):
        assert api.__all__ == sorted(set(api.__all__))

    def test_docstring_names_every_export(self):
        for name in api.__all__:
            assert name in api.__doc__, (
                f"api.__all__ exports {name!r} but the repro.api "
                "docstring never mentions it"
            )

    def test_every_export_is_a_real_attribute(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_every_export_importable_from_top_level(self):
        for name in api.__all__:
            assert name in repro._EXPORTS, (
                f"api.__all__ exports {name!r} but repro/__init__.py "
                "has no lazy export for it"
            )
            assert getattr(repro, name) is getattr(api, name), (
                f"repro.{name} and repro.api.{name} are different "
                "objects"
            )

    def test_lazy_export_map_resolves(self):
        from importlib import import_module

        for name, module in repro._EXPORTS.items():
            assert hasattr(import_module(module), name), (
                f"repro._EXPORTS maps {name!r} to {module}, which "
                "does not define it"
            )
            assert name in repro.__all__

    def test_cluster_facade_exports(self):
        from repro import cluster

        assert api.analyze_cluster is cluster.analyze_cluster
        assert api.Coordinator is cluster.Coordinator
        assert repro.analyze_cluster is cluster.analyze_cluster
        assert repro.Coordinator is cluster.Coordinator


class TestLazyPackage:
    def test_top_level_reexports(self):
        assert repro.Tapo is Tapo
        assert repro.AnalysisConfig is AnalysisConfig
        assert repro.analyze is api.analyze
        assert "Tapo" in dir(repro)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="nope"):
            repro.nope

    def test_import_is_lazy(self):
        # A fresh interpreter must not pull in the heavy subsystems on
        # a bare ``import repro``.
        code = (
            "import sys, repro; "
            "heavy = [m for m in sys.modules if m.startswith("
            "('repro.core', 'repro.tcp', 'repro.experiments', "
            "'repro.live'))]; "
            "assert not heavy, heavy; "
            "repro.Tapo; "
            "assert 'repro.core.tapo' in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60
        )


class TestUnifiedCli:
    def test_help(self, capsys):
        from repro.cli import main

        assert main(["help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        from repro.cli import main

        assert main(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_usage_lists_watch(self, capsys):
        from repro.cli import main

        assert main(["help"]) == 0
        assert "watch" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro.cli import main, version_string

        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out == f"repro-paper {version_string()}\n"
        assert main(["version"]) == 0
        assert capsys.readouterr().out == out

    def test_tapo_version_flag(self, capsys):
        from repro.cli import version_string
        from repro.core.cli import main as tapo_main

        with pytest.raises(SystemExit) as excinfo:
            tapo_main(["--version"])
        assert excinfo.value.code == 0
        assert version_string() in capsys.readouterr().out

    def test_watch_version_flag(self, capsys):
        from repro.cli import version_string
        from repro.live.cli import main as watch_main

        with pytest.raises(SystemExit) as excinfo:
            watch_main(["--version"])
        assert excinfo.value.code == 0
        assert version_string() in capsys.readouterr().out

    def test_analyze_dispatch(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.pcap"
        write_pcap(path, small_trace())
        assert main(["analyze", str(path)]) == 0
        assert "flows analyzed" in capsys.readouterr().out

    def test_tapo_alias(self, tmp_path, capsys):
        from repro.cli import tapo_main

        path = tmp_path / "t.pcap"
        write_pcap(path, small_trace())
        assert tapo_main([str(path)]) == 0
        assert "flows analyzed" in capsys.readouterr().out

    def test_analyze_stream_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.pcap"
        write_pcap(path, small_trace())
        metrics = tmp_path / "metrics"
        assert (
            main(
                [
                    "analyze",
                    str(path),
                    "--stream",
                    "--stats",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "stream:" in err
        assert metrics.with_suffix(".json").exists()
        assert metrics.with_suffix(".prom").exists()

    def test_stream_output_matches_batch(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.pcap"
        write_pcap(path, small_trace())
        assert main(["analyze", str(path), "--json"]) == 0
        batch = capsys.readouterr().out
        assert main(["analyze", str(path), "--json", "--stream"]) == 0
        stream = capsys.readouterr().out
        assert stream == batch

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_every_subcommand_renders_help(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "-h"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "cluster", "watch"])
    def test_malformed_server_ip_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        from repro.cli import main

        # The capture does not exist: only a parse-time check exits 2
        # without trying to open it.
        missing = str(tmp_path / "missing.pcap")
        argv = [command, missing, "--server-ip", "10.0.0"]
        if command == "watch":
            argv.append("--once")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --server-ip: not a dotted quad" in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("analyze", "--tau", "0"),
            ("analyze", "--tau", "-1"),
            ("cluster", "--tau", "0"),
            ("watch", "--tau", "-1"),
            ("analyze", "--idle-timeout", "-5"),
            ("watch", "--idle-timeout", "0"),
            ("cluster-worker", "--idle-timeout", "-5"),
            ("analyze", "--workers", "-3"),
            ("watch", "--workers", "-3"),
            ("run", "--workers", "-3"),
            ("matrix", "--workers", "-1"),
            ("cluster", "--shards", "0"),
        ],
    )
    def test_out_of_range_number_is_a_usage_error(
        self, command, flag, value, tmp_path, capsys
    ):
        """A number that would silently change the answer (a stall
        threshold or idle timeout of zero or less, a negative worker
        count, no shards) is refused while the flags are parsed."""
        from repro.cli import main

        argv = [command]
        if command in ("analyze", "cluster", "watch"):
            argv.append(str(tmp_path / "missing.pcap"))
        argv.append(f"{flag}={value}")
        if command == "analyze":
            argv.append("--stream")
        if command == "watch":
            argv.append("--once")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: expected " in capsys.readouterr().err
