"""Deprecation-policy tests: every legacy shim forwards correctly,
warns exactly once per call, and names its replacement plus the
removal version — the contract the README's "API stability &
deprecation policy" section promises."""

from __future__ import annotations

import warnings

from repro.config import (
    DEPRECATED_REMOVAL_VERSION,
    AnalysisConfig,
    RunConfig,
)
from repro.core.tapo import Tapo
from repro.experiments.dataset import build_dataset


def deprecations(record):
    return [
        w for w in record if issubclass(w.category, DeprecationWarning)
    ]


def collect(fn):
    """Run ``fn`` with all warnings captured; return (result, warns)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = fn()
    return result, deprecations(record)


class TestTapoShims:
    def test_tau_kwarg_forwards_and_warns_once(self):
        tapo, warns = collect(lambda: Tapo(tau=1.5))
        assert tapo.config.tau == 1.5
        assert tapo.tau == 1.5
        assert len(warns) == 1

    def test_positional_tau_forwards_and_warns_once(self):
        tapo, warns = collect(lambda: Tapo(2.5))
        assert tapo.config.tau == 2.5
        assert len(warns) == 1

    def test_multiple_legacy_kwargs_warn_once_combined(self):
        # One call, one warning — even with several legacy kwargs.
        tapo, warns = collect(
            lambda: Tapo(init_cwnd=10, record_series=True)
        )
        assert tapo.config.init_cwnd == 10
        assert tapo.config.record_series is True
        assert len(warns) == 1
        message = str(warns[0].message)
        assert "init_cwnd" in message and "record_series" in message

    def test_config_object_does_not_warn(self):
        tapo, warns = collect(
            lambda: Tapo(config=AnalysisConfig(tau=1.5))
        )
        assert tapo.tau == 1.5
        assert warns == []

    def test_message_names_replacement_and_removal_version(self):
        _, warns = collect(lambda: Tapo(tau=1.5))
        message = str(warns[0].message)
        assert "AnalysisConfig" in message
        assert DEPRECATED_REMOVAL_VERSION in message
        assert "removed" in message


class TestBuildDatasetShims:
    def test_legacy_kwargs_forward_and_warn_once(self):
        dataset, warns = collect(
            lambda: build_dataset(
                flows_per_service=1,
                seed=1,
                services=("web_search",),
                workers=1,
                use_cache=False,
            )
        )
        assert len(dataset.reports) == 1
        assert len(warns) == 1
        message = str(warns[0].message)
        assert "use_cache" in message and "workers" in message
        assert "RunConfig" in message
        assert DEPRECATED_REMOVAL_VERSION in message

    def test_run_config_does_not_warn(self):
        _, warns = collect(
            lambda: build_dataset(
                flows_per_service=1,
                seed=1,
                services=("web_search",),
                run=RunConfig(workers=1, use_cache=False),
            )
        )
        assert warns == []

    def test_legacy_kwargs_override_run_config(self):
        # A shimmed kwarg beats the RunConfig field it duplicates —
        # matching the historical call sites it exists for.
        dataset, warns = collect(
            lambda: build_dataset(
                flows_per_service=1,
                seed=1,
                services=("web_search",),
                use_cache=False,
                run=RunConfig(workers=1, use_cache=True),
            )
        )
        assert len(warns) == 1
        assert len(dataset.reports) == 1


class TestClusterShims:
    def test_transport_kwarg_is_ignored_and_warns_once(self, tmp_path):
        from repro.api import Coordinator, analyze_cluster
        from repro.packet.pcap import write_pcap
        from repro.testing.traces import generate_trace

        pcap = tmp_path / "trace.pcap"
        write_pcap(pcap, generate_trace(seed=5, flows=4))
        coord, warns = collect(
            lambda: Coordinator(str(pcap), n_shards=2, transport="pipe")
        )
        assert coord.transport == "socket"  # ignored, not forwarded
        assert len(warns) == 1
        message = str(warns[0].message)
        assert "transport" in message
        assert DEPRECATED_REMOVAL_VERSION in message
        report, warns = collect(
            lambda: analyze_cluster(str(pcap), shards=1, transport="socket")
        )
        assert len(warns) == 1
        assert report.to_json() == analyze_cluster(
            str(pcap), shards=1
        ).to_json()


class TestPolicyText:
    def test_readme_documents_the_policy(self):
        from pathlib import Path

        readme = (
            Path(__file__).resolve().parent.parent / "README.md"
        ).read_text()
        assert "deprecation policy" in readme.lower()
        assert DEPRECATED_REMOVAL_VERSION in readme
