"""Golden analyses: the analyzer's twin of ``tests/test_sim_golden.py``.

One sha256 per (policy, service) over every :class:`FlowAnalysis` field
of the same seeded flows, analyzed twice: through
:meth:`Tapo.analyze_packets` (ingest, replay, classification — what
production runs) and through a bare :meth:`FlowAnalyzer.run` on every
flow (the replay alone, unclassified).  The parity suites compare the column-driven analyzer with the
object-driven one and the perf benchmark's ``report_digest`` hashes the
report; both sides of either share :class:`FlowAnalyzer`, so neither
sees a change to its arithmetic that these constants do.  A speed-only
change to the analyzer must leave every constant below alone.
Regenerate (only with a change that is *meant* to alter an analysis)
with::

    PYTHONPATH=src python tests/test_analyzer_golden.py

The constants were generated at 4557561, before the per-row path was
flattened into ``FlowAnalyzer.feed_rows``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.config import AnalysisConfig
from repro.core.flow_analyzer import FlowAnalysis, FlowAnalyzer
from repro.core.tapo import Tapo
from repro.experiments.runner import run_flow
from repro.tcp.policies import REGISTRY
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

SEED = 20141222
#: Flows per cell, as in ``test_sim_golden``: the same scenarios, which
#: meet losses, timeouts, probes and DSACKs under every policy.
FLOWS = {"web_search": 50, "cloud_storage": 14, "software_download": 8}
POLICIES = ("mobile", "native", "srto", "tlp", "tracks")
#: The cell that is also analyzed with ``record_series=True``.
SERIES_CELL = ("native", "cloud_storage")

GOLDEN = {
    ("mobile", "web_search"): (
        "e274f4059f611f719a682fe327d624195b99853239ab35130a84db4f9dfa5ae5"
    ),
    ("mobile", "cloud_storage"): (
        "314a8312386c200104682e1dee318c7df69f7def3660fb1a5cdec425c78245fc"
    ),
    ("mobile", "software_download"): (
        "36d8f208bd9ef878b1a5d961ef00af86c143c9156a330e026174c759701c6903"
    ),
    ("native", "web_search"): (
        "9b95eeeda78740f895b1e6d53e4c3c4a4cc7b9822e99d4ee5262b8078867bb87"
    ),
    ("native", "cloud_storage"): (
        "af7afe72accb203a9fe99dafbc1a5a2074036d86c096bdfa0e7f67d96eb134c3"
    ),
    ("native", "software_download"): (
        "a204d752c731b5e52b8e214dac78861f53dd2b12e0ac117047d4a300e29b72af"
    ),
    ("srto", "web_search"): (
        "bb6afcd4d7dd7fafca2a92c13723fe9b43533fea4ef645ed276b99924a6abb1a"
    ),
    ("srto", "cloud_storage"): (
        "d51ddaa17626c3d646060488ee390c911079dae73502bf508e96bffea74bc622"
    ),
    ("srto", "software_download"): (
        "858fecef9708ca54bb17ddc0460f5079ae6ffe336c8699d91533bdf9cf018577"
    ),
    ("tlp", "web_search"): (
        "1eacd6e8ab1062ca30176cdd36a7133adebf06101fc72c117347bfe68bc3351e"
    ),
    ("tlp", "cloud_storage"): (
        "fa1a469f5e99c131c2fb645f7c5dfa4bf6df5857ca6d04c9e134170f4721042a"
    ),
    ("tlp", "software_download"): (
        "dc96f318ddb8c0a855a0f131731f59ce41e6d4e33794a4242159ea0fa4924d3b"
    ),
    ("tracks", "web_search"): (
        "e9de4fe8a596063083623d1b3f542e62cab8d1b7463c62035ce6d3bbd38a12f6"
    ),
    ("tracks", "cloud_storage"): (
        "df7736260c133916c8d10e215f723f1f2990fa1f0d9b865f591d55a206cc8637"
    ),
    ("tracks", "software_download"): (
        "34039046d05e4fc5f368be3a022d05a28fcbfbc15460905472f5597bd339e42c"
    ),
}
GOLDEN_SERIES = (
    "7decb4e6933966a9fa62d8020182faa426e4439c150246fff01a18b1e279ad25"
)


def _fields(analysis: FlowAnalysis) -> tuple:
    """Every field of one analysis, floats as ``repr`` and enums by
    value, in declaration order (``flow`` stands in as its key and
    packet count)."""
    out = []
    for spec in dataclasses.fields(analysis):
        value = getattr(analysis, spec.name)
        if spec.name == "flow":
            value = (repr(value.key), len(value.packets))
        elif spec.name == "stalls":
            value = [dataclasses.astuple(stall) for stall in value]
        out.append((spec.name, value))
    return tuple(out)


def analysis_digest(
    policy: str, service: str, config: AnalysisConfig | None = None
) -> str:
    config = config or AnalysisConfig()
    digest = hashlib.sha256()
    scenarios = generate_flows(
        get_profile(service), FLOWS[service], seed=SEED, policy=policy
    )
    for scenario in scenarios:
        packets = run_flow(scenario).packets
        for analysis in Tapo(config=config).analyze_packets(packets):
            digest.update(repr(_fields(analysis)).encode())
            bare = FlowAnalyzer(analysis.flow, config=config).run()
            digest.update(repr(_fields(bare)).encode())
    return digest.hexdigest()


def test_every_policy_and_service_is_pinned():
    assert tuple(REGISTRY.names()) == POLICIES
    assert sorted(GOLDEN) == sorted(
        (policy, service) for policy in POLICIES for service in FLOWS
    )


@pytest.mark.parametrize("policy,service", sorted(GOLDEN))
def test_analysis_is_byte_identical(policy, service):
    assert analysis_digest(policy, service) == GOLDEN[(policy, service)]


def test_kernel_series_is_byte_identical():
    config = AnalysisConfig(record_series=True)
    assert analysis_digest(*SERIES_CELL, config) == GOLDEN_SERIES


if __name__ == "__main__":
    print("GOLDEN = {")
    for policy, service in (
        (policy, service) for policy in POLICIES for service in FLOWS
    ):
        print(f'    ("{policy}", "{service}"): (')
        print(f'        "{analysis_digest(policy, service)}"')
        print("    ),")
    print("}")
    series = analysis_digest(*SERIES_CELL, AnalysisConfig(record_series=True))
    print(f'GOLDEN_SERIES = (\n    "{series}"\n)')
