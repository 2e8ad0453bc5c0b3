"""Golden packet traces of the simulator.

One sha256 per (policy, service) over every captured packet field, the
event count and every ``SenderStats`` field of a few seeded flows.  The
perf benchmark's ``sim_digest`` hashes ten aggregates; the capture
workloads' ``input_digest`` is the sha256 of a pcap built from these
bytes, so a speed-only change to the simulator must leave every
constant below alone.  Regenerate (only with a change that is *meant*
to alter simulated behaviour) with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.runner import run_flow
from repro.tcp.policies import REGISTRY
from repro.workload.generator import generate_flows
from repro.workload.services import get_profile

SEED = 20141222
#: Flows per cell: enough to meet losses, timeouts and probes under
#: every policy while the fifteen cells together stay under ~5 s.
FLOWS = {"web_search": 50, "cloud_storage": 14, "software_download": 8}
POLICIES = ("mobile", "native", "srto", "tlp", "tracks")

GOLDEN = {
    ("mobile", "web_search"): (
        "dbf4340e80d75347bb5f486d5f803ecf21669a225a9c0e769d9bea5439de718e"
    ),
    ("mobile", "cloud_storage"): (
        "41dc32ad680c9301b63abf86af0aed5494c20e12aebef4d32ad46c800ec94f6e"
    ),
    ("mobile", "software_download"): (
        "cb99f3c6e3f3448f8aac2318a149963225f7de49a8acd5a572981f46797d8cb1"
    ),
    ("native", "web_search"): (
        "21ec1ff3b8deebe38897dad7933b08c496c933baf8fdb0133ca06508845fd5a5"
    ),
    ("native", "cloud_storage"): (
        "429d45a6100b67e605101bb90214628ee77d55cf7c4b00c5ec365083891a57af"
    ),
    ("native", "software_download"): (
        "9aa4d74f50ce71ffe06ecf58af30c71e4cb43b0f6b5f51e1cba4b31e48ab58a3"
    ),
    ("srto", "web_search"): (
        "aeddfec1bb629b75717ccabd66ade90880ad0918ec08d2198d74953ab86a0c72"
    ),
    ("srto", "cloud_storage"): (
        "da64ed28cc14b262fcc722d52e0fdf179c2e3daee7425128a96a721bb62c49a2"
    ),
    ("srto", "software_download"): (
        "6181920300c9a887203723390a171092a4030ad366c09d54840c50e72f4bd40f"
    ),
    ("tlp", "web_search"): (
        "df6683a83e917f9c8838df779ef24ce60e28287b1304863411b58aeac1dde46d"
    ),
    ("tlp", "cloud_storage"): (
        "3794c304302462f841daa76b7d4cf345c63c1d40f7c2b3b77be2622a8183dc79"
    ),
    ("tlp", "software_download"): (
        "1b7c05902c38bb5b0c2aaef346d9f07af7b9512f4ce9b257efc92de5035be506"
    ),
    ("tracks", "web_search"): (
        "44a0a80dad532f6dc6958d90c055281bc16a85eac68d9ac5195f3be40486a70e"
    ),
    ("tracks", "cloud_storage"): (
        "f24c81464084878753b2541ce56e7269d3ac0af89b7ebf704b47f5308a90f7da"
    ),
    ("tracks", "software_download"): (
        "3b52bfa7713fc1c77be65a05b276bae87ff9ee3c974047c1eec7564bec7a2381"
    ),
}


def trace_digest(policy: str, service: str) -> str:
    digest = hashlib.sha256()
    scenarios = generate_flows(
        get_profile(service), FLOWS[service], seed=SEED, policy=policy
    )
    for scenario in scenarios:
        result = run_flow(scenario)
        for p in result.packets:
            digest.update(
                repr(
                    (
                        repr(p.timestamp), p.src_ip, p.dst_ip, p.src_port,
                        p.dst_port, p.seq, p.ack, p.flags, p.window,
                        p.payload_len, p.options.sack_blocks,
                        p.options.ts_val, p.options.ts_ecr,
                    )
                ).encode()
            )
        stats = dataclasses.asdict(result.server_stats)
        digest.update(repr((result.events, sorted(stats.items()))).encode())
    return digest.hexdigest()


def test_every_registry_policy_is_pinned():
    assert tuple(REGISTRY.names()) == POLICIES


@pytest.mark.parametrize("policy,service", sorted(GOLDEN))
def test_packet_trace_is_byte_identical(policy, service):
    assert trace_digest(policy, service) == GOLDEN[(policy, service)]


if __name__ == "__main__":
    for policy, service in GOLDEN:
        print(f'    ("{policy}", "{service}"): (')
        print(f'        "{trace_digest(policy, service)}"')
        print("    ),")
