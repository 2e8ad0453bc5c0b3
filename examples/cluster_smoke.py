#!/usr/bin/env python3
"""End-to-end smoke test for ``repro-paper cluster`` (the CI cluster-smoke job).

Drives the sharded coordinator the way production would, as a real
subprocess:

1. generate two capture files from the workload trace generator,
   damage one of them with :func:`repro.testing.faults.corrupt_pcap_records`,
   and simulate a third — cloud-storage flows on the stock lossy path,
   megabytes spanning several decode slabs, the later ones full of
   SACK-bearing ACKs and free of SYNs: the paper's traffic;
2. run ``repro-paper cluster`` with 4 shards and a kill-once injection
   (``REPRO_CLUSTER_KILL_SHARD``) so exactly one worker dies mid-run —
   the coordinator must detect the death, retry the shard, and finish;
3. run the same captures single-process (``--shards 1``) and assert the
   two merged reports are byte-identical, corruption and death
   included — then cross-check both against an in-process batch run;
4. assert the kill sentinel proves the death actually happened, and
   that ``--stats``/``--metrics-out`` produced fleet counters.

Usage::

    python examples/cluster_smoke.py [--outdir cluster-out] [--flows 24]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.config import AnalysisConfig
from repro.core.report import ServiceReport
from repro.core.tapo import Tapo
from repro.errors import ErrorBudget
from repro.experiments.runner import run_flows
from repro.packet.pcap import write_pcap
from repro.testing.faults import corrupt_pcap_records
from repro.testing.traces import generate_trace
from repro.workload import generate_flows, get_profile

KILL_SHARD = 2


def generate_captures(capdir: Path, flows: int, seed: int) -> list[Path]:
    """Three captures: two rotated ones of scripted flows, the second
    with a sprinkling of corrupt records so the lenient budget and
    fault merge are exercised, then one of simulated loss-heavy flows
    (about 0.4 MB each, so a couple of dozen span several slabs)."""
    first = capdir / "cap-000.pcap"
    second = capdir / "cap-001.pcap"
    half = flows // 2
    write_pcap(first, generate_trace(seed=seed, flows=half))
    clean = capdir / "cap-001.clean"
    write_pcap(
        clean, generate_trace(seed=seed + 1, flows=flows - half, start=1100.0)
    )
    corrupt_pcap_records(clean, second, fraction=0.03, seed=seed)
    clean.unlink()
    lossy = capdir / "cap-002.pcap"
    simulated = run_flows(
        generate_flows(get_profile("cloud_storage"), flows, seed=seed),
        workers=1,
    ).results
    write_pcap(
        lossy,
        sorted(
            (packet for result in simulated for packet in result.packets),
            key=lambda packet: packet.timestamp,
        ),
    )
    return [first, second, lossy]


def run_cli(
    paths: list[Path],
    shards: int,
    outdir: Path,
    extra: list[str] | None = None,
    env: dict | None = None,
) -> str:
    """Run ``repro-paper cluster`` as a subprocess; return stdout."""
    cmd = [
        sys.executable, "-m", "repro.cli", "cluster",
        *[str(p) for p in paths],
        "--shards", str(shards),
        "--errors", "lenient",
        "--service", "smoke",
        "--json",
        *(extra or []),
    ]
    log = outdir / f"cluster-{shards}shard.log"
    proc = subprocess.run(
        cmd,
        env={**os.environ, **(env or {})},
        stdout=subprocess.PIPE,
        stderr=log.open("w"),
        text=True,
    )
    assert proc.returncode == 0, (
        f"{' '.join(cmd)} exited {proc.returncode}; see {log}"
    )
    return proc.stdout


def batch_reference(paths: list[Path]) -> str:
    """In-process single-process oracle, canonically sorted."""
    tapo = Tapo(
        config=AnalysisConfig(errors=ErrorBudget.lenient())
    )
    report = ServiceReport(service="smoke")
    for path in paths:
        for analysis in tapo.analyze_pcap(path):
            report.add(analysis)
    return report.canonical_sort().to_json() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="cluster-out")
    parser.add_argument("--flows", type=int, default=24)
    parser.add_argument("--seed", type=int, default=20141222)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    capdir = outdir / "captures"
    capdir.mkdir(exist_ok=True)
    paths = generate_captures(capdir, args.flows, args.seed)

    sentinel = outdir / "cluster_kill_once.sentinel"
    sentinel.unlink(missing_ok=True)
    clustered = run_cli(
        paths,
        shards=4,
        outdir=outdir,
        extra=["--stats", "--metrics-out", str(outdir / "metrics")],
        env={
            "REPRO_CLUSTER_KILL_SHARD": str(KILL_SHARD),
            "REPRO_CLUSTER_KILL_DIR": str(outdir),
        },
    )
    assert sentinel.exists(), (
        "kill sentinel missing — the injected worker death never happened"
    )
    print(f"4-shard run survived a worker death on shard {KILL_SHARD}")

    single = run_cli(paths, shards=1, outdir=outdir)
    assert clustered == single, (
        "4-shard merged report diverged from the single-process run"
    )
    reference = batch_reference(paths)
    assert clustered == reference, (
        "cluster report diverged from the in-process batch oracle"
    )
    (outdir / "report.json").write_text(clustered)
    print("byte-identical: 4-shard == 1-shard == in-process batch")

    report = json.loads(clustered)
    assert report["service"] == "smoke"
    assert report["flows"], "smoke trace produced no analyzed flows"
    prom = (outdir / "metrics.prom").read_text()
    assert "repro_" in prom, "metrics export missing fleet counters"
    corrupt = next(
        float(line.split()[-1])
        for line in prom.splitlines()
        if line.startswith("repro_fault_corrupt_records_total")
    )
    assert corrupt > 0, "injected pcap corruption never reached the reader"
    stats = (outdir / "cluster-4shard.log").read_text()
    assert "1 worker deaths" in stats, stats

    print(
        f"PASS: {len(report['flows'])} flows, "
        f"{len(report['skipped'])} quarantined across 4 shards; "
        "death detection, retry, fault merge, and byte parity "
        "all exercised"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
