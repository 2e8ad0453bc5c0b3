#!/usr/bin/env python3
"""Chaos smoke for the cross-host cluster (the CI chaos-smoke job).

Runs a 4-shard ``--listen`` coordinator with three real
``repro-paper cluster-worker`` subprocesses dialing in, each through
its own :class:`repro.testing.faults.ChaosProxy`:

* worker A: clean link;
* worker B: 1% of post-handshake chunks truncated mid-frame (each cut
  hard-closes the connection, so B keeps dying and redialing) **and**
  the kill-once seam armed (``REPRO_CLUSTER_KILL_SHARD``), so one
  worker process additionally dies via ``os._exit`` after computing a
  shard but before reporting it;
* worker C: blackholed after the handshake bytes — the connection
  stays open but silent, the half-open shape only the coordinator's
  heartbeat deadline can detect.

The run must complete anyway (reassignment + redial + in-process
fallback), and the merged report must be byte-identical to a
single-process run of the same captures.  A second coordinator pass
with ``--resume`` over the same checkpoint spool must then resume all
4 shards without recomputing any (the checkpoint-reuse guarantee).

Emits a JSON artifact (``--json-out``) with the chaos counters and
gate verdicts; exits non-zero if any gate fails.

Usage::

    python benchmarks/bench_cluster_chaos.py [--outdir chaos-out]
        [--flows 24] [--json-out chaos.json]
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import _emit  # noqa: E402

from repro.cluster import Coordinator, NetConfig  # noqa: E402
from repro.config import RunConfig  # noqa: E402
from repro.packet.pcap import write_pcap  # noqa: E402
from repro.testing.faults import ChaosProxy, NetFaultPlan  # noqa: E402
from repro.testing.traces import generate_trace  # noqa: E402

N_SHARDS = 4
#: Enough to let the ~1.5 KiB handshake + first ASSIGN through before
#: faults arm.
HANDSHAKE_GRACE_BYTES = 2048
#: Lets the ~350-byte handshake through in each direction but swallows
#: the first ASSIGN frame: the worker authenticates, gets marked
#: working, and then never hears (or says) another word — the
#: half-open shape only the heartbeat deadline can detect, engaged
#: by byte count so it does not race the run's speed.
BLACKHOLE_AFTER_BYTES = 400

PLANS = {
    "clean": NetFaultPlan(),
    "truncate": NetFaultPlan(
        truncate_rate=0.01, bytes_before_faults=HANDSHAKE_GRACE_BYTES
    ),
    "blackhole": NetFaultPlan(blackhole_after=BLACKHOLE_AFTER_BYTES),
}


def start_worker(
    address: tuple[str, int],
    secret: str,
    outdir: Path,
    name: str,
    extra_env: dict | None = None,
) -> subprocess.Popen:
    """One real dial-in worker subprocess, logging to ``outdir``."""
    cmd = [
        sys.executable, "-m", "repro.cli", "cluster-worker",
        "--connect", f"{address[0]}:{address[1]}",
        "--cluster-secret", secret,
        "--max-retries", "3",
        "--retry-backoff", "0.2",
        "--backoff-seed", "7",
        "--idle-timeout", "5",
        "--stats",
    ]
    log = (outdir / f"worker-{name}.log").open("w")
    env = {**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", "")}
    env.update(extra_env or {})
    return subprocess.Popen(cmd, stdout=log, stderr=log, env=env)


def reap(proc: subprocess.Popen, grace: float = 15.0) -> int | None:
    """Wait for a worker, escalating to terminate/kill; its exit code
    (negative = signal), or None if it had to be killed."""
    try:
        return proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            return proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def run_chaos(outdir: Path, flows: int, seed: int) -> dict:
    """The full scenario; returns the artifact dict (see ``gates``)."""
    capdir = outdir / "captures"
    capdir.mkdir(parents=True, exist_ok=True)
    paths = [capdir / "cap-000.pcap", capdir / "cap-001.pcap"]
    half = flows // 2
    write_pcap(paths[0], generate_trace(seed=seed, flows=half))
    write_pcap(
        paths[1],
        generate_trace(seed=seed + 1, flows=flows - half, start=1100.0),
    )

    secret = secrets.token_hex(16)
    spool = outdir / "spool"
    coordinator = Coordinator(
        paths,
        n_shards=N_SHARDS,
        service="chaos",
        checkpoint_dir=spool,
        heartbeat_interval=0.5,
        heartbeat_deadline=4.0,
        jitter_seed=seed,
        run=RunConfig(max_retries=6, retry_backoff=0.1),
        net=NetConfig(secret=secret, worker_grace=20.0),
    )
    address = coordinator.bind()

    box: dict = {}

    def serve():
        try:
            box["result"] = coordinator.run()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()

    started = time.monotonic()
    sentinel = outdir / "cluster_kill_once.sentinel"
    sentinel.unlink(missing_ok=True)
    kill_env = {
        # Every worker arms the seam; the O_EXCL sentinel guarantees
        # exactly one death fleet-wide, whoever draws the shard first.
        "REPRO_CLUSTER_KILL_SHARD": "2",
        "REPRO_CLUSTER_KILL_DIR": str(outdir),
    }
    proxies: dict[str, ChaosProxy] = {}
    workers: dict[str, subprocess.Popen] = {}
    try:
        for name, plan in PLANS.items():
            proxy = ChaosProxy(*address, seed=seed, plan=plan)
            proxy.start()
            proxies[name] = proxy
            workers[name] = start_worker(
                proxy.address, secret, outdir, name, extra_env=kill_env,
            )
        thread.join(timeout=180)
        alive = thread.is_alive()
    finally:
        exits = {name: reap(proc) for name, proc in workers.items()}
        for proxy in proxies.values():
            proxy.stop()
    if alive:
        raise RuntimeError("coordinator did not finish within 180s")
    if "error" in box:
        raise box["error"]
    result = box["result"]
    wall_time = time.monotonic() - started

    chaos_json = result.report.to_json()
    single_json = Coordinator(
        paths, n_shards=1, service="chaos"
    ).run().report.to_json()

    resumed = Coordinator(
        paths,
        n_shards=N_SHARDS,
        service="chaos",
        checkpoint_dir=spool,
        resume=True,
        net=NetConfig(secret=secret, worker_grace=0.1),
    ).run()

    artifact = {
        "config": {
            "n_shards": N_SHARDS,
            "flows": flows,
            "seed": seed,
            "plans": sorted(PLANS),
        },
        "chaos": {
            "workers_died": result.workers_died,
            "reassignments": result.reassignments,
            "heartbeat_misses": result.heartbeat_misses,
            "auth_failures": result.auth_failures,
            "kill_sentinel": sentinel.exists(),
            "worker_exits": exits,
            "workers_seen": len(result.workers),
            "wall_time": round(wall_time, 3),
        },
        "parity": {
            "flows": len(result.report.flows),
            "byte_identical": chaos_json == single_json,
        },
        "resume": {
            "shards_resumed": resumed.shards_resumed,
            "byte_identical": resumed.report.to_json() == chaos_json,
        },
    }
    artifact["gates"] = {
        "completed_under_chaos": True,
        "byte_identical": artifact["parity"]["byte_identical"],
        "kill_happened": artifact["chaos"]["kill_sentinel"],
        "death_detected": result.workers_died >= 1,
        "reassigned": result.reassignments >= 1,
        "blackhole_detected": result.heartbeat_misses >= 1,
        "resume_skips_all_shards": resumed.shards_resumed == N_SHARDS,
        "resume_byte_identical": artifact["resume"]["byte_identical"],
    }
    (outdir / "report.json").write_text(chaos_json + "\n")
    return artifact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="chaos-out")
    parser.add_argument("--flows", type=int, default=24)
    parser.add_argument("--seed", type=int, default=20141222)
    parser.add_argument("--json-out", default=None, metavar="PATH")
    _emit.add_store_argument(parser)
    args = parser.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    artifact = run_chaos(outdir, args.flows, args.seed)
    elapsed = time.monotonic() - started

    failed = [k for k, ok in artifact["gates"].items() if not ok]
    payload = json.dumps(artifact, indent=2, sort_keys=True)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n")
    _emit.emit_result(
        "cluster_chaos", artifact,
        store_path=args.results_store, wall_time=elapsed,
    )
    print(payload)
    if failed:
        print(f"FAIL: gates not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    chaos = artifact["chaos"]
    print(
        f"PASS: survived 1 kill + blackhole + {PLANS['truncate'].truncate_rate:.0%} "
        f"truncation ({chaos['workers_died']} deaths, "
        f"{chaos['reassignments']} reassignments, "
        f"{chaos['heartbeat_misses']} heartbeat misses); "
        "merged report byte-identical, resume recomputed nothing"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
