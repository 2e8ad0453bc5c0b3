"""Dataset construction: simulate the three services and analyze them.

The paper's measurement section is one dataset (Table 1) analyzed many
ways (Figs. 1-12, Tables 3-7).  :func:`build_dataset` runs the
simulator once per service, pushes every trace through TAPO, and
returns per-service :class:`~repro.core.report.ServiceReport` objects.

Two cache layers keep re-analysis cheap:

* an in-process LRU memo (bounded to :data:`MEMO_MAX_ENTRIES` builds)
  shares one dataset across all table/figure targets of a run;
* a content-addressed on-disk cache (:mod:`repro.experiments.cache`)
  shares simulations **across processes** — pytest, the benches, and
  the CLI all reuse the same build.  Disable with
  ``RunConfig(use_cache=False)`` or ``REPRO_DISK_CACHE=0``.

``RunConfig.workers`` shards the simulation across processes (see
:mod:`repro.experiments.parallel`); the result is byte-identical to a
serial build with the same parameters.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..config import RunConfig
from ..core.report import ServiceReport
from ..core.tapo import Tapo
from ..obs.metrics import phase_span
from ..workload.generator import generate_flows
from ..workload.services import SERVICE_PROFILES, get_profile
from .cache import (
    DatasetCache,
    dataset_cache_key,
    dataset_fingerprint,
    disk_cache_enabled,
)
from .metrics import RunMetrics
from .runner import DatasetRun, run_flows

SERVICES = tuple(sorted(SERVICE_PROFILES))

#: Upper bound on distinct (flows, seed, services) builds kept alive
#: in-process; beyond this the least-recently-used build is dropped.
MEMO_MAX_ENTRIES = 8

_CACHE: OrderedDict[tuple, "Dataset"] = OrderedDict()


@dataclass
class Dataset:
    """Simulated traces plus their TAPO analyses, per service."""

    flows_per_service: int
    seed: int
    runs: dict[str, DatasetRun]
    reports: dict[str, ServiceReport]
    metrics: RunMetrics = field(default_factory=RunMetrics)

    @property
    def total_flows(self) -> int:
        return sum(len(r.results) for r in self.runs.values())

    @property
    def total_packets(self) -> int:
        return sum(r.total_packets() for r in self.runs.values())

    def report(self, service: str) -> ServiceReport:
        return self.reports[service]


def _memoize(key: tuple, dataset: "Dataset") -> None:
    _CACHE[key] = dataset
    _CACHE.move_to_end(key)
    while len(_CACHE) > MEMO_MAX_ENTRIES:
        _CACHE.popitem(last=False)


def build_dataset(
    flows_per_service: int = 150,
    seed: int = 20141222,  # first day of the paper's collection window
    services: tuple[str, ...] = SERVICES,
    run: RunConfig | None = None,
) -> Dataset:
    """Simulate and analyze the dataset; cached by parameters.

    Execution knobs (worker processes, cache usage) come from ``run``,
    a :class:`repro.config.RunConfig`.

    Cache layers are consulted in order: in-process memo, then the
    on-disk store, then a fresh (optionally parallel) simulation.
    ``run.use_cache=False`` bypasses both layers entirely — nothing is
    read or written.
    """
    run = run or RunConfig()
    use_cache = run.use_cache
    workers = run.workers
    key = dataset_cache_key(flows_per_service, seed, services)
    if use_cache and key in _CACHE:
        _CACHE.move_to_end(key)
        dataset = _CACHE[key]
        dataset.metrics.cache_hits += 1
        return dataset

    disk = (
        DatasetCache() if use_cache and disk_cache_enabled() else None
    )
    fingerprint = None
    phases: dict[str, float] = {}
    if disk is not None:
        fingerprint = dataset_fingerprint(flows_per_service, seed, services)
        started = time.perf_counter()
        with phase_span(phases, "cache_load"):
            cached = disk.load(fingerprint)
        if cached is not None and not isinstance(cached, Dataset):
            # The entry unpickled cleanly but isn't a Dataset — some
            # other writer landed on our fingerprint.  Treat it like
            # any other corruption: invalidate and rebuild.
            disk.corruptions += 1
            try:
                disk.path_for(fingerprint).unlink()
            except OSError:
                pass
            cached = None
        if cached is not None:
            cached.metrics.cache_hits += 1
            cached.metrics.cache_corruptions += disk.corruptions
            cached.metrics.wall_time = time.perf_counter() - started
            cached.metrics.phases = dict(phases)
            _memoize(key, cached)
            return cached

    started = time.perf_counter()
    tapo = Tapo()
    runs: dict[str, DatasetRun] = {}
    reports: dict[str, ServiceReport] = {}
    for service in services:
        profile = get_profile(service)
        with phase_span(phases, "simulate"):
            run = run_flows(
                generate_flows(profile, flows_per_service, seed=seed),
                workers=workers,
            )
        with phase_span(phases, "analyze"):
            reports[service] = tapo.report(run.traces, service=service)
        runs[service] = run
    metrics = RunMetrics.merged(
        [run.metrics for run in runs.values() if run.metrics is not None]
    )
    metrics.wall_time = time.perf_counter() - started  # include analysis
    metrics.cache_misses += 1
    dataset = Dataset(
        flows_per_service=flows_per_service,
        seed=seed,
        runs=runs,
        reports=reports,
        metrics=metrics,
    )
    if disk is not None and fingerprint is not None:
        with phase_span(phases, "cache_store"):
            disk.store(fingerprint, dataset)
        # Surface the disk layer's own accounting (including corrupted
        # entries it detected and dropped) in the run's metrics.
        metrics.cache_corruptions += disk.corruptions
        metrics.cache_store_failures += disk.store_failures
    # The per-service runs already contributed their "simulate" span
    # via merge(); replace with the dataset-level phase map, which
    # additionally covers analysis and cache traffic.
    metrics.phases = dict(phases)
    if use_cache:
        _memoize(key, dataset)
    return dataset


def clear_cache(disk: bool = False) -> None:
    """Drop memoized datasets (tests use this to force re-simulation).

    With ``disk=True`` the on-disk store is purged as well; by default
    only the in-process memo is cleared.
    """
    _CACHE.clear()
    if disk:
        DatasetCache().clear()
