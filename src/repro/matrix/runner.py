"""The scenario × policy matrix runner.

Sweeps every selected recovery policy over every (workload, path)
scenario and emits one ranked table extending the paper's Tables 8/9:
for each scenario, policies ordered best-first by mean request latency
(tie-broken by tail latency, then name), with stall rate, tail FCT,
and retransmission cost per cell.

Execution properties:

* **Deterministic.**  Cells run in a fixed order (workload, path,
  policy) and each cell is an ordinary
  :func:`repro.experiments.mitigation.run_policy` call with a fixed
  seed — the same call, with the same arguments, that the Table 8/9
  sweep makes for the WAN cells, so those numbers reproduce
  byte-identically.  Worker parallelism happens *inside* a cell (the
  byte-identical ``run_flows`` pool), never across cells, so results
  are independent of ``--workers``.
* **Resumable per cell.**  Each finished cell is stored in a
  dedicated :class:`~repro.experiments.cache.DatasetCache` under a
  fingerprint covering the package source digest and every cell
  parameter.  An interrupted sweep re-runs only the missing cells;
  ``use_cache=False`` (CLI ``--no-cache``) recomputes everything.
* **Recorded.**  :func:`append_to_store` writes one ``experiment``
  record with per-scenario rankings, in the shape
  :func:`repro.results.trends.detect_ranking_flips` watches — a
  policy-order flip between runs shows up in
  ``repro-paper results trends``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field

from ..config import validate_policies
from ..experiments.cache import (
    DatasetCache,
    code_version_salt,
    default_cache_dir,
    disk_cache_enabled,
)
from ..experiments.mitigation import POLICY_LABELS, run_policy, table89_sweep
from ..tcp.policies import REGISTRY
from .scenarios import PATH_SCENARIOS, WORKLOADS, Workload, get_workload, scenario_profile

#: Canonical table order for the built-in policies; registry entries
#: beyond these run after, in registration-name order.
_PREFERRED_ORDER = ("native", "tlp", "srto", "tracks", "mobile")

#: The metric names every cell carries, in table-column order.
CELL_METRICS = (
    "flows",
    "mean_latency",
    "p50_latency",
    "p90_latency",
    "p95_latency",
    "stall_rate",
    "failed_flows",
    "retransmission_ratio",
    "probe_retransmissions",
)


def default_policies() -> tuple[str, ...]:
    """Every registered policy, in canonical table order."""
    names = REGISTRY.names()
    ordered = [name for name in _PREFERRED_ORDER if name in names]
    ordered += [name for name in names if name not in _PREFERRED_ORDER]
    return tuple(ordered)


_SWEEP = inspect.signature(table89_sweep).parameters


@dataclass(frozen=True)
class MatrixConfig:
    """One matrix sweep, fully specified.

    ``None`` axis selections mean "everything registered".  ``flows``
    and ``seed`` default to :func:`table89_sweep`'s and ``t2`` to
    :func:`run_policy`'s, so with each workload's own ``t1`` the WAN
    cells are the Table 8/9 sweep — the byte-identity anchor.
    """

    flows: int = _SWEEP["flows"].default
    seed: int = _SWEEP["seed"].default
    t2: int = inspect.signature(run_policy).parameters["t2"].default
    policies: tuple[str, ...] | None = None
    workloads: tuple[str, ...] | None = None
    paths: tuple[str, ...] | None = None
    workers: int | None = 1
    use_cache: bool = True

    def resolved_policies(self) -> tuple[str, ...]:
        if self.policies is None:
            return default_policies()
        return validate_policies(self.policies)

    def resolved_workloads(self) -> tuple[Workload, ...]:
        names = self.workloads if self.workloads is not None else tuple(WORKLOADS)
        return tuple(get_workload(name) for name in names)

    def resolved_paths(self) -> tuple[str, ...]:
        if self.paths is None:
            return PATH_SCENARIOS
        from ..netsim.profiles import make_path_model

        for name in self.paths:
            make_path_model(name)  # raises listing the registered set
        return tuple(self.paths)


@dataclass
class MatrixCell:
    """One finished (workload, path, policy) cell."""

    workload: str
    path: str
    policy: str
    metrics: dict[str, float]
    wall_time: float
    #: Whether this run loaded the cell from the on-disk cache.
    cached: bool = False

    @property
    def scenario(self) -> str:
        return f"{self.workload}/{self.path}"


def _ranking_key(cell: MatrixCell):
    return (
        cell.metrics["mean_latency"],
        cell.metrics["p95_latency"],
        cell.policy,
    )


@dataclass
class MatrixResult:
    """All cells of one sweep plus the derived ranked table."""

    config: MatrixConfig
    cells: list[MatrixCell] = field(default_factory=list)
    wall_time: float = 0.0

    def scenarios(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.scenario not in seen:
                seen.append(cell.scenario)
        return seen

    def scenario_cells(self, scenario: str) -> list[MatrixCell]:
        return [c for c in self.cells if c.scenario == scenario]

    def rankings(self) -> dict[str, list[str]]:
        """Per-scenario policy order, best (lowest latency) first."""
        return {
            scenario: [
                cell.policy
                for cell in sorted(
                    self.scenario_cells(scenario), key=_ranking_key
                )
            ]
            for scenario in self.scenarios()
        }

    def winners(self) -> dict[str, str]:
        return {
            scenario: order[0] for scenario, order in self.rankings().items()
        }

    def metrics(self) -> dict[str, float]:
        """Flat per-cell metrics for a results-store record."""
        flat: dict[str, float] = {}
        for cell in self.cells:
            prefix = f"{cell.workload}_{cell.path}_{cell.policy}"
            for key in ("mean_latency", "p95_latency", "stall_rate"):
                flat[f"{prefix}_{key}"] = cell.metrics[key]
        return flat

    def to_json(self) -> dict:
        return {
            "config": {
                "flows": self.config.flows,
                "seed": self.config.seed,
                "t2": self.config.t2,
                "policies": list(self.config.resolved_policies()),
                "workloads": [
                    w.name for w in self.config.resolved_workloads()
                ],
                "paths": list(self.config.resolved_paths()),
            },
            "wall_time": self.wall_time,
            "rankings": self.rankings(),
            "cells": [
                {
                    "workload": cell.workload,
                    "path": cell.path,
                    "policy": cell.policy,
                    "wall_time": cell.wall_time,
                    "cached": cell.cached,
                    "metrics": cell.metrics,
                }
                for cell in self.cells
            ],
        }

    def format_table(self) -> str:
        """The ranked table, one block per scenario."""
        lines: list[str] = []
        rankings = self.rankings()
        for scenario in self.scenarios():
            lines.append(f"=== {scenario} ===")
            lines.append(
                f"{'rank':>4}  {'policy':<10} {'mean':>9} {'p95':>9} "
                f"{'stall%':>7} {'retx%':>7} {'probes':>7}"
            )
            by_policy = {c.policy: c for c in self.scenario_cells(scenario)}
            for rank, policy in enumerate(rankings[scenario], start=1):
                cell = by_policy[policy]
                m = cell.metrics
                label = POLICY_LABELS.get(policy, policy)
                lines.append(
                    f"{rank:>4}  {label:<10} "
                    f"{m['mean_latency'] * 1000:>8.1f}m "
                    f"{m['p95_latency'] * 1000:>8.1f}m "
                    f"{m['stall_rate'] * 100:>6.1f}% "
                    f"{m['retransmission_ratio'] * 100:>6.2f}% "
                    f"{int(m['probe_retransmissions']):>7}"
                )
            lines.append("")
        return "\n".join(lines)


def matrix_cache(root=None) -> DatasetCache:
    """The per-cell cache (separate root so the busy dataset cache's
    24-entry eviction never churns matrix cells)."""
    base = default_cache_dir() if root is None else root
    return DatasetCache(root=base / "matrix", max_entries=512)


def cell_fingerprint(
    config: MatrixConfig, workload: Workload, path_name: str, policy: str
) -> str:
    """Content address of one cell (code digest + every parameter)."""
    profile = scenario_profile(workload, path_name)
    digest = hashlib.sha256()
    digest.update(code_version_salt().encode())
    digest.update(
        repr(
            (
                "matrix-cell",
                workload.name,
                path_name,
                policy,
                config.flows,
                config.seed,
                workload.t1,
                config.t2,
            )
        ).encode()
    )
    digest.update(repr(profile).encode())
    return digest.hexdigest()[:40]


def run_cell(
    config: MatrixConfig, workload: Workload, path_name: str, policy: str
) -> MatrixCell:
    """Run one cell from scratch (no cache involvement)."""
    profile = scenario_profile(workload, path_name)
    started = time.perf_counter()
    outcome = run_policy(
        profile,
        policy,
        config.flows,
        config.seed,
        t1=workload.t1,
        t2=config.t2,
        short_flow_max=None,
        workers=config.workers,
    )
    wall = time.perf_counter() - started
    metrics = {
        "flows": float(outcome.flows),
        "mean_latency": outcome.mean_latency,
        "p50_latency": outcome.latency_quantile(50),
        "p90_latency": outcome.latency_quantile(90),
        "p95_latency": outcome.latency_quantile(95),
        "stall_rate": outcome.stall_rate,
        "failed_flows": float(outcome.failed_flows),
        "retransmission_ratio": outcome.retransmission_ratio,
        "probe_retransmissions": float(outcome.probe_retransmissions),
    }
    return MatrixCell(
        workload=workload.name,
        path=path_name,
        policy=policy,
        metrics=metrics,
        wall_time=wall,
    )


def run_matrix(
    config: MatrixConfig,
    cache: DatasetCache | None = None,
    progress=None,
) -> MatrixResult:
    """Run (or resume) the whole sweep.

    ``progress``, when given, is called with each finished
    :class:`MatrixCell` — the CLI uses it for live per-cell lines.
    """
    policies = config.resolved_policies()
    workloads = config.resolved_workloads()
    paths = config.resolved_paths()
    caching = config.use_cache and disk_cache_enabled()
    if caching and cache is None:
        cache = matrix_cache()
    started = time.perf_counter()
    result = MatrixResult(config=config)
    for workload in workloads:
        for path_name in paths:
            for policy in policies:
                fingerprint = cell_fingerprint(
                    config, workload, path_name, policy
                )
                cell: MatrixCell | None = None
                if caching and cache is not None:
                    cached = cache.load(fingerprint)
                    if isinstance(cached, MatrixCell):
                        cell = cached
                        cell.cached = True
                if cell is None:
                    cell = run_cell(config, workload, path_name, policy)
                    if caching and cache is not None:
                        cache.store(fingerprint, cell)
                result.cells.append(cell)
                if progress is not None:
                    progress(cell)
    result.wall_time = time.perf_counter() - started
    return result


def append_to_store(store, result: MatrixResult) -> dict:
    """Append the sweep as one ``experiment``/``matrix`` record.

    The ``rankings`` section is keyed by scenario, so consecutive
    matrix records feed
    :func:`repro.results.trends.detect_ranking_flips` directly.
    """
    return store.append(
        "experiment",
        "matrix",
        metrics=result.metrics(),
        rankings=result.rankings(),
        wall_time=result.wall_time,
        config={
            "flows": result.config.flows,
            "seed": result.config.seed,
            "t2": result.config.t2,
            "policies": list(result.config.resolved_policies()),
            "workloads": [
                w.name for w in result.config.resolved_workloads()
            ],
            "paths": list(result.config.resolved_paths()),
        },
        meta={"cells": len(result.cells)},
    )


def dump_json(result: MatrixResult, path) -> None:
    """Write the full ranked-table JSON artifact (CI uploads this)."""
    from pathlib import Path

    Path(path).write_text(
        json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
