"""Experiment harnesses: dataset construction, mitigation A/B, ablations, tables."""

from .ablation import (
    CacheAblation,
    FrtoAblation,
    frto_ablation,
    PacingAblation,
    SrtoSweepPoint,
    TauPoint,
    destination_cache_ablation,
    pacing_ablation,
    sweep_srto_parameters,
    tau_sensitivity,
)
from .cache import DatasetCache, dataset_cache_key, dataset_fingerprint
from .dataset import SERVICES, Dataset, build_dataset, clear_cache
from .export import export_all, export_illustrative, export_reports
from .fairness import FairnessResult, run_fairness
from .metrics import RunMetrics, WorkerStats
from ..config import resolve_workers
from .parallel import run_flows_parallel
from .validation import ValidationResult, validate_inference
from .illustrative import IllustrativeResult, run_illustrative_flow
from .mitigation import (
    LARGE_FLOW_MIN_BYTES,
    POLICIES,
    SHORT_FLOW_MAX_BYTES,
    MitigationComparison,
    PolicyOutcome,
    compare_policies,
    make_large_flow_profile,
    make_short_flow_profile,
    run_policy,
    table89_sweep,
)
from .runner import DatasetRun, FlowRunResult, run_flow, run_flows
from .scenarios import GALLERY, run_gallery
from .tables import (
    format_fig1,
    format_fig3,
    format_fig6_table4,
    format_fig7_table6,
    format_fig10_table7,
    format_fig11,
    format_fig12,
    format_table1,
    format_table3,
    format_table5,
    format_table8,
    format_table9,
)

__all__ = [
    "CacheAblation",
    "Dataset",
    "DatasetCache",
    "DatasetRun",
    "FlowRunResult",
    "IllustrativeResult",
    "LARGE_FLOW_MIN_BYTES",
    "MitigationComparison",
    "PacingAblation",
    "GALLERY",
    "POLICIES",
    "PolicyOutcome",
    "RunMetrics",
    "SERVICES",
    "SHORT_FLOW_MAX_BYTES",
    "SrtoSweepPoint",
    "TauPoint",
    "ValidationResult",
    "WorkerStats",
    "build_dataset",
    "clear_cache",
    "compare_policies",
    "dataset_cache_key",
    "dataset_fingerprint",
    "destination_cache_ablation",
    "FairnessResult",
    "FrtoAblation",
    "export_all",
    "export_illustrative",
    "export_reports",
    "format_fig1",
    "format_fig3",
    "format_fig6_table4",
    "format_fig7_table6",
    "format_fig10_table7",
    "format_fig11",
    "format_fig12",
    "format_table1",
    "format_table3",
    "format_table5",
    "format_table8",
    "format_table9",
    "make_large_flow_profile",
    "frto_ablation",
    "pacing_ablation",
    "make_short_flow_profile",
    "resolve_workers",
    "run_flow",
    "run_flows",
    "run_flows_parallel",
    "run_gallery",
    "run_fairness",
    "run_illustrative_flow",
    "run_policy",
    "sweep_srto_parameters",
    "table89_sweep",
    "tau_sensitivity",
    "validate_inference",
]
