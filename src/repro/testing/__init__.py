"""Test support utilities shipped with the package.

:mod:`repro.testing.faults` is the seedable fault-injection harness
used by ``tests/test_faults.py`` and
``benchmarks/bench_fault_recovery.py`` to prove the pipeline's
recovery guarantees; :func:`reference_analyze` is the object-path
reference (record decode → object demux → analyzer) the columnar
pipeline's parity tests and benchmark gate compare against.  Nothing
here is imported by production code paths; importing it has no side
effects.
"""

from .faults import (
    ChaosProxy,
    FaultPlan,
    NetFaultPlan,
    corrupt_cache_entry,
    corrupt_pcap_bytes,
    corrupt_pcap_records,
    inject_flow_crash,
    kill_worker_once,
)
from .reference import reference_analyze
from .traces import generate_trace

__all__ = [
    "ChaosProxy",
    "FaultPlan",
    "NetFaultPlan",
    "corrupt_cache_entry",
    "corrupt_pcap_bytes",
    "corrupt_pcap_records",
    "generate_trace",
    "inject_flow_crash",
    "kill_worker_once",
    "reference_analyze",
]
