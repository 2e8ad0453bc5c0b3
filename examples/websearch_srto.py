#!/usr/bin/env python3
"""Section 5 reproduction: native Linux vs TLP vs S-RTO.

Serves the same seeded workloads under the three recovery policies and
prints the paper's Table 8 (latency reductions) and Table 9
(retransmission ratios) for web search and for cloud-storage short
flows (control-flow style requests).

The services, their S-RTO T1 and the default flow count and seed are
the Table 8/9 run that ``repro.experiments.mitigation`` defines once
(``WORKLOADS`` and ``table89_sweep``); this script only overrides the
flow count and seed when given.

Usage::

    python examples/websearch_srto.py [flows] [seed]
"""

import inspect
import sys
import time

from repro.experiments.mitigation import WORKLOADS, table89_sweep
from repro.experiments.tables import format_table8, format_table9

LABELS = {
    "web_search": "web-search flows",
    "storage_short": "cloud-storage short flows",
}


def main() -> None:
    params = dict(zip(("flows", "seed"), map(int, sys.argv[1:3])))
    flows = params.get(
        "flows", inspect.signature(table89_sweep).parameters["flows"].default
    )

    started = time.time()
    for workload in WORKLOADS.values():
        print(
            f"running {flows} {LABELS[workload.name]} x 3 policies "
            f"(T1={workload.t1})..."
        )
    comparisons = table89_sweep(**params)
    print(f"done in {time.time() - started:.1f}s\n")

    print(format_table8(comparisons))
    print()
    print(format_table9(comparisons))
    print(
        "\n(negative percentages = latency reduction vs native Linux;"
        "\n the paper reports S-RTO beating TLP on short-flow tails"
        " while retransmitting slightly more.)"
    )


if __name__ == "__main__":
    main()
