"""Scenario axes of the policy tournament: workloads × path conditions.

A matrix *cell* is (workload, path scenario, policy).  The axes:

* **Workloads** — :data:`WORKLOADS`, the Table 8/9 services as
  :mod:`repro.experiments.mitigation` defines them (``web_search`` and
  ``storage_short``, each with the S-RTO ``T1`` the paper deployed).
  Reading the one definition ``repro-paper run``'s sweep reads is what
  makes the matrix's WAN cells byte-identical to Table 8/9.
* **Path scenarios** — :data:`PATH_SCENARIOS`, from
  :data:`repro.netsim.profiles.PATH_MODELS`.  ``wan`` is the sentinel
  "keep the workload's own path"; ``datacenter`` and ``cellular``
  re-path the same workload through
  :class:`~repro.netsim.profiles.DatacenterPath` /
  :class:`~repro.netsim.profiles.CellularPath` via
  ``dataclasses.replace`` (the workload layer duck-types the path).

Adding an axis entry is one line in the relevant mapping; the runner,
CLI, benchmarks, and dashboard all iterate these mappings.
"""

from __future__ import annotations

import dataclasses

from ..experiments.mitigation import WORKLOADS, Workload
from ..netsim.profiles import PATH_MODELS, make_path_model
from ..workload.services import ServiceProfile


#: The path-scenario axis, in table order (wan first: the paper's own
#: environment and the byte-identity anchor).
PATH_SCENARIOS: tuple[str, ...] = tuple(PATH_MODELS)


def get_workload(name: str) -> Workload:
    """The workload registered under ``name`` (ValueError otherwise)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def scenario_profile(workload: Workload, path_name: str) -> ServiceProfile:
    """The service profile of one (workload, path) scenario.

    ``wan`` returns the workload's own profile untouched — bit-for-bit
    the profile the Table 8/9 sweep runs.  Other scenarios swap in the
    registered path model and tag the profile name so caches and
    result records distinguish the re-pathed variant.
    """
    profile = workload.profile()
    model = make_path_model(path_name)
    if model is None:
        return profile
    return dataclasses.replace(
        profile, name=f"{profile.name}@{path_name}", path=model
    )
