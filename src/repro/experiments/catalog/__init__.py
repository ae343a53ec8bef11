"""The registered experiment catalog, one module per family.

* :mod:`~repro.experiments.catalog.paper` — the paper's own evidence
  (Tables 1-5, Figs. 2 and 5);
* :mod:`~repro.experiments.catalog.ablations` — ablations around its
  design choices;
* :mod:`~repro.experiments.catalog.extensions` — the directions it names
  in footnotes and future work;
* :mod:`~repro.experiments.catalog.scale` — the ``scale-*`` tier;
* :mod:`~repro.experiments.catalog.workloads` — the memoised meshes the
  families share.

Each measurement lives in exactly one place, next to the claim it
supports: the harness runs it over a parameter grid (``repro bench run
<name>``), the experiment's ``expect`` checks the shape the paper reports,
and tests import the compute helpers from here, so a number in a
``results/<name>.json`` artifact and a number a test checks come from the
same code.
"""

from repro.experiments.catalog.ablations import ORDERING_NAMES, ordering_by_name
from repro.experiments.catalog.paper import (
    adaptive_run,
    average_remap_costs,
    mcr_instance,
    measure_remap,
    schedule_build_time,
    single_machine_times,
    static_run,
    time_mcr,
)
from repro.experiments.catalog.scale import (
    scale_adaptive_measurements,
    scale_elastic_measurements,
    scale_epoch_measurements,
    scale_huge_measurements,
    scale_resilience_measurements,
    scale_service_measurements,
)

__all__ = [
    "mcr_instance",
    "time_mcr",
    "measure_remap",
    "average_remap_costs",
    "schedule_build_time",
    "static_run",
    "single_machine_times",
    "adaptive_run",
    "ordering_by_name",
    "scale_epoch_measurements",
    "scale_huge_measurements",
    "scale_adaptive_measurements",
    "scale_elastic_measurements",
    "scale_resilience_measurements",
    "scale_service_measurements",
    "ORDERING_NAMES",
]
