"""Design-space exploration engine (Fig. 10 and the Fig. 7 sweeps).

The paper's headline results come from sweeping the four parallelism knobs
(``P_node``, ``P_edge``, ``P_apply``, ``P_scatter``) across models and
datasets.  This package turns that one-off loop into a reusable subsystem:

* :class:`SweepSpec` — a declarative description of a sweep: parameter grids
  over :class:`~repro.arch.ArchitectureConfig` fields, a model list and a
  dataset list, with validation and resource-feasibility pre-filtering;
* :class:`ScheduleCache` — memoises :func:`~repro.arch.schedule_layer`
  results keyed on ``(graph structural signature, layer spec, config)``, so
  work shared between sweep points (e.g. a GCN's five identical hidden
  layers) is computed once;
* :func:`fast_schedule_layer` — a vectorised scheduler for the FlowGNN
  strategies, verified bit-identical to the reference implementation;
* :class:`SweepRunner` — fans sweep points out over ``multiprocessing``
  workers (serial below two workers) and assembles a :class:`SweepResult`
  with table/CSV export and Pareto-frontier extraction.

The engine produces *bit-identical* cycle counts to the naive per-point loop
over the whole Fig. 10 grid (pinned in ``tests/test_dse.py``) while being
several times faster.
"""

from .cache import ScheduleCache, graph_signature, schedule_cache_key
from .fastpath import fast_schedule_layer
from .pareto import pareto_frontier
from .runner import PlatformSweepJob, SweepJob, SweepResult, SweepRunner, naive_sweep
from .spec import SweepPoint, SweepSpec

__all__ = [
    "ScheduleCache",
    "graph_signature",
    "schedule_cache_key",
    "fast_schedule_layer",
    "pareto_frontier",
    "PlatformSweepJob",
    "SweepJob",
    "SweepPoint",
    "SweepRunner",
    "SweepResult",
    "naive_sweep",
    "SweepSpec",
]
