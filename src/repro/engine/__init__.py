"""The execution engine shared by every workload in the repo.

Three subsystems used to carry their own worker-pool plumbing: the
design-space sweeps (:mod:`repro.dse`), the serving-scenario sweeps
(:mod:`repro.plan`) and the paper-experiment harness (:mod:`repro.eval`).
This package is the one implementation they all now run on:

* :class:`Job` — the declarative work protocol: ``enumerate()`` the work
  items, ``prepare()`` shared context once in the parent (e.g. a
  pre-measured :class:`~repro.api.MeasurementCache` snapshot), ``setup()``
  per-worker state, ``evaluate(item)`` one row, ``collect()`` worker-side
  statistics;
* :class:`Engine` — runs any job over a pluggable executor (``serial`` /
  ``pool``, see :mod:`repro.engine.exec`) with per-worker context
  injection, enumeration-order row reassembly, incremental completed/total
  progress callbacks and optional :class:`Checkpoint` journaling for
  kill-and-resume runs.  A 1-worker and an N-worker run of the same job —
  under either executor — produce identical rows in identical order;
* :func:`contiguous_chunks` — the deterministic chunking primitive
  (previously copy-pasted between the dse and plan runners);
* :class:`ResultTable` — the base class behind ``SweepResult``,
  ``PlanResult`` and ``ExperimentResult``: one shared implementation of
  ``column`` / ``find`` / ``best`` / ``pareto`` / ``render`` / ``to_csv`` /
  ``to_dict`` / ``to_json``.

The package deliberately imports nothing from the rest of :mod:`repro` at
module scope, so any layer can build on it without import-order cycles.
"""

from .chunks import contiguous_chunks
from .engine import Engine, EngineRun, ProgressCallback
from .exec import (
    EXECUTOR_NAMES,
    Checkpoint,
    CheckpointSlice,
    Executor,
    MemoryCheckpoint,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from .job import Job
from .table import ResultTable

__all__ = [
    "EXECUTOR_NAMES",
    "Checkpoint",
    "CheckpointSlice",
    "Engine",
    "EngineRun",
    "Executor",
    "Job",
    "MemoryCheckpoint",
    "PoolExecutor",
    "ProgressCallback",
    "ResultTable",
    "SerialExecutor",
    "contiguous_chunks",
    "make_executor",
]
