"""Experiment registry and the parallel experiment-suite runner.

``run_experiment("fig9")`` is how benchmarks, examples and tests invoke the
paper's experiments; ``run_all_experiments`` regenerates every table and
figure in one call (used to populate ``EXPERIMENTS.md``) — and, because
every experiment is an :class:`~repro.eval.experiments.ExperimentJob`, it
fans the **union of all experiments' work items** out over one shared
:class:`~repro.engine.Engine` pool instead of running the experiments
serially.  Items are dispatched one at a time (``chunk_items=1``), which
load-balances wildly uneven experiments (a single dataset-statistics item
dominates the suite) across workers; each worker keeps one shared
:class:`~repro.eval.experiments.ExperimentContext`, so measurement profiles
are shared across every experiment that worker touches.  Rows are identical
for any worker count (pinned by ``tests/test_experiments.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..engine import Engine, Job, ProgressCallback
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentJob,
    ExperimentResult,
    Fig7Job,
    Fig8Job,
    Fig9Job,
    Fig10Job,
    Table3Job,
    Table4Job,
    Table5Job,
    Table6Job,
    Table7Job,
    Table8Job,
    reset_experiment_context,
    run_experiment_job,
)

__all__ = [
    "EXPERIMENT_JOBS",
    "EXPERIMENT_REGISTRY",
    "ExperimentSuiteJob",
    "build_experiment_job",
    "run_experiment",
    "run_all_experiments",
    "render_report",
]


#: Job factory per experiment name: ``factory(fast) -> ExperimentJob``.
EXPERIMENT_JOBS: Dict[str, Callable[[bool], ExperimentJob]] = {
    "table3": lambda fast: Table3Job(fast=fast),
    "table4": lambda fast: Table4Job(fast=fast),
    "table5": lambda fast: Table5Job(fast=fast),
    "table6": lambda fast: Table6Job(fast=fast),
    "table7": lambda fast: Table7Job(fast=fast),
    "table8": lambda fast: Table8Job(fast=fast),
    "fig7_molhiv": lambda fast: Fig7Job(fast=fast, dataset_name="MolHIV"),
    "fig7_molpcba": lambda fast: Fig7Job(fast=fast, dataset_name="MolPCBA"),
    "fig8": lambda fast: Fig8Job(fast=fast),
    "fig9": lambda fast: Fig9Job(fast=fast),
    "fig10": lambda fast: Fig10Job(fast=fast),
}

#: Callable per experiment name (the pre-engine surface, kept for direct
#: invocation: every callable accepts ``fast`` and returns the result).
EXPERIMENT_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    name: (lambda fast=True, _factory=factory: run_experiment_job(_factory(fast)))
    for name, factory in EXPERIMENT_JOBS.items()
}


def build_experiment_job(name: str, fast: bool = True) -> ExperimentJob:
    """The :class:`ExperimentJob` for one experiment name."""
    try:
        factory = EXPERIMENT_JOBS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENT_JOBS)}"
        ) from exc
    return factory(fast)


def run_experiment(name: str, fast: bool = True) -> ExperimentResult:
    """Run one named experiment; ``fast=True`` uses CI-sized workloads."""
    return run_experiment_job(build_experiment_job(name, fast=fast))


# ---------------------------------------------------------------------------
# The suite job: the union of all selected experiments' items
# ---------------------------------------------------------------------------
@dataclass
class ExperimentSuiteJob(Job):
    """Many experiments flattened into one engine job.

    Work items are ``(job_index, item)`` pairs in experiment order, so a
    serial run evaluates exactly what the per-experiment jobs would; rows
    are regrouped by experiment afterwards and each experiment assembles its
    own result.  One :class:`ExperimentContext` per worker is shared by
    every item the worker evaluates, whichever experiment it belongs to.
    """

    jobs: List[ExperimentJob]

    def enumerate(self) -> List[Tuple[int, object]]:
        return [
            (job_index, item)
            for job_index, job in enumerate(self.jobs)
            for item in job.enumerate()
        ]

    def setup(self, context) -> None:
        # One fresh shared context per worker — deliberately *not* one per
        # experiment, so measurement profiles flow between experiments.
        reset_experiment_context()

    def evaluate(self, work: Tuple[int, object]) -> Tuple[int, object]:
        job_index, item = work
        return job_index, self.jobs[job_index].evaluate(item)

    def assemble(self, rows: List) -> Dict[str, ExperimentResult]:
        grouped: Dict[int, List] = {index: [] for index in range(len(self.jobs))}
        for job_index, row in rows:
            grouped[job_index].append(row)
        return {
            job.name: job.assemble(grouped[job_index])
            for job_index, job in enumerate(self.jobs)
        }


def run_all_experiments(
    fast: bool = True,
    names: Optional[List[str]] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    executor: str = "pool",
    checkpoint=None,
) -> Dict[str, ExperimentResult]:
    """Run every (or the selected) experiment and return results by name.

    ``workers`` fans the union of all experiments' work items out over that
    many processes (``None`` uses the CPU count; values below 2 run
    in-process).  Rows are identical for any worker count.  ``progress``
    (optional) receives ``(completed, total)`` item counts as evaluations
    stream back from the engine.  ``executor`` selects the engine transport
    (``serial`` / ``pool``) and ``checkpoint`` (a
    :class:`~repro.engine.Checkpoint`) journals completed suite items for
    kill-and-resume — neither changes the assembled rows.

    .. note:: the default is parallel.  On platforms whose multiprocessing
       start method is ``spawn`` (macOS, Windows), call this under an
       ``if __name__ == "__main__"`` guard or pass ``workers=0`` for the
       previous strictly-serial behaviour.
    """
    selected = names or EXPERIMENT_NAMES
    jobs = [build_experiment_job(name, fast=fast) for name in selected]
    suite = ExperimentSuiteJob(jobs=jobs)
    run = Engine(workers=workers, chunk_items=1, executor=executor).run(
        suite, progress=progress, checkpoint=checkpoint
    )
    return suite.assemble(run.rows)


def render_report(results: Dict[str, ExperimentResult]) -> str:
    """Render a combined text report of several experiment results."""
    sections = []
    for name in sorted(results):
        sections.append(results[name].render())
    return "\n\n".join(sections)
