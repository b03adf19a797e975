"""Pool-worker plumbing for the pool executor.

The job and its prepared context cross the process boundary exactly once
per worker, through the pool initializer — never once per task.  Worker
results carry the originating enumeration indices and the worker pid so the
parent can reassemble rows in enumeration order and keep only each worker's
*latest* cumulative ``collect()`` report.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from ..job import Job

__all__ = ["_evaluate_indexed_chunk", "_init_worker"]

# Worker-process state, installed once per pool worker by ``_init_worker``.
_WORKER_JOB: Optional[Job] = None


def _init_worker(job: Job, context: Any) -> None:
    global _WORKER_JOB
    job.setup(context)
    _WORKER_JOB = job


def _evaluate_indexed_chunk(
    chunk: Sequence[Tuple[int, Any]],
) -> Tuple[List[int], List, int, Optional[Any]]:
    """Evaluate a contiguous chunk of ``(index, item)`` pairs."""
    indices = [index for index, _ in chunk]
    rows = [_WORKER_JOB.evaluate(item) for _, item in chunk]
    return indices, rows, os.getpid(), _WORKER_JOB.collect()
