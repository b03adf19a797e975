"""The engine: one enumeration/checkpoint/assembly loop over any executor.

:class:`Engine` executes any :class:`~repro.engine.Job` and owns everything
that must be deterministic — enumeration order, row assembly, progress and
the checkpoint journal — while delegating the transport to a pluggable
:class:`~repro.engine.exec.Executor`:

* ``serial`` — in-process, no pool (the reference transport);
* ``pool`` — contiguous chunks over a process pool: job + context pickled
  **once per worker** through the pool initializer, ordered drain.

Rows are reassembled by enumeration index in the parent, so a 1-worker and
an N-worker run — and either executor — produce identical rows in
identical order, by construction.

Passing a ``checkpoint`` journal to :meth:`Engine.run` makes the run
resumable: each completed row is appended to the journal as it arrives, and
a later run with the same job and journal re-enumerates, skips the
journaled indices and slots their rows straight into the output —
byte-identical to an uninterrupted run.

``chunk_items`` selects the pool chunking policy.  The default (one
contiguous chunk per worker) maximises per-worker cache locality and is
right for homogeneous items; ``chunk_items=1`` dispatches items one at a
time, which load-balances wildly uneven items (e.g. whole paper
experiments) at the cost of more task pickling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Union

from ..checks import finite_nonnegative
from .exec import EXECUTOR_NAMES, Checkpoint, Executor, SerialExecutor, make_executor
from .job import Job

__all__ = ["Engine", "EngineRun"]

#: ``progress(completed_items, total_items)`` — invoked from the parent
#: process only, monotonically, ending at ``(total, total)``.  Resumed runs
#: start the completed count at the number of journaled items.
ProgressCallback = Callable[[int, int], None]


@dataclass
class EngineRun:
    """Outcome of one engine execution: rows in enumeration order."""

    rows: List = field(default_factory=list)
    infos: List = field(default_factory=list)
    num_items: int = 0
    elapsed_s: float = 0.0
    #: Items replayed from the checkpoint journal rather than evaluated.
    resumed_items: int = 0


class Engine:
    """Runs :class:`~repro.engine.Job` s over a pluggable executor.

    Parameters
    ----------
    workers:
        Worker count.  ``None`` uses ``os.cpu_count()``; values below 2 run
        the ``pool`` executor in-process (no pool, identical rows).
    chunk_items:
        ``None`` (default) splits pool work into one contiguous chunk per
        worker; a positive integer dispatches contiguous chunks of that many
        items, trading task overhead for load balancing of uneven items.
    executor:
        One of :data:`~repro.engine.exec.EXECUTOR_NAMES` (``"serial"``,
        ``"pool"``), or a pre-built :class:`~repro.engine.exec.Executor`
        instance (used as given, no in-process fallback).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_items: Optional[int] = None,
        executor: Union[str, Executor] = "pool",
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = int(finite_nonnegative(workers, "workers"))
        if chunk_items is not None and int(chunk_items) < 1:
            raise ValueError("chunk_items must be a positive integer or None")
        self.chunk_items = None if chunk_items is None else int(chunk_items)
        if isinstance(executor, str) and executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {executor!r}; "
                f"expected one of {', '.join(EXECUTOR_NAMES)}"
            )
        self.executor = executor

    def run(
        self,
        job: Job,
        progress: Optional[ProgressCallback] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> EngineRun:
        """Evaluate every item of ``job``; rows come back in item order.

        With a ``checkpoint``, already-journaled items are skipped and their
        rows replayed, and every newly completed row is appended to the
        journal before it counts as done.
        """
        started = time.perf_counter()
        items = list(job.enumerate())
        if not items:
            return EngineRun(elapsed_s=time.perf_counter() - started)

        completed = {} if checkpoint is None else dict(checkpoint.completed_rows())
        pending = [
            (index, item) for index, item in enumerate(items) if index not in completed
        ]
        rows_by_index = dict(completed)
        total = len(items)
        done = len(completed)

        def on_row(index: int, row: Any) -> None:
            nonlocal done
            rows_by_index[index] = row
            if checkpoint is not None:
                checkpoint.append(index, row)
            done += 1
            if progress is not None:
                progress(done, total)

        infos: List = []
        if pending:
            context = job.prepare()
            infos = self._select_executor(len(pending)).execute(
                job, context, pending, on_row
            )
        rows = [rows_by_index[index] for index in range(total)]
        return EngineRun(
            rows=rows,
            infos=infos,
            num_items=total,
            elapsed_s=time.perf_counter() - started,
            resumed_items=len(completed),
        )

    def _select_executor(self, num_pending: int) -> Executor:
        if not isinstance(self.executor, str):
            return self.executor
        # The pool degrades to in-process execution when it could not help
        # (one worker, or a single pending item): same code path as a
        # worker, same rows, no pickling.
        if self.executor == "serial" or self.workers < 2 or num_pending < 2:
            return SerialExecutor()
        return make_executor(self.executor, self.workers, self.chunk_items)
