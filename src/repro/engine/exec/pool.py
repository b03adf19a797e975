"""Contiguous-chunk process-pool executor.

Work is split with :func:`~repro.engine.contiguous_chunks` (or into fixed
``chunk_items``-sized chunks) and drained in order: chunk results arrive as
they complete — which is what lets progress stream — but are yielded in
submission order.  One contiguous chunk per worker gives maximal per-worker
cache locality for homogeneous items; ``chunk_items=1`` load-balances
uneven ones.

The pool is a :class:`concurrent.futures.ProcessPoolExecutor`, so a worker
that dies mid-item (a hard crash, not an exception) breaks the pool and the
run raises :class:`~concurrent.futures.process.BrokenProcessPool` instead
of waiting forever for the lost chunk.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

from ..chunks import contiguous_chunks
from ..job import Job
from .base import Executor, OnRow
from .worker import _evaluate_indexed_chunk, _init_worker

__all__ = ["PoolExecutor"]


class PoolExecutor(Executor):
    """Contiguous chunks of pending items over a process pool."""

    name = "pool"

    def __init__(self, workers: int, chunk_items: Optional[int] = None) -> None:
        self.workers = int(workers)
        self.chunk_items = None if chunk_items is None else int(chunk_items)

    def execute(
        self,
        job: Job,
        context: Any,
        pending: Sequence[Tuple[int, Any]],
        on_row: OnRow,
    ) -> List[Any]:
        pending = list(pending)
        if self.chunk_items is None:
            chunks = contiguous_chunks(pending, self.workers)
        else:
            chunks = [
                pending[start : start + self.chunk_items]
                for start in range(0, len(pending), self.chunk_items)
            ]
        info_by_worker: dict = {}
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            initializer=_init_worker,
            initargs=(job, context),
        ) as pool:
            for indices, rows, worker_id, info in pool.map(
                _evaluate_indexed_chunk, chunks
            ):
                for index, row in zip(indices, rows):
                    on_row(index, row)
                if info is not None:
                    # collect() reports cumulative worker state; keep only
                    # the latest report per worker so statistics aggregate
                    # without double counting when one worker runs several
                    # chunks.
                    info_by_worker[worker_id] = info
        return list(info_by_worker.values())
