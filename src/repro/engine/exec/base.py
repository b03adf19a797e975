"""The :class:`Executor` protocol: how an :class:`~repro.engine.Engine` runs.

An executor is handed the *pending* work — ``(index, item)`` pairs in
enumeration order, minus anything a checkpoint already journaled — and a
parent-side ``on_row(index, row)`` callback.  It may evaluate items in any
order, in-process or in a process pool, as long as it calls ``on_row``
exactly once per pending item.  The engine reassembles rows by enumeration
index, so every executor is byte-identical to every other by construction:
ordering lives in the engine, transport lives here.

``on_row`` is only ever invoked from the dispatching (parent) process — it
feeds progress callbacks and the checkpoint journal, neither of which is
safe to touch from a worker.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from ..job import Job

__all__ = ["EXECUTOR_NAMES", "Executor", "OnRow"]

#: The executor names accepted by :class:`~repro.engine.Engine` and the CLI's
#: ``--executor`` flag, in documentation order.
EXECUTOR_NAMES = ("serial", "pool")

#: ``on_row(index, row)`` — called in the parent once per completed item.
OnRow = Callable[[int, Any], None]


class Executor:
    """Evaluates pending ``(index, item)`` pairs of a prepared job."""

    #: Human-readable transport name (matches ``EXECUTOR_NAMES`` entries).
    name = "abstract"

    def execute(
        self,
        job: Job,
        context: Any,
        pending: Sequence[Tuple[int, Any]],
        on_row: OnRow,
    ) -> List[Any]:
        """Evaluate every pending item; return the worker ``collect()`` infos.

        Must call ``on_row(index, row)`` in the parent process exactly once
        per pending item (in any completion order).  Returns the list of
        non-``None`` worker statistics, at most one per worker (cumulative —
        the latest report per worker wins).
        """
        raise NotImplementedError
