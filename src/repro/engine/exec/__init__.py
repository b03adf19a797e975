"""Pluggable executors: how an :class:`~repro.engine.Engine` fans out.

Two transports behind one :class:`Executor` protocol, byte-identical by
construction (rows are reassembled by enumeration index in the engine):

* :class:`SerialExecutor` — in-process, no pool; the reference transport;
* :class:`PoolExecutor` — contiguous chunks over a process pool with
  ordered drain; a worker that dies makes the run raise.

Plus the :class:`Checkpoint` journal (and :class:`CheckpointSlice` window)
that makes either executor's run resumable after a kill.

Like the rest of :mod:`repro.engine`, this package imports nothing from the
rest of :mod:`repro` at module scope.
"""

from .base import EXECUTOR_NAMES, Executor, OnRow
from .checkpoint import Checkpoint, CheckpointSlice, MemoryCheckpoint
from .pool import PoolExecutor
from .serial import SerialExecutor

__all__ = [
    "EXECUTOR_NAMES",
    "Checkpoint",
    "CheckpointSlice",
    "Executor",
    "MemoryCheckpoint",
    "OnRow",
    "PoolExecutor",
    "SerialExecutor",
    "make_executor",
]


def make_executor(name, workers, chunk_items=None):
    """Build the named executor (see :data:`EXECUTOR_NAMES`)."""
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        return PoolExecutor(workers, chunk_items=chunk_items)
    raise ValueError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
