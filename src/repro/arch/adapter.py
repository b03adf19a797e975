"""NT-to-MP multicast adapter.

The adapter (Sec. III-D1, Fig. 5) sits between the NT units and the MP units.
As a node's new embedding streams out of an NT unit (``P_apply`` elements per
cycle), the adapter forwards — *multicasts* — those elements only to the MP
units that have at least one edge whose source is that node, re-batching from
``P_apply``-element chunks to ``P_scatter``-element chunks when the two
parallelism factors differ.

The cycle model reads only the adapter's **alignment delay**: an MP unit can
start the k-th ``P_scatter`` chunk of an edge only once ``k * P_scatter``
elements of the source embedding have left the NT unit, i.e. after
``ceil(k * P_scatter / P_apply)`` output cycles — this is the within-node
NT/MP pipelining the paper highlights.  Routing needs no model of its own:
the MP schedule assigns each edge to its destination's bank
(``dst % P_edge``), so a node reaches exactly the units that hold its edges.
"""

from __future__ import annotations

from math import ceil

from .config import ArchitectureConfig

__all__ = ["MulticastAdapter"]


class MulticastAdapter:
    """Chunk re-batching and its alignment delays."""

    def __init__(self, config: ArchitectureConfig) -> None:
        self.config = config

    # -- re-batching / alignment -------------------------------------------------
    def rebatch_ratio(self) -> float:
        """How many NT output cycles produce one MP input chunk."""
        return self.config.scatter_parallelism / self.config.apply_parallelism

    def chunk_ready_offset(self, chunk_index: int) -> int:
        """Output-phase cycles before MP chunk ``chunk_index`` is available.

        Chunk ``k`` (0-based) needs ``(k + 1) * P_scatter`` embedding elements,
        which the NT unit emits at ``P_apply`` per cycle.
        """
        elements_needed = (chunk_index + 1) * self.config.scatter_parallelism
        return ceil(elements_needed / self.config.apply_parallelism)

    def first_chunk_ready_offset(self) -> int:
        """Alignment delay before the first MP chunk of a node can start."""
        return self.chunk_ready_offset(0)

    def stream_complete_offset(self, embedding_dim: int) -> int:
        """Output-phase cycles until the full embedding has been forwarded."""
        return ceil(embedding_dim / self.config.apply_parallelism)
