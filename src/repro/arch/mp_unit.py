"""Message Passing (MP) unit: its per-edge timing model.

Each MP unit owns a bank of destination nodes (``dst % P_edge``) and handles
every edge pointing into that bank.  Per edge it:

1. fetches the edge attributes / edge embedding (fixed overhead cycles),
2. consumes the source node's embedding from its data queue in chunks of
   ``P_scatter`` elements per cycle, applying the message transformation
   (add edge embedding, multiply by normalisation or attention weight, ...),
3. combines the message into the destination's partial aggregate in the
   message buffer (running reduction, so memory stays O(N) not O(E)).

Anisotropic (attention) layers need a second pass over each in-edge — one to
compute the softmax normaliser, one to apply it — which doubles the per-edge
chunk count (the ``passes`` term below).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..nn.models.base import LayerSpec
from .config import ArchitectureConfig

__all__ = ["MPTiming", "mp_timing"]


@dataclass(frozen=True)
class MPTiming:
    """Per-edge cycle costs of the MP unit for one layer."""

    chunk_cycles: int
    passes: int
    overhead_cycles: int

    @property
    def edge_latency(self) -> int:
        """Cycles to process one edge end-to-end."""
        return self.chunk_cycles * self.passes + self.overhead_cycles


def mp_timing(spec: LayerSpec, config: ArchitectureConfig) -> MPTiming:
    """Cycle cost of the MP unit for one edge of a layer with ``spec``."""
    p_scatter = config.scatter_parallelism
    chunks = ceil(spec.message_dim / p_scatter)
    passes = 2 if spec.aggregation == "attention" else 1
    overhead = config.edge_overhead_cycles
    if spec.uses_edge_features:
        # Edge embedding fetch streams alongside the node embedding; it adds
        # address-generation overhead rather than extra chunk passes.
        overhead += 1
    return MPTiming(chunk_cycles=int(chunks), passes=int(passes), overhead_cycles=int(overhead))
