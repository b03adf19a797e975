"""Node Transformation (NT) unit: its per-node timing model.

The canonical NT unit (Sec. III-D2) runs two overlapped processes per node:

* **accumulate** — reads the node's aggregated message in chunks of
  ``P_apply`` elements per cycle and updates the full output vector
  input-stationary, so a linear layer with input width ``F_in`` costs
  ``ceil(F_in / P_apply)`` cycles regardless of its output width;
* **output** — applies the activation / finalisation and streams the new
  embedding to the multicast adapter at ``P_apply`` elements per cycle,
  costing ``ceil(F_out / P_apply)`` cycles.

The two phases of *different* nodes overlap via ping-pong buffers, so a
unit's steady-state throughput is one node per ``accumulate`` time, while a
single node's latency is ``accumulate + output``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..nn.models.base import LayerSpec
from .config import ArchitectureConfig

__all__ = ["NTTiming", "nt_timing"]


@dataclass(frozen=True)
class NTTiming:
    """Per-node cycle costs of the NT unit for one layer."""

    accumulate_cycles: int
    output_cycles: int
    overhead_cycles: int

    @property
    def node_latency(self) -> int:
        """Latency of a single node through the unit (accumulate + output)."""
        return self.accumulate_cycles + self.output_cycles + self.overhead_cycles

    @property
    def node_interval(self) -> int:
        """Steady-state initiation interval between consecutive nodes.

        Accumulate and output are overlapped between nodes with ping-pong
        buffers, so the interval is the longer of the two phases.
        """
        return max(self.accumulate_cycles, self.output_cycles) + self.overhead_cycles


def nt_timing(spec: LayerSpec, config: ArchitectureConfig) -> NTTiming:
    """Cycle cost of the NT unit for one node of a layer with ``spec``."""
    p_apply = config.apply_parallelism
    accumulate = 0
    for in_dim, _out_dim in spec.nt_linear_shapes:
        accumulate += ceil(in_dim / p_apply)
    # Attention layers project once per head but score/normalise in the MP
    # phase, so no extra NT cost is added here.
    output = ceil(spec.out_dim / p_apply)
    return NTTiming(
        accumulate_cycles=int(accumulate),
        output_cycles=int(output),
        overhead_cycles=int(config.nt_overhead_cycles),
    )
