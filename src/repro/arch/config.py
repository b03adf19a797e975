"""Architecture configuration: the knobs the paper exposes.

FlowGNN's performance comes from four configurable parallelism parameters
(Sec. III-D) plus the choice of pipeline strategy (Fig. 4):

* ``P_node``  — number of Node-Transformation (NT) units,
* ``P_edge``  — number of Message-Passing (MP) units,
* ``P_apply`` — embedding elements an NT unit reads/produces per cycle,
* ``P_scatter`` — message elements an MP unit consumes per cycle,
* pipeline strategy — ``non_pipeline``, ``fixed_pipeline``,
  ``baseline_dataflow`` (single NT/MP decoupled by a node queue) or
  ``flowgnn`` (multi-unit, within-node pipelining via the multicast adapter).

The default configuration mirrors the paper's deployment: 2 NT units, 4 MP
units, 300 MHz clock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = [
    "PipelineStrategy",
    "ArchitectureConfig",
    "default_flowgnn_config",
    "baseline_dataflow_config",
    "fixed_pipeline_config",
    "non_pipeline_config",
    "ablation_configs",
]


_MAX_UNITS = 2**63 - 1


class PipelineStrategy:
    """String constants naming the four scheduling strategies of Fig. 4."""

    NON_PIPELINE = "non_pipeline"
    FIXED_PIPELINE = "fixed_pipeline"
    BASELINE_DATAFLOW = "baseline_dataflow"
    FLOWGNN = "flowgnn"

    ALL: Tuple[str, ...] = (
        NON_PIPELINE,
        FIXED_PIPELINE,
        BASELINE_DATAFLOW,
        FLOWGNN,
    )


@dataclass(frozen=True)
class ArchitectureConfig:
    """Complete description of one FlowGNN hardware instance.

    Attributes
    ----------
    num_nt_units / num_mp_units:
        ``P_node`` and ``P_edge``.  The non-FlowGNN pipeline strategies model
        the single-NT/single-MP baseline architecture and therefore clamp
        both to 1 regardless of these values.
    apply_parallelism / scatter_parallelism:
        ``P_apply`` and ``P_scatter`` lane counts.
    clock_mhz:
        Clock frequency used to convert cycles to seconds (300 MHz on the
        Alveo U50).
    pipeline:
        One of :class:`PipelineStrategy`.
    node_queue_depth:
        Capacity (in nodes) of the FIFO between NT and MP; when full, NT
        stalls (back-pressure).
    edge_overhead_cycles:
        Fixed per-edge cycles for address generation and edge-attribute
        fetch in the MP unit.
    nt_overhead_cycles:
        Fixed per-node cycles in the NT unit (read message-buffer pointer,
        ping-pong switch).
    layer_barrier_cycles:
        Pipeline drain/refill cost between consecutive GNN layers (message
        buffers swap roles at this point).
    loading_elements_per_cycle:
        Streaming bandwidth, in feature/weight elements per cycle, of the
        host link used for graph loading and (one-time) weight loading.
    include_graph_loading / include_weight_loading:
        Whether those costs are counted in the per-graph latency.  Weight
        loading is amortised over a stream: it is paid once, not per graph.
    """

    num_nt_units: int = 2
    num_mp_units: int = 4
    apply_parallelism: int = 2
    scatter_parallelism: int = 4
    clock_mhz: float = 300.0
    pipeline: str = PipelineStrategy.FLOWGNN
    node_queue_depth: int = 16
    edge_overhead_cycles: int = 2
    nt_overhead_cycles: int = 2
    layer_barrier_cycles: int = 8
    loading_elements_per_cycle: int = 16
    include_graph_loading: bool = True
    include_weight_loading: bool = True

    def __post_init__(self) -> None:
        if self.num_nt_units < 1 or self.num_mp_units < 1:
            raise ValueError("unit counts must be >= 1")
        # Schedulers divide int64 node ids by the unit counts.
        if max(self.num_nt_units, self.num_mp_units) > _MAX_UNITS:
            raise ValueError(f"unit counts must be <= 2**63 - 1 ({_MAX_UNITS})")
        if self.apply_parallelism < 1 or self.scatter_parallelism < 1:
            raise ValueError("parallelism factors must be >= 1")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if self.pipeline not in PipelineStrategy.ALL:
            raise ValueError(
                f"unknown pipeline strategy {self.pipeline!r}; "
                f"known: {PipelineStrategy.ALL}"
            )
        if self.node_queue_depth < 1:
            raise ValueError("node_queue_depth must be >= 1")

    # -- derived quantities ---------------------------------------------------
    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / (self.clock_mhz * 1e6)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds at this clock."""
        return float(cycles) * self.cycle_time_s

    def effective_nt_units(self) -> int:
        """NT units actually instantiated under the selected pipeline."""
        if self.pipeline == PipelineStrategy.FLOWGNN:
            return self.num_nt_units
        return 1

    def effective_mp_units(self) -> int:
        """MP units actually instantiated under the selected pipeline."""
        if self.pipeline == PipelineStrategy.FLOWGNN:
            return self.num_mp_units
        return 1

    def with_parallelism(
        self,
        num_nt_units: int = None,
        num_mp_units: int = None,
        apply_parallelism: int = None,
        scatter_parallelism: int = None,
    ) -> "ArchitectureConfig":
        """Return a copy with selected parallelism knobs replaced."""
        return replace(
            self,
            num_nt_units=num_nt_units if num_nt_units is not None else self.num_nt_units,
            num_mp_units=num_mp_units if num_mp_units is not None else self.num_mp_units,
            apply_parallelism=(
                apply_parallelism
                if apply_parallelism is not None
                else self.apply_parallelism
            ),
            scatter_parallelism=(
                scatter_parallelism
                if scatter_parallelism is not None
                else self.scatter_parallelism
            ),
        )

    def describe(self) -> str:
        return (
            f"{self.pipeline}(P_node={self.num_nt_units}, P_edge={self.num_mp_units}, "
            f"P_apply={self.apply_parallelism}, P_scatter={self.scatter_parallelism}, "
            f"{self.clock_mhz:.0f} MHz)"
        )


def default_flowgnn_config(**overrides) -> ArchitectureConfig:
    """The paper's deployed configuration: 2 NT units, 4 MP units, 300 MHz."""
    return ArchitectureConfig(**overrides) if overrides else ArchitectureConfig()


def baseline_dataflow_config(**overrides) -> ArchitectureConfig:
    """The Sec. III-C baseline: one NT, one MP, decoupled by a node queue."""
    params = dict(
        num_nt_units=1,
        num_mp_units=1,
        apply_parallelism=1,
        scatter_parallelism=1,
        pipeline=PipelineStrategy.BASELINE_DATAFLOW,
    )
    params.update(overrides)
    return ArchitectureConfig(**params)


def fixed_pipeline_config(**overrides) -> ArchitectureConfig:
    """Fig. 4(b): NT of node k+1 overlapped rigidly with MP of node k."""
    params = dict(
        num_nt_units=1,
        num_mp_units=1,
        apply_parallelism=1,
        scatter_parallelism=1,
        pipeline=PipelineStrategy.FIXED_PIPELINE,
    )
    params.update(overrides)
    return ArchitectureConfig(**params)


def non_pipeline_config(**overrides) -> ArchitectureConfig:
    """Fig. 4(a): NT and MP strictly serialised."""
    params = dict(
        num_nt_units=1,
        num_mp_units=1,
        apply_parallelism=1,
        scatter_parallelism=1,
        pipeline=PipelineStrategy.NON_PIPELINE,
    )
    params.update(overrides)
    return ArchitectureConfig(**params)


def ablation_configs() -> "dict[str, ArchitectureConfig]":
    """The six configurations of the Fig. 9 ablation, in paper order."""
    return {
        "non_pipeline": non_pipeline_config(),
        "fixed_pipeline": fixed_pipeline_config(),
        "baseline_dataflow": baseline_dataflow_config(),
        "flowgnn_1_1": ArchitectureConfig(apply_parallelism=1, scatter_parallelism=1),
        "flowgnn_1_2": ArchitectureConfig(apply_parallelism=1, scatter_parallelism=2),
        "flowgnn_2_2": ArchitectureConfig(apply_parallelism=2, scatter_parallelism=2),
    }
