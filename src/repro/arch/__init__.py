"""FlowGNN dataflow architecture: cycle-level simulator, resources and energy."""

from .config import (
    ArchitectureConfig,
    PipelineStrategy,
    ablation_configs,
    baseline_dataflow_config,
    default_flowgnn_config,
    fixed_pipeline_config,
    non_pipeline_config,
)
from .queues import FIFOQueue, QueueEmptyError, QueueFullError, QueueStatistics
from .memory import BankAccessError, BankedBuffer, PingPongMessageBuffers
from .nt_unit import NTTiming, NTUnit, nt_timing
from .mp_unit import MPTiming, MPUnit, mp_timing
from .adapter import MulticastAdapter
from .pipeline import LayerTiming, schedule_layer
from .simulator import (
    ModelProfile,
    SimulationResult,
    graph_loading_cycles,
    simulate_inference,
    weight_loading_cycles,
)
from .accelerator import FlowGNNAccelerator, StreamResult
from .resources import (
    ALVEO_U50,
    ResourceEstimate,
    TABLE3_REFERENCE,
    estimate_resources,
)
from .energy import EnergyReport, PowerModel, estimate_energy
from .tracing import UtilisationTrace, compare_traces, trace_from_result

__all__ = [
    "ArchitectureConfig",
    "PipelineStrategy",
    "ablation_configs",
    "baseline_dataflow_config",
    "default_flowgnn_config",
    "fixed_pipeline_config",
    "non_pipeline_config",
    "FIFOQueue",
    "QueueEmptyError",
    "QueueFullError",
    "QueueStatistics",
    "BankAccessError",
    "BankedBuffer",
    "PingPongMessageBuffers",
    "NTTiming",
    "NTUnit",
    "nt_timing",
    "MPTiming",
    "MPUnit",
    "mp_timing",
    "MulticastAdapter",
    "LayerTiming",
    "schedule_layer",
    "ModelProfile",
    "SimulationResult",
    "graph_loading_cycles",
    "simulate_inference",
    "weight_loading_cycles",
    "FlowGNNAccelerator",
    "StreamResult",
    "ALVEO_U50",
    "ResourceEstimate",
    "TABLE3_REFERENCE",
    "estimate_resources",
    "EnergyReport",
    "PowerModel",
    "estimate_energy",
    "UtilisationTrace",
    "compare_traces",
    "trace_from_result",
]
