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
from .nt_unit import NTTiming, nt_timing
from .mp_unit import MPTiming, mp_timing
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

__all__ = [
    "ArchitectureConfig",
    "PipelineStrategy",
    "ablation_configs",
    "baseline_dataflow_config",
    "default_flowgnn_config",
    "fixed_pipeline_config",
    "non_pipeline_config",
    "NTTiming",
    "nt_timing",
    "MPTiming",
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
]
