"""Activity-based power and energy model (Tables VI and VIII).

The paper reports energy efficiency in graphs per kilojoule, measured
on-board.  Our substitute is a standard FPGA power decomposition:

    P_total = P_static + P_dynamic
    P_dynamic = sum over resources of (activity x unit_power x count)

where the activity factors come straight from the cycle simulation (NT/MP
utilisation), and the per-resource unit powers are calibrated so the default
FlowGNN configuration lands near the ~10 W envelope the paper's "4x less
power than GPU" claim implies for the U50.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .pipeline import dataclass_fields
from .resources import ResourceEstimate
from .simulator import SimulationResult

__all__ = ["PowerModel", "EnergyReport", "estimate_energy"]

# Calibration constants (watts per active resource at 300 MHz).  Static power
# includes the HBM stacks and shell of the Alveo U50, which dominate the
# board's idle draw; the constants put a typical FlowGNN kernel in the
# 25-35 W range, consistent with the paper's "about 4x less power than GPU".
_STATIC_POWER_W = 20.0
_DSP_ACTIVE_W = 5.0e-3
_BRAM_ACTIVE_W = 2.5e-3
_LUT_ACTIVE_W = 8.0e-6
_LOAD_INTERFACE_W = 3.0  # HBM/PCIe interface while streaming a graph


@dataclass_fields
class PowerModel(NamedTuple):
    """Average power draw of one compiled kernel under a given activity."""

    static_w: float
    dynamic_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w


@dataclass_fields
class EnergyReport(NamedTuple):
    """Energy metrics for one graph (or an average graph of a stream)."""

    power: PowerModel
    latency_s: float

    @property
    def energy_per_graph_j(self) -> float:
        """Energy to process one graph, in joules."""
        return self.power.total_w * self.latency_s

    @property
    def graphs_per_kilojoule(self) -> float:
        """The paper's energy-efficiency metric (graphs/kJ)."""
        energy = self.energy_per_graph_j
        return 1000.0 / energy if energy > 0 else float("inf")


def estimate_power(
    resources: ResourceEstimate,
    nt_utilisation: float,
    mp_utilisation: float,
    loading_fraction: float = 0.05,
) -> PowerModel:
    """Average power of a kernel given unit utilisations from the simulator."""
    activity = max(min((nt_utilisation + mp_utilisation) / 2.0, 1.0), 0.0)
    dynamic = (
        resources.dsp * _DSP_ACTIVE_W * activity
        + resources.bram * _BRAM_ACTIVE_W * activity
        + resources.lut * _LUT_ACTIVE_W * activity
        + _LOAD_INTERFACE_W * max(min(loading_fraction, 1.0), 0.0)
    )
    return PowerModel(_STATIC_POWER_W, dynamic)


def estimate_energy(
    result: SimulationResult,
    resources: ResourceEstimate,
    latency_s: Optional[float] = None,
) -> EnergyReport:
    """Energy report for one simulated graph.

    ``latency_s`` overrides the result's own latency when the caller wants to
    include amortised weight loading.
    """
    total = result.total_cycles
    loading_fraction = result.loading_cycles / total if total else 0.0
    power = estimate_power(resources, result.nt_utilisation(), result.mp_utilisation(), loading_fraction)
    if latency_s is None:
        latency_s = result.config.cycles_to_seconds(total)  # the result's latency_s
    return EnergyReport(power, latency_s)
