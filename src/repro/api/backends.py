"""The ``Backend`` protocol, its registry, and the four built-in adapters.

Every way of running inference in this repo — the FlowGNN cycle simulator,
the CPU and GPU analytical baselines, and the zero-overhead roofline bound —
is wrapped behind the same two-method surface::

    backend = get_backend("flowgnn")          # or "cpu" / "gpu" / "roofline"
    report = backend.run(request)             # InferenceRequest -> InferenceReport

``run`` produces per-graph latencies, throughput and energy; when the
request carries an ``arrival_interval_s`` it also simulates the real-time
arrival process through :class:`~repro.graph.GraphStream` and attaches
queueing/deadline statistics.  ``run_stream`` *always* simulates the arrival
process (a missing interval means a burst: every graph arrives at t=0), so
deadline/queue statistics are available for any backend, not just FlowGNN.

New platforms (batched, sharded, async serving backends) plug in via
:func:`register_backend` and instantly work with the CLI (``--backend``),
the experiment harness and the DSE runner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Type

import numpy as np

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore

    def runtime_checkable(cls):  # type: ignore
        return cls

from ..arch.accelerator import FlowGNNAccelerator
from ..arch.energy import estimate_energy
from ..arch.resources import ALVEO_U50, estimate_resources
from ..baselines import CPUBaseline, GPUBaseline, PlatformBaseline, RooflineBaseline
from ..graph import StreamStatistics, simulate_stream_consumption
from .report import InferenceReport
from .request import InferenceRequest, ResolvedRequest

__all__ = [
    "Backend",
    "BACKEND_NAMES",
    "Measurement",
    "register_backend",
    "get_backend",
    "FlowGNNBackend",
    "CPUBackend",
    "GPUBackend",
    "RooflineBackend",
]


@runtime_checkable
class Backend(Protocol):
    """What every inference backend exposes."""

    name: str

    def run(self, request: InferenceRequest) -> InferenceReport:
        """Process the request; attach stream statistics if it has an arrival rate."""
        ...

    def run_stream(self, request: InferenceRequest) -> InferenceReport:
        """Process the request, always simulating the arrival process."""
        ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], Backend]] = {}

#: Registered backend names, in registration order (stable for CLI choices).
BACKEND_NAMES: List[str] = []


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (case-insensitive lookup)."""
    key = name.lower()
    if key not in _REGISTRY:
        BACKEND_NAMES.append(key)
    _REGISTRY[key] = factory


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under ``name``."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown backend {name!r}; registered: {BACKEND_NAMES}")
    return _REGISTRY[key]()


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------
@dataclass
class Measurement:
    """Everything one backend pass produced, before report assembly.

    Also the return type of :meth:`_BackendBase.measure`, which the serving
    simulator (:mod:`repro.serve`) uses to obtain the exact per-graph service
    latencies a replica spends — the same numbers ``run``/``run_stream``
    build their reports from, without a second arrival-process simulation.
    """

    latencies_s: np.ndarray
    energies_j: np.ndarray
    one_time_overhead_s: float = 0.0
    functional_outputs: Optional[list] = None
    extras: Dict = dataclass_field(default_factory=dict)


def _stream_statistics(
    resolved: ResolvedRequest,
    latencies_s: np.ndarray,
    force: bool,
) -> Optional[StreamStatistics]:
    """Simulate the arrival process over precomputed service latencies.

    Without an arrival rate on the request, ``resolved.stream()`` is a burst
    (every graph at t=0); ``force`` decides whether that case is simulated
    (``run_stream``) or skipped (``run``).
    """
    request = resolved.request
    if request.arrival_interval_s is None and not force:
        return None
    latency_by_position = {id(g): latencies_s[i] for i, g in enumerate(resolved.graphs)}
    return simulate_stream_consumption(
        resolved.stream(), lambda g: latency_by_position[id(g)], deadline_s=request.deadline_s
    )


class _BackendBase(ABC):
    """Template implementation: subclasses supply one ``_measure`` pass.

    ``_measure`` returns everything in a local :class:`Measurement`, so
    backend instances hold no per-request state and stay reusable.
    """

    name: str = "abstract"

    def run(self, request: InferenceRequest) -> InferenceReport:
        return self._report(request.resolve(), force_stream=False)

    def run_stream(self, request: InferenceRequest) -> InferenceReport:
        return self._report(request.resolve(), force_stream=True)

    def measure(self, request: InferenceRequest) -> Measurement:
        """Service-latency profile of the request (no arrival simulation).

        Exposes the raw per-graph service latencies/energies in seconds and
        joules — the exact numbers ``run``/``run_stream`` convert into an
        :class:`InferenceReport`.  The serving simulator (:mod:`repro.serve`)
        builds replica service times from this, so a cluster replica is
        cycle-for-cycle the platform the backend models.  Optional for
        third-party backends: callers fall back to ``run`` when absent.
        """
        return self._measure(request.resolve())

    def _report(self, resolved: ResolvedRequest, force_stream: bool) -> InferenceReport:
        measured = self._measure(resolved)
        return InferenceReport(
            backend=self.name,
            model=resolved.model_name,
            dataset=resolved.dataset_name,
            batch_size=resolved.request.batch_size,
            config_description=resolved.config.describe(),
            per_graph_latency_ms=measured.latencies_s * 1e3,
            per_graph_energy_mj=measured.energies_j * 1e3,
            one_time_overhead_ms=measured.one_time_overhead_s * 1e3,
            stream_statistics=_stream_statistics(resolved, measured.latencies_s, force_stream),
            functional_outputs=measured.functional_outputs,
            extras=measured.extras,
        )

    @abstractmethod
    def _measure(self, resolved: ResolvedRequest) -> Measurement:
        """Run the platform over the resolved request's graphs."""


# ---------------------------------------------------------------------------
# FlowGNN adapter
# ---------------------------------------------------------------------------
class FlowGNNBackend(_BackendBase):
    """The cycle-level FlowGNN simulator behind the Backend protocol.

    ``batch_size`` is recorded but has no effect: FlowGNN is a batch-1
    streaming architecture (that is the paper's whole point).
    """

    name = "flowgnn"

    def _measure(self, resolved: ResolvedRequest) -> Measurement:
        # One simulation pass feeds latency, energy, extras and functional
        # outputs; the accelerator's schedule cache de-duplicates repeated
        # graph structures within the request.
        accelerator = FlowGNNAccelerator(resolved.model, resolved.config)
        results = [
            accelerator.run(graph, functional=resolved.request.functional)
            for graph in resolved.graphs
        ]
        resources = estimate_resources(accelerator.profile, resolved.config)
        power = (
            estimate_energy(results[0], resources).power.total_w if results else 0.0
        )
        return Measurement(
            latencies_s=np.array([r.latency_s for r in results], dtype=np.float64),
            energies_j=np.array(
                [estimate_energy(r, resources).energy_per_graph_j for r in results],
                dtype=np.float64,
            ),
            one_time_overhead_s=resolved.config.cycles_to_seconds(
                accelerator._weight_loading_cycles
            ),
            functional_outputs=(
                [r.functional_output for r in results]
                if resolved.request.functional
                else None
            ),
            extras={
                "platform": "FlowGNN (simulated, Alveo U50)",
                "dsp": resources.dsp,
                "bram": resources.bram,
                "lut": resources.lut,
                "fits_u50": resources.fits(ALVEO_U50),
                "power_w": round(power, 2),
                "schedule_cache": accelerator.schedule_cache_info,
            },
        )


# ---------------------------------------------------------------------------
# Platform (roofline-model) adapters
# ---------------------------------------------------------------------------
class _PlatformBackend(_BackendBase):
    """Adapter over a :class:`~repro.baselines.PlatformBaseline` subclass."""

    baseline_cls: Type[PlatformBaseline]

    def _measure(self, resolved: ResolvedRequest) -> Measurement:
        baseline = self.baseline_cls(resolved.model)
        batch = resolved.request.batch_size
        latencies_s = np.array(
            [baseline.latency_s(g, batch_size=batch) for g in resolved.graphs],
            dtype=np.float64,
        )
        return Measurement(
            latencies_s=latencies_s,
            energies_j=latencies_s * baseline.platform.power_w,
            extras={"platform": baseline.platform.name},
        )


class CPUBackend(_PlatformBackend):
    """Intel Xeon Gold 6226R running PyTorch-Geometric (analytical model)."""

    name = "cpu"
    baseline_cls = CPUBaseline


class GPUBackend(_PlatformBackend):
    """NVIDIA RTX A6000 running PyTorch-Geometric (analytical model)."""

    name = "gpu"
    baseline_cls = GPUBaseline


class RooflineBackend(_PlatformBackend):
    """Zero-overhead roofline bound (what perfect software on GPU silicon could do)."""

    name = "roofline"
    baseline_cls = RooflineBaseline


register_backend("flowgnn", FlowGNNBackend)
register_backend("cpu", CPUBackend)
register_backend("gpu", GPUBackend)
register_backend("roofline", RooflineBackend)
