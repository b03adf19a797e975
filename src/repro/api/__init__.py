"""Unified inference API: one way to run any workload on any backend.

This package is the serving-style seam of the reproduction::

    from repro.api import InferenceRequest, get_backend

    request = InferenceRequest(model="GIN", dataset="HEP", num_graphs=128,
                               arrival_interval_s=500e-6, deadline_s=500e-6)
    for name in ("flowgnn", "gpu", "cpu", "roofline"):
        report = get_backend(name).run(request)
        print(report.summary())

* :class:`InferenceRequest` — declarative input: model name/instance,
  dataset name/graphs, architecture config or parallelism dict, batch size,
  arrival rate, deadline, functional flag.  Validated eagerly.
* :class:`Backend` — the protocol (``run`` / ``run_stream``), with a
  registry (:func:`get_backend`, :func:`register_backend`,
  :data:`BACKEND_NAMES`) holding the four built-in adapters: ``flowgnn``,
  ``cpu``, ``gpu`` and ``roofline``.
* :class:`InferenceReport` — uniform result: per-graph latencies,
  ``mean_latency_ms`` / ``p99_latency_ms`` / ``throughput_graphs_per_s`` /
  ``energy_mj_per_graph`` / ``deadline_miss_rate``, plus ``to_dict()`` and
  ``to_json()``.

The CLI (``repro simulate --backend ...``), the experiment harness
(:mod:`repro.eval.experiments`) and the DSE runner (``SweepSpec.backend``)
all consume this API rather than talking to the platforms directly.
"""

from .backends import (
    BACKEND_NAMES,
    Backend,
    CPUBackend,
    FlowGNNBackend,
    GPUBackend,
    Measurement,
    RooflineBackend,
    get_backend,
    register_backend,
)
from .measure import MeasurementCache, measurement_key
from .report import InferenceReport
from .request import InferenceRequest, ResolvedRequest, resolve_all

__all__ = [
    "MeasurementCache",
    "measurement_key",
    "BACKEND_NAMES",
    "Backend",
    "CPUBackend",
    "FlowGNNBackend",
    "GPUBackend",
    "Measurement",
    "RooflineBackend",
    "get_backend",
    "register_backend",
    "InferenceReport",
    "InferenceRequest",
    "ResolvedRequest",
    "resolve_all",
]
