"""Multi-tenant serving simulator: many request streams, a pool of replicas.

The paper motivates FlowGNN with *real-time* traffic — HEP triggers and
recommendation streams with per-request deadlines.  This package scales the
single-stream evaluation (:meth:`Backend.run_stream`) to a serving cluster::

    from repro.serve import Workload, LoadGenerator, Cluster

    tenants = [
        Workload("trigger", model="GIN", dataset="HEP", num_graphs=8,
                 deadline_s=500e-6, priority=1, share=2.0),
        Workload("recsys", model="GCN", dataset="MolHIV", num_graphs=8,
                 deadline_s=5e-3),
    ]
    cluster = Cluster(tenants, backend="flowgnn", num_replicas=4, policy="edf")
    load = LoadGenerator.poisson(tenants, total_rate_rps=20_000, seed=0)
    report = cluster.serve(load.generate(duration_s=0.05), duration_s=0.05)
    print(report.summary())
    print(report.to_json())

* :class:`Workload` — per-tenant spec (model, dataset, deadline, priority,
  traffic share), eagerly validated via :class:`~repro.api.InferenceRequest`;
* :class:`LoadGenerator` + arrival processes (:class:`PoissonArrivals`,
  bursty :class:`OnOffArrivals`, day/night :class:`DiurnalArrivals`,
  :class:`ConstantArrivals`, :class:`TraceArrivals` CSV replay) — seeded,
  bit-reproducible;
* :class:`Cluster` — event-driven multiplexing over replicated backends
  with swappable dispatch policies (``round_robin`` / ``least_loaded`` /
  SLO-aware ``edf``) and dynamic batching (``max_batch_size``,
  ``batch_timeout_s``);
* :class:`ServingReport` — per-tenant :class:`~repro.api.InferenceReport`s
  plus cluster utilisation, drops, batch sizes and the queue-depth trace;
* dynamic clusters — :class:`Autoscaler` policies (reactive / predictive /
  carbon-suspending, with provisioning latency and scale-down hysteresis),
  :class:`FaultSchedule` crash/degrade injection, and
  :class:`AdmissionControl` load shedding — the control plane of the one
  event loop every scalar simulation runs, replayed bit-identically (static
  or dynamic) by the one :func:`reference_serve` oracle;
* energy and carbon — a per-replica :class:`PowerModel` integrated over the
  replica lifecycle into ``ServingReport.energy_j``, a
  :class:`CarbonIntensity` grid trace charging ``carbon_gco2``, the
  ``carbon_waiting`` admission holding deferrable tenants for cleaner
  windows, and ``power_cap_w`` clamping dispatch under a watt budget.

Per-replica timing reuses the backends' measurement pass (and therefore the
FlowGNN schedule cache and :class:`~repro.graph.GraphStream` statistics), so
a one-replica, no-batching cluster reproduces ``run_stream`` bit for bit.
"""

from .arrivals import (
    STREAM_CHUNK,
    ArrivalProcess,
    ConstantArrivals,
    DiurnalArrivals,
    LoadGenerator,
    OnOffArrivals,
    PoissonArrivals,
    RequestBlock,
    ServingRequest,
    TraceArrivals,
)
from .cluster import (
    Cluster,
    DispatchPolicy,
    EarliestDeadlinePolicy,
    LeastLoadedPolicy,
    POLICY_NAMES,
    RoundRobinPolicy,
    TenantService,
    get_policy,
    register_policy,
)
from .autoscale import (
    AUTOSCALER_NAMES,
    AdmissionControl,
    Autoscaler,
    AutoscalerMetrics,
    CarbonSuspendAutoscaler,
    CarbonWaitingAdmission,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    parse_admission,
    parse_autoscaler,
)
from .carbon import CarbonIntensity, parse_carbon_trace
from .faults import FAULT_ACTIONS, FaultEvent, FaultSchedule, parse_fault_schedule
from .power import PowerModel, parse_power_model
from .reference import reference_serve, reference_serve_dynamic
from .report import ServingRecord, ServingReport, SketchTenantReport, TenantOutcome
from .sketches import (
    LatencySketch,
    StreamingHistogram,
    StreamingMoments,
    sketch_nbytes,
)
from .workload import TENANT_CLASSES, Workload

__all__ = [
    "ArrivalProcess",
    "ConstantArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "TraceArrivals",
    "LoadGenerator",
    "ServingRequest",
    "Workload",
    "Cluster",
    "DispatchPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "EarliestDeadlinePolicy",
    "POLICY_NAMES",
    "get_policy",
    "register_policy",
    "TenantService",
    "ServingRecord",
    "ServingReport",
    "SketchTenantReport",
    "TenantOutcome",
    "reference_serve",
    "reference_serve_dynamic",
    "Autoscaler",
    "ReactiveAutoscaler",
    "PredictiveAutoscaler",
    "CarbonSuspendAutoscaler",
    "AutoscalerMetrics",
    "AUTOSCALER_NAMES",
    "parse_autoscaler",
    "AdmissionControl",
    "CarbonWaitingAdmission",
    "parse_admission",
    "CarbonIntensity",
    "parse_carbon_trace",
    "PowerModel",
    "parse_power_model",
    "TENANT_CLASSES",
    "FaultEvent",
    "FaultSchedule",
    "FAULT_ACTIONS",
    "parse_fault_schedule",
    "RequestBlock",
    "STREAM_CHUNK",
    "StreamingMoments",
    "StreamingHistogram",
    "LatencySketch",
    "sketch_nbytes",
]
