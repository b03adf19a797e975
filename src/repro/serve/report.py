"""``ServingReport``: what a multi-tenant serving simulation produced.

The report extends the single-stream :class:`~repro.api.InferenceReport` to
a cluster: every tenant gets a full ``InferenceReport`` (same accessors —
``mean/p50/p99_latency_ms``, ``deadline_miss_rate``, ... — with the stream
statistics describing that tenant's end-to-end experience *inside* the
cluster), and on top sit the cluster-level aggregates: per-replica and mean
utilisation, admission drops, dispatch batch sizes, and the queue-depth
trace over time.  ``to_dict``/``to_json`` nest the per-tenant summaries;
``to_csv`` emits one row per tenant.

Because a tenant's report is assembled from the same measurement, arrival
and queue-depth primitives as ``Backend.run_stream``, a single-replica
no-batching cluster reproduces ``run_stream`` bit for bit — the serving
layer adds multiplexing, never a different cycle model.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.report import InferenceReport
from ..eval.tables import render_csv
from ..graph import StreamStatistics, queue_depths_at_arrivals
from .arrivals import ServingRequest
from .sketches import LatencySketch, StreamingHistogram
from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .cluster import Cluster

__all__ = [
    "ServingRecord",
    "RECORD_COLUMNS",
    "TenantOutcome",
    "SketchTenantReport",
    "ServingReport",
    "assemble_report",
    "assemble_sketch_report",
]


@dataclass(frozen=True)
class ServingRecord:
    """One completed request: where and when it ran, and what it cost.

    ``service_s`` and ``energy_j`` are measured at the batch size the
    dispatch actually used, so batching amortisation shows up in both.
    """

    request: ServingRequest
    service_s: float
    energy_j: float
    start_s: float
    completion_s: float
    replica: int
    batch_size: int

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queueing + batching delay + service."""
        return self.completion_s - self.request.arrival_s


#: The per-request columns an exact run keeps, in ``ServingRecord`` field order.
RECORD_COLUMNS = tuple(f.name for f in fields(ServingRecord))


@dataclass
class SketchTenantReport:
    """Sketch-mode stand-in for a tenant's :class:`~repro.api.InferenceReport`.

    Exposes the same scalar accessors :meth:`TenantOutcome.row` and the
    planners read (``mean/p50/p99/max_latency_ms``, ``deadline_miss_*``,
    ``max_queue_depth``, ``energy_mj_per_graph``, ``num_graphs``,
    ``total_energy_mj``) backed by a :class:`~repro.serve.sketches.LatencySketch`
    instead of per-request arrays, so memory is O(1) in the request count.
    Counts, means, maxima, misses and energy are exact (modulo summation
    order across chunks); p50/p99 are read off the sketch's log-spaced
    :class:`~repro.serve.sketches.StreamingHistogram`, within its documented
    ~3.5% tolerance.  There is no ``stream_statistics`` — callers that need
    raw arrays must run exact mode.
    """

    backend: str
    model: str
    dataset: str
    batch_size: int
    config_description: str
    sketch: LatencySketch
    one_time_overhead_ms: float = 0.0
    extras: Dict = field(default_factory=dict)

    # -- sizes ----------------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        return self.sketch.completed

    # -- latency --------------------------------------------------------------
    @property
    def mean_latency_ms(self) -> float:
        """Mean service latency with the one-time cost amortised (exact)."""
        if not self.num_graphs:
            return 0.0
        return float(
            self.sketch.service.mean * 1e3 + self.one_time_overhead_ms / self.num_graphs
        )

    @property
    def p50_latency_ms(self) -> float:
        return self.sketch.p50_s() * 1e3

    @property
    def p99_latency_ms(self) -> float:
        return self.sketch.p99_s() * 1e3

    @property
    def max_latency_ms(self) -> float:
        return self.sketch.latency.max * 1e3 if self.num_graphs else 0.0

    # -- energy ---------------------------------------------------------------
    @property
    def total_energy_mj(self) -> float:
        return self.sketch.energy_j_total * 1e3

    @property
    def energy_mj_per_graph(self) -> float:
        if not self.num_graphs:
            return 0.0
        return self.total_energy_mj / self.num_graphs

    # -- deadlines / queueing -------------------------------------------------
    @property
    def deadline_miss_count(self) -> int:
        return self.sketch.deadline_misses

    @property
    def deadline_miss_rate(self) -> float:
        if not self.num_graphs:
            return 0.0
        return self.sketch.deadline_misses / self.num_graphs

    @property
    def max_queue_depth(self) -> int:
        queue = self.sketch.queue
        return int(queue.max) if queue.count else 0

    @property
    def stream_statistics(self) -> None:
        """Sketch mode stores no per-request arrays; always ``None``."""
        return None


@dataclass
class TenantOutcome:
    """One tenant's view of the simulation.

    ``report`` is a full :class:`~repro.api.InferenceReport` in exact mode
    and a :class:`SketchTenantReport` (same scalar accessors, O(1) memory)
    in sketch mode.
    """

    workload: Workload
    report: InferenceReport
    submitted: int
    completed: int
    dropped: int
    #: Requests shed by adaptive admission (dynamic clusters only).
    shed: int = 0

    def row(self) -> Dict:
        """Flat per-tenant summary (one CSV/table row)."""
        report = self.report
        return {
            "tenant": self.workload.tenant,
            "model": report.model,
            "dataset": report.dataset,
            "priority": self.workload.priority,
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "shed": self.shed,
            "mean_latency_ms": report.mean_latency_ms,
            "p50_latency_ms": report.p50_latency_ms,
            "p99_latency_ms": report.p99_latency_ms,
            "deadline_miss_rate": report.deadline_miss_rate,
            "deadline_miss_count": report.deadline_miss_count,
            "max_queue_depth": report.max_queue_depth,
            "energy_mj_per_graph": report.energy_mj_per_graph,
        }


@dataclass
class ServingReport:
    """Uniform result of one :meth:`Cluster.serve` run.

    An exact run keeps each completed request, in dispatch order, as a row of
    ``record_columns`` (:data:`RECORD_COLUMNS`); :attr:`records` builds the
    :class:`ServingRecord` list from them each time it is read.
    """

    backend: str
    policy: str
    num_replicas: int
    max_batch_size: int
    batch_timeout_s: float
    horizon_s: float
    tenants: Dict[str, TenantOutcome]
    per_replica_utilisation: np.ndarray
    batch_sizes: np.ndarray
    queue_depth_times_s: np.ndarray
    queue_depth_trace: np.ndarray
    record_columns: Optional[Tuple[list, ...]] = field(default=None, repr=False)
    dropped_requests: List[ServingRequest] = field(default_factory=list, repr=False)
    #: "exact" (array-backed, the oracle) or "sketch" (online accumulators).
    mode: str = "exact"
    #: Sketch mode only: cluster queue depth sampled at arrival instants.
    queue_depth_hist: Optional[StreamingHistogram] = field(default=None, repr=False)
    #: Sketch mode only: dispatch batch sizes (lossless integer buckets).
    batch_size_hist: Optional[StreamingHistogram] = field(default=None, repr=False)
    #: Requests shed by adaptive admission (exact mode keeps the objects).
    shed_requests: List[ServingRequest] = field(default_factory=list, repr=False)
    #: Dynamic runs, exact mode: rented-replica count at every change.
    replica_count_times_s: Optional[np.ndarray] = field(default=None, repr=False)
    replica_count_trace: Optional[np.ndarray] = field(default=None, repr=False)
    #: Dynamic runs, sketch mode: lossless integer histogram of the rented
    #: replica count (one update per change — fixed buckets, O(1) memory).
    replica_count_hist: Optional[StreamingHistogram] = field(default=None, repr=False)
    #: Dynamic runs: integral of the rented-replica count over the horizon
    #: (the cost a deployment would pay); ``None`` for static runs.
    replica_seconds: Optional[float] = None
    #: Dynamic runs: lifecycle event counters (scale_up_events, failures, ...).
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Power-modelled runs: per-replica ``∫ power dt`` over the horizon (J).
    replica_energy_j: Optional[np.ndarray] = field(default=None, repr=False)
    #: Power-modelled runs: total cluster energy — the plain Python sum of
    #: the per-replica integrals, so conservation is exact, not approximate.
    energy_j: Optional[float] = None
    #: Carbon-traced runs: ``∫ power × intensity dt`` over the horizon (gCO2).
    carbon_gco2: Optional[float] = None

    # -- cluster-level accessors ----------------------------------------------
    @property
    def records(self) -> List[ServingRecord]:
        """Every completed request, in dispatch order (sketch mode: none)."""
        if self.record_columns is None:
            return []
        return [ServingRecord(*row) for row in zip(*self.record_columns)]

    @property
    def tenant_reports(self) -> Dict[str, InferenceReport]:
        return {name: outcome.report for name, outcome in self.tenants.items()}

    @property
    def submitted(self) -> int:
        return sum(outcome.submitted for outcome in self.tenants.values())

    @property
    def completed(self) -> int:
        return sum(outcome.completed for outcome in self.tenants.values())

    @property
    def dropped(self) -> int:
        return sum(outcome.dropped for outcome in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(outcome.shed for outcome in self.tenants.values())

    @property
    def is_dynamic(self) -> bool:
        """Whether this run went through the dynamic (lifecycle-aware) loop."""
        return self.replica_seconds is not None

    @property
    def peak_replicas(self) -> int:
        """Largest rented-replica count over the run (static: the pool size)."""
        if self.replica_count_trace is not None and self.replica_count_trace.size:
            return int(self.replica_count_trace.max())
        if self.replica_count_hist is not None and self.replica_count_hist.count:
            return int(self.replica_count_hist.max)
        return self.num_replicas

    @property
    def cluster_utilisation(self) -> float:
        """Mean busy fraction across replicas over the horizon."""
        if not self.per_replica_utilisation.size:
            return 0.0
        return float(self.per_replica_utilisation.mean())

    @property
    def deadline_miss_rate(self) -> float:
        """Cluster-wide miss rate over every completed request."""
        total = sum(o.completed for o in self.tenants.values())
        if not total:
            return 0.0
        misses = sum(o.report.deadline_miss_count for o in self.tenants.values())
        return misses / total

    @property
    def max_queue_depth(self) -> int:
        if self.queue_depth_trace.size:
            return int(np.max(self.queue_depth_trace))
        if self.queue_depth_hist is not None and self.queue_depth_hist.count:
            # The maximum queue depth is always attained at an instant that
            # admits work (an arrival or a carbon-hold release; depth only
            # grows at admissions), so sketch mode's sampling of those
            # instants sees the same maximum the exact every-instant trace
            # records.
            return int(self.queue_depth_hist.max)
        return 0

    @property
    def mean_batch_size(self) -> float:
        if self.batch_sizes.size:
            return float(self.batch_sizes.mean())
        if self.batch_size_hist is not None and self.batch_size_hist.count:
            return float(self.batch_size_hist.mean)
        return 0.0

    def queue_depth_series(self) -> Dict[str, np.ndarray]:
        """Cluster queue depth over time (one sample per simulation event)."""
        return {"time_s": self.queue_depth_times_s, "depth": self.queue_depth_trace}

    # -- export ---------------------------------------------------------------
    def tenant_rows(self) -> List[Dict]:
        """One flat summary row per tenant, in workload order."""
        return [outcome.row() for outcome in self.tenants.values()]

    def to_dict(self) -> Dict:
        """Nested, JSON-serialisable summary (scalars only)."""
        payload = {
            "backend": self.backend,
            "policy": self.policy,
            "mode": self.mode,
            "replicas": self.num_replicas,
            "max_batch_size": self.max_batch_size,
            "batch_timeout_s": self.batch_timeout_s,
            "horizon_s": self.horizon_s,
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "shed": self.shed,
            "deadline_miss_rate": self.deadline_miss_rate,
            "cluster_utilisation": self.cluster_utilisation,
            "per_replica_utilisation": [
                float(u) for u in self.per_replica_utilisation
            ],
            "max_queue_depth": self.max_queue_depth,
            "mean_batch_size": self.mean_batch_size,
            "tenants": {
                row.pop("tenant"): row for row in (o.row() for o in self.tenants.values())
            },
        }
        if self.is_dynamic:
            payload["replica_seconds"] = float(self.replica_seconds)
            payload["peak_replicas"] = self.peak_replicas
            payload["event_counts"] = dict(self.event_counts)
            if self.replica_count_trace is not None:
                payload["replica_count"] = {
                    "time_s": [float(t) for t in self.replica_count_times_s],
                    "count": [int(c) for c in self.replica_count_trace],
                }
            elif self.replica_count_hist is not None:
                hist = self.replica_count_hist
                payload["replica_count"] = {
                    "min": float(hist.moments.min) if hist.count else 0.0,
                    "max": float(hist.max),
                    "mean": float(hist.mean) if hist.count else 0.0,
                    "changes": int(hist.count),
                }
            if self.replica_energy_j is not None:
                payload["energy_j"] = float(self.energy_j)
                payload["replica_energy_j"] = [
                    float(e) for e in self.replica_energy_j
                ]
                if self.carbon_gco2 is not None:
                    payload["carbon_gco2"] = float(self.carbon_gco2)
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_csv(self, path: Optional[str] = None) -> str:
        """Per-tenant rows as CSV text; when ``path`` is given, write the file."""
        text = render_csv(self.tenant_rows())
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def summary(self) -> str:
        """One-line human-readable summary."""
        losses = f"{self.dropped} dropped"
        if self.shed:
            losses += f", {self.shed} shed"
        text = (
            f"{self.policy} on {self.num_replicas}x {self.backend}: "
            f"{self.completed}/{self.submitted} served "
            f"({losses}), miss rate {self.deadline_miss_rate:.1%}, "
            f"utilisation {self.cluster_utilisation:.1%}, "
            f"max queue {self.max_queue_depth}"
        )
        if self.is_dynamic:
            text += (
                f", peak replicas {self.peak_replicas}, "
                f"replica-seconds {self.replica_seconds:.3g}"
            )
        if self.energy_j is not None:
            text += f", energy {self.energy_j:.3g}J"
            if self.carbon_gco2 is not None:
                text += f", carbon {self.carbon_gco2:.3g}g"
        return text


def assemble_report(
    cluster: "Cluster",
    columns: Sequence[list],
    dropped: Sequence[ServingRequest],
    busy_time: Sequence[float],
    batch_sizes: Sequence[int],
    trace_times: np.ndarray,
    trace_depths: np.ndarray,
    duration_s: Optional[float],
    shed: Sequence[ServingRequest] = (),
    replica_count_times_s: Optional[np.ndarray] = None,
    replica_count_trace: Optional[np.ndarray] = None,
    replica_seconds_state: Optional[Tuple[float, float, int]] = None,
    event_counts: Optional[Dict[str, int]] = None,
    power_state: Optional[Tuple] = None,
) -> ServingReport:
    """Build the :class:`ServingReport` from the per-request columns.

    ``columns`` are the seven :data:`RECORD_COLUMNS` lists, one row per
    completed request, and the report keeps them.  Aggregation is
    vectorised: each column becomes one numpy array, and every per-tenant
    view (latency sample, completion ordering, replica set, batch-size
    mean) is a mask + stable argsort over those arrays rather than
    per-tenant Python loops.  The values are bit-identical to the loop
    formulation — same floats, same (request-index) ordering — which the
    serving contract tests pin.

    The event loop also passes the shed-request list (empty on a static
    cluster) and, on a dynamic cluster only, the rented replica-count
    timeline, the partial replica-seconds integral ``(integral,
    last_change_s, rented)`` — finalised here once the horizon is known —
    and the lifecycle event counters.
    """
    requests, service_col, energy_col, _, completion_col, replica_col, batch_col = columns
    completions_all = np.array(completion_col, dtype=np.float64)
    arrivals_all = np.array([request.arrival_s for request in requests], dtype=np.float64)
    service_all = np.array(service_col, dtype=np.float64)
    energy_all = np.array(energy_col, dtype=np.float64)
    replica_all = np.array(replica_col, dtype=np.int64)
    batch_all = np.array(batch_col, dtype=np.int64)
    request_index_all = np.array([request.index for request in requests], dtype=np.int64)
    tenant_position = {w.tenant: i for i, w in enumerate(cluster.workloads)}
    tenant_all = np.array([tenant_position[request.tenant] for request in requests], dtype=np.int64)

    horizon_candidates = [duration_s or 0.0]
    if requests:
        horizon_candidates.append(float(completions_all.max()))
    if dropped:
        horizon_candidates.append(max(request.arrival_s for request in dropped))
    if shed:
        horizon_candidates.append(max(request.arrival_s for request in shed))
    horizon = max(horizon_candidates)
    # Busy time is clamped to the horizon: with `duration_s` the horizon
    # already covers the last completion, but a degraded replica's final
    # batch (or a caller-supplied short horizon) can finish past it, and
    # utilisation must never read above 1.0.
    utilisation = (
        np.minimum(np.array(busy_time, dtype=np.float64), horizon) / horizon
        if horizon > 0
        else np.zeros(len(busy_time))
    )

    dropped_by_tenant = Counter(request.tenant for request in dropped)
    shed_by_tenant = Counter(request.tenant for request in shed)

    tenants: Dict[str, TenantOutcome] = {}
    for position, workload in enumerate(cluster.workloads):
        member = np.nonzero(tenant_all == position)[0]
        # Per-tenant records in request-index order (indices are unique per
        # tenant, so the stable sort reproduces the historical ordering).
        order = member[np.argsort(request_index_all[member], kind="stable")]
        service = cluster.services[workload.tenant]
        arrivals = arrivals_all[order]
        completions = completions_all[order]
        service_s = service_all[order]
        energies_j = energy_all[order]
        statistics = StreamStatistics(
            per_graph_latency_s=completions - arrivals,
            completion_times_s=completions,
            deadline_s=workload.deadline_s,
            queue_depth_trace=queue_depths_at_arrivals(arrivals, completions),
        )
        extras = dict(service.base.extras)
        extras["serving"] = {
            "replicas": [int(r) for r in np.unique(replica_all[order])],
            "mean_batch_size": (
                float(batch_all[order].mean()) if order.size else 0.0
            ),
        }
        report = InferenceReport(
            backend=cluster.backend,
            model=service.resolved.model_name,
            dataset=service.resolved.dataset_name,
            batch_size=workload.request.batch_size,
            config_description=service.resolved.config.describe(),
            per_graph_latency_ms=service_s * 1e3,
            per_graph_energy_mj=energies_j * 1e3,
            one_time_overhead_ms=service.base.one_time_overhead_s * 1e3,
            stream_statistics=statistics,
            extras=extras,
        )
        dropped_count = dropped_by_tenant[workload.tenant]
        shed_count = shed_by_tenant[workload.tenant]
        tenants[workload.tenant] = TenantOutcome(
            workload=workload,
            report=report,
            submitted=int(order.size) + dropped_count + shed_count,
            completed=int(order.size),
            dropped=dropped_count,
            shed=shed_count,
        )

    policy_name = getattr(cluster.policy, "name", str(cluster.policy))
    replica_energy, total_energy, carbon_g = _finalise_power(power_state, horizon)
    return ServingReport(
        backend=cluster.backend,
        policy=policy_name,
        num_replicas=cluster.num_replicas,
        max_batch_size=cluster.max_batch_size,
        batch_timeout_s=cluster.batch_timeout_s,
        horizon_s=float(horizon),
        tenants=tenants,
        per_replica_utilisation=utilisation,
        batch_sizes=np.array(batch_sizes, dtype=np.int64),
        queue_depth_times_s=trace_times,
        queue_depth_trace=trace_depths,
        record_columns=tuple(columns),
        dropped_requests=list(dropped),
        shed_requests=list(shed),
        replica_count_times_s=replica_count_times_s,
        replica_count_trace=replica_count_trace,
        replica_seconds=_finalise_replica_seconds(replica_seconds_state, horizon),
        event_counts=dict(event_counts) if event_counts else {},
        replica_energy_j=replica_energy,
        energy_j=total_energy,
        carbon_gco2=carbon_g,
    )


def _finalise_replica_seconds(
    state: Optional[Tuple[float, float, int]], horizon: float
) -> Optional[float]:
    """Close the rented-replica integral at the horizon.

    ``state`` is ``(integral_to_last_change, last_change_s, rented_now)`` as
    maintained by the event loop; the final segment runs from the last
    pool change to the horizon.  Static runs pass ``None`` and stay ``None``
    (``ServingReport.is_dynamic`` keys off this).
    """
    if state is None:
        return None
    integral, last_change_s, rented = state
    return float(integral + rented * (horizon - last_change_s))


def _finalise_power(
    state: Optional[Tuple], horizon: float
) -> Tuple[Optional[np.ndarray], Optional[float], Optional[float]]:
    """Close the power and carbon integrals at the horizon.

    ``state`` is the event loop's power ledger — per-replica
    ``(accumulated J, current watts, last change time)`` columns plus the
    cluster draw, carbon accumulator and trace — exactly as maintained
    online; the final segment of each replica runs from its last draw
    change to the horizon, and the cluster total is the plain Python sum of
    the per-replica integrals (exact conservation).  Runs without a power
    model pass ``None`` and every output stays ``None``.
    """
    if state is None:
        return None, None, None
    energy_acc, watts, last_w_change, power_w, carbon_g, last_c_change, trace = state
    replica_energy = np.array(
        [
            e + w * (horizon - t)
            for e, w, t in zip(energy_acc, watts, last_w_change)
        ],
        dtype=np.float64,
    )
    total = float(sum(replica_energy.tolist()))
    carbon: Optional[float] = None
    if trace is not None:
        carbon = float(carbon_g + power_w * trace.integral_g_per_j(last_c_change, horizon))
    return replica_energy, total, carbon


def assemble_sketch_report(
    cluster: "Cluster",
    sketches: Dict[str, LatencySketch],
    dropped_by_tenant: Dict[str, int],
    busy_time: Sequence[float],
    batch_size_hist: StreamingHistogram,
    queue_depth_hist: StreamingHistogram,
    max_completion_s: float,
    max_dropped_arrival_s: float,
    duration_s: Optional[float],
    shed_by_tenant: Optional[Dict[str, int]] = None,
    max_shed_arrival_s: float = -np.inf,
    replica_count_hist: Optional[StreamingHistogram] = None,
    replica_seconds_state: Optional[Tuple[float, float, int]] = None,
    event_counts: Optional[Dict[str, int]] = None,
    power_state: Optional[Tuple] = None,
) -> ServingReport:
    """Build a sketch-mode :class:`ServingReport` from online accumulators.

    The O(requests) inputs of :func:`assemble_report` are replaced by one
    :class:`~repro.serve.sketches.LatencySketch` per tenant plus two
    cluster-level histograms, so the report's memory is O(tenants +
    replicas).  Horizon and utilisation replicate the exact path's float
    operations (same max candidates, same division), keeping utilisation
    bit-identical between modes.
    """
    horizon_candidates = [duration_s or 0.0]
    if max_completion_s > -np.inf:
        horizon_candidates.append(float(max_completion_s))
    if max_dropped_arrival_s > -np.inf:
        horizon_candidates.append(float(max_dropped_arrival_s))
    if max_shed_arrival_s > -np.inf:
        horizon_candidates.append(float(max_shed_arrival_s))
    horizon = max(horizon_candidates)
    # Same horizon clamp as the exact path — identical float operations keep
    # sketch-mode utilisation bit-identical to the exact oracle.
    utilisation = (
        np.minimum(np.array(busy_time, dtype=np.float64), horizon) / horizon
        if horizon > 0
        else np.zeros(len(busy_time))
    )
    shed_by_tenant = shed_by_tenant or {}

    tenants: Dict[str, TenantOutcome] = {}
    for workload in cluster.workloads:
        sketch = sketches[workload.tenant]
        service = cluster.services[workload.tenant]
        extras = dict(service.base.extras)
        extras["serving"] = {
            "replicas": sorted(int(r) for r in sketch.replicas),
            "mean_batch_size": (
                float(sketch.batch.mean) if sketch.completed else 0.0
            ),
        }
        report = SketchTenantReport(
            backend=cluster.backend,
            model=service.resolved.model_name,
            dataset=service.resolved.dataset_name,
            batch_size=workload.request.batch_size,
            config_description=service.resolved.config.describe(),
            sketch=sketch,
            one_time_overhead_ms=service.base.one_time_overhead_s * 1e3,
            extras=extras,
        )
        dropped_count = dropped_by_tenant.get(workload.tenant, 0)
        shed_count = shed_by_tenant.get(workload.tenant, 0)
        tenants[workload.tenant] = TenantOutcome(
            workload=workload,
            report=report,
            submitted=sketch.completed + dropped_count + shed_count,
            completed=sketch.completed,
            dropped=dropped_count,
            shed=shed_count,
        )

    policy_name = getattr(cluster.policy, "name", str(cluster.policy))
    replica_energy, total_energy, carbon_g = _finalise_power(power_state, horizon)
    return ServingReport(
        backend=cluster.backend,
        policy=policy_name,
        num_replicas=cluster.num_replicas,
        max_batch_size=cluster.max_batch_size,
        batch_timeout_s=cluster.batch_timeout_s,
        horizon_s=float(horizon),
        tenants=tenants,
        per_replica_utilisation=utilisation,
        batch_sizes=np.zeros(0, dtype=np.int64),
        queue_depth_times_s=np.zeros(0, dtype=np.float64),
        queue_depth_trace=np.zeros(0, dtype=np.int64),
        mode="sketch",
        queue_depth_hist=queue_depth_hist,
        batch_size_hist=batch_size_hist,
        replica_count_hist=replica_count_hist,
        replica_seconds=_finalise_replica_seconds(replica_seconds_state, horizon),
        event_counts=dict(event_counts) if event_counts else {},
        replica_energy_j=replica_energy,
        energy_j=total_energy,
        carbon_gco2=carbon_g,
    )
