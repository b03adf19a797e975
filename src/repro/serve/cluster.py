"""The multi-tenant serving cluster: replicas, dispatch policies, batching.

``Cluster`` multiplexes the merged request sequence of a
:class:`~repro.serve.LoadGenerator` across ``num_replicas`` identical
instances of one registered :class:`~repro.api.Backend`.  The simulation is
event-driven and fully deterministic: arrivals, batch-release timers and
replica completions are processed in time order, and every tie is broken by
a fixed (kind, sequence) rule.

Service times come from the backend's ``measure`` pass — the exact per-graph
latencies ``run``/``run_stream`` report — so a single replica with FIFO
dispatch and no batching reproduces
:func:`~repro.graph.simulate_stream_consumption` bit for bit (this is
asserted by the cross-backend serving contract tests).  With dynamic
batching, a dispatch of ``k`` same-tenant requests is re-measured at batch
size ``k``: platform backends amortise their framework overhead, FlowGNN
(a batch-1 streaming architecture) is indifferent.

Dispatch policies:

* ``round_robin``   — requests are pinned to replicas in rotation at
  arrival; each replica drains its own queue FIFO;
* ``least_loaded``  — requests are pinned at arrival to the replica with
  the least outstanding work (remaining service + queued service);
* ``edf``           — SLO-aware earliest-deadline-first: one shared queue,
  a free replica takes the request with the earliest absolute deadline
  (ties: higher priority, then arrival order).  Best-effort requests sort
  after every deadline-carrying one.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..api import Backend, InferenceRequest, Measurement, MeasurementCache, get_backend
from ..checks import finite_nonnegative, finite_positive
from .arrivals import REQUEST_ORDER, ServingRequest
from .autoscale import (
    AdmissionControl,
    Autoscaler,
    AutoscalerMetrics,
    CarbonWaitingAdmission,
    parse_admission,
    parse_autoscaler,
)
from .carbon import CarbonIntensity
from .faults import FaultSchedule
from .power import PowerModel
from .report import (
    RECORD_COLUMNS,
    ServingReport,
    assemble_report,
    assemble_sketch_report,
)
from .sketches import LatencySketch, StreamingHistogram
from .workload import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .arrivals import LoadGenerator

__all__ = [
    "DispatchPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "EarliestDeadlinePolicy",
    "POLICY_NAMES",
    "get_policy",
    "register_policy",
    "TenantService",
    "Cluster",
]


# ---------------------------------------------------------------------------
# Service model: what one replica spends on one request
# ---------------------------------------------------------------------------
class TenantService:
    """Cycle-accurate service-time oracle for one tenant on one backend.

    The base profile is measured once via ``backend.measure`` (falling back
    to ``run`` for third-party backends without it); batch-size variants are
    measured lazily and cached, so dynamic batching only pays for the batch
    sizes that actually occur.  Replicas are identical hardware and share
    one ``TenantService``.

    A :class:`~repro.api.MeasurementCache` can back the lazy measurements;
    the serving-scenario sweep engine (:mod:`repro.plan`) pre-measures every
    profile a sweep can need into one cache and ships it to the worker
    processes, so no scenario ever re-measures the backend.
    """

    def __init__(
        self,
        workload: Workload,
        backend: Backend,
        cache: Optional[MeasurementCache] = None,
    ) -> None:
        self.workload = workload
        self._backend = backend
        self._cache = cache
        self.resolved = workload.request.resolve()
        self._by_batch: Dict[int, Tuple[Measurement, List[float], List[float]]] = {}
        self._base = self.measurement(workload.request.batch_size)

    def _request_at(self, batch_size: int) -> InferenceRequest:
        if batch_size == self.workload.request.batch_size:
            return self.workload.request
        return InferenceRequest(
            model=self.resolved.model,
            dataset=self.resolved.graphs,
            config=self.workload.request.config,
            batch_size=batch_size,
        )

    def _measure(self, request: InferenceRequest) -> Measurement:
        measure = getattr(self._backend, "measure", None)
        if measure is not None:
            return measure(request)
        report = self._backend.run(request)
        return Measurement(
            latencies_s=report.per_graph_latency_ms * 1e-3,
            energies_j=report.per_graph_energy_mj * 1e-3,
            one_time_overhead_s=report.one_time_overhead_ms * 1e-3,
            extras=dict(report.extras),
        )

    def _measure_profile(self, batch_size: int) -> Measurement:
        if self._cache is None:
            return self._measure(self._request_at(batch_size))
        return self._cache.get_or_measure(
            self._backend.name,
            self.workload.request,
            batch_size,
            lambda: self._measure(self._request_at(batch_size)),
        )

    @property
    def base(self) -> Measurement:
        return self._base

    @property
    def base_batch_size(self) -> int:
        """The workload's declared batch size (what ``run_stream`` assumes)."""
        return self.workload.request.batch_size

    @property
    def num_graphs(self) -> int:
        return len(self.resolved.graphs)

    def measurement(self, batch_size: int = 1) -> Measurement:
        """The backend's profile when requests are batched ``batch_size`` deep."""
        return self.profile(batch_size)[0]

    def profile(self, batch_size: int) -> Tuple[Measurement, List[float], List[float]]:
        """``(measurement, latencies, energies)`` at ``batch_size``: the lists
        are its per-graph arrays as Python floats (``tolist()``, the doubles
        ``float(arr[i])`` gives), which dispatch indexes per request."""
        cached = self._by_batch.get(batch_size)
        if cached is None:
            measured = self._measure_profile(batch_size)
            lists = (measured.latencies_s.tolist(), measured.energies_j.tolist())
            cached = self._by_batch[batch_size] = (measured, *lists)
        return cached

    def service_s(self, graph_index: int, batch_size: int = 1) -> float:
        return float(self.measurement(batch_size).latencies_s[graph_index])

    def mean_service_s(self) -> float:
        return float(self._base.latencies_s.mean()) if self._base.latencies_s.size else 0.0


# ---------------------------------------------------------------------------
# Dispatch policies
# ---------------------------------------------------------------------------
class _QueueItem:
    """A pending request plus the cluster's dispatch bookkeeping: ``seq`` is
    the global arrival order, ``service_s`` the batch-1 service time
    (backlog estimates), ``replica`` the pinned replica (None = any), and
    ``late`` is ``(release instant, 0, release count)`` once a carbon hold
    queues the request late (see ``_Lanes.drain``)."""

    __slots__ = ("request", "seq", "service_s", "replica", "late")

    def __init__(self, request: ServingRequest, seq: int, service_s: float, replica: Optional[int] = None) -> None:
        self.request = request
        self.seq = seq
        self.service_s = service_s
        self.replica = replica
        self.late: Optional[Tuple[float, int, int]] = None


class DispatchPolicy(ABC):
    """Where a request runs and in which order a free replica picks work."""

    name: str = "abstract"

    def reset(self, num_replicas: int) -> None:
        """Called at the start of every simulation."""

    def rebind(self, num_replicas: int) -> None:
        """Called when a dynamic simulation grows the pool to ``num_replicas``.

        ``num_replicas`` counts every replica ever created (including dead
        and draining ones); the dispatchable subset is ``state.live``.  The
        default is a no-op — the built-in policies read ``state.live``
        directly, so they need no rebinding state.
        """

    def assign(self, item: _QueueItem, state: "_SimState") -> Optional[int]:
        """Replica to pin ``item`` to at arrival; ``None`` leaves it shared.

        Only replicas in ``state.live`` may be returned: the event loop
        re-routes a dead/draining replica's queue through this hook, and an
        assignment outside ``live`` would strand the request.
        """
        return None

    @abstractmethod
    def order_key(self, item: _QueueItem) -> Tuple:
        """Sort key among a replica's eligible items (ties: arrival order).

        The key must be **stable while the request waits**: the dispatcher
        computes it once at admission and keeps the pending queue in
        key-ordered heaps, so a key that depends on simulation time (e.g.
        ageing priorities) would be frozen at its arrival value.  Every
        built-in policy (deadline, priority, sequence) satisfies this; a
        registered custom policy must too.
        """


class RoundRobinPolicy(DispatchPolicy):
    """Pin requests to replicas in rotation; per-replica FIFO."""

    name = "round_robin"

    def reset(self, num_replicas: int) -> None:
        self._counter = 0
        self._num_replicas = num_replicas

    def rebind(self, num_replicas: int) -> None:
        self._num_replicas = num_replicas

    def assign(self, item: _QueueItem, state: "_SimState") -> Optional[int]:
        live = state.live
        if not live:
            return None
        replica = live[self._counter % len(live)]
        self._counter += 1
        return replica

    def order_key(self, item: _QueueItem) -> Tuple:
        return ()


class LeastLoadedPolicy(DispatchPolicy):
    """Pin each arrival to the replica with the least outstanding work."""

    name = "least_loaded"

    def assign(self, item: _QueueItem, state: "_SimState") -> Optional[int]:
        # The first replica with the smallest backlog, as np.argmin would
        # pick it, without building an array per arrival.
        busy_until = state.busy_until
        queued_work = state.queued_work
        now = state.now
        best: Optional[int] = None
        best_backlog = 0.0
        for r in state.live:
            backlog = busy_until[r] - now
            if backlog < 0.0:
                backlog = 0.0
            backlog += queued_work[r]
            if best is None or backlog < best_backlog:
                best = r
                best_backlog = backlog
        return best

    def order_key(self, item: _QueueItem) -> Tuple:
        return ()


class EarliestDeadlinePolicy(DispatchPolicy):
    """Shared queue ordered by absolute deadline, then priority (SLO-aware)."""

    name = "edf"

    def order_key(self, item: _QueueItem) -> Tuple:
        return (item.request.absolute_deadline_s, -item.request.priority)


_POLICY_REGISTRY: Dict[str, Callable[[], DispatchPolicy]] = {}

#: Registered policy names, in registration order (stable for CLI choices).
POLICY_NAMES: List[str] = []


def register_policy(name: str, factory: Callable[[], DispatchPolicy]) -> None:
    """Register a dispatch-policy factory (mirrors ``register_backend``).

    The policy's ``order_key`` must be stable for a waiting request (see
    :meth:`DispatchPolicy.order_key`): keys are computed once at admission.
    """
    key = name.lower()
    if key not in _POLICY_REGISTRY:
        POLICY_NAMES.append(key)
    _POLICY_REGISTRY[key] = factory


def get_policy(name: str) -> DispatchPolicy:
    key = name.lower()
    if key not in _POLICY_REGISTRY:
        raise KeyError(f"unknown policy {name!r}; registered: {POLICY_NAMES}")
    return _POLICY_REGISTRY[key]()


register_policy("round_robin", RoundRobinPolicy)
register_policy("least_loaded", LeastLoadedPolicy)
register_policy("edf", EarliestDeadlinePolicy)


# ---------------------------------------------------------------------------
# Event-driven simulation
# ---------------------------------------------------------------------------
# Event kinds, in tie-break order at equal timestamps: completions free
# replicas first, then the control plane (faults, recoveries, scale events)
# reshapes the pool, and only then are the instant's arrivals/timers
# considered — so a request arriving the same instant a replica dies is
# never assigned to it.  A static cluster (no control plane) only ever
# schedules _COMPLETION, _ARRIVAL and _TIMER.
_COMPLETION, _FAIL, _RECOVER, _SCALE, _ARRIVAL, _TIMER = 0, 1, 2, 3, 4, 5

# Replica lifecycle states (dynamic runs; static pools are all-_ACTIVE).
# provisioning -> active -> draining -> dead, with fail/recover shortcuts
# and "degraded" = active with a service-time factor != 1.
_PROVISIONING, _ACTIVE, _DRAINING, _DEAD = 0, 1, 2, 3


def _new_event_counts() -> Dict[str, int]:
    """Zeroed lifecycle counters, in the report's canonical key order."""
    return {
        "scale_up_events": 0,
        "scale_down_events": 0,
        "replicas_added": 0,
        "replicas_removed": 0,
        "failures": 0,
        "recoveries": 0,
        "degradations": 0,
        "restorations": 0,
    }


@dataclass
class _SimState:
    """Mutable simulation state shared with policy hooks.

    ``live`` lists the dispatchable replica ids in ascending order.  It
    starts as the whole pool; the event loop maintains it as replicas
    provision, drain, die and recover (on a static cluster it never
    changes), and both dispatch and the built-in policies walk it — so a
    policy written against ``live`` behaves identically on a static pool.
    """

    busy_until: List[float]
    queued_work: List[float]
    now: float = 0.0
    live: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.live is None:
            self.live = list(range(len(self.busy_until)))


class _ExactSink:
    """Keeps every completion as a row of seven per-request columns, in
    :data:`~repro.serve.report.RECORD_COLUMNS` order; a dispatched batch
    extends all seven at once."""

    __slots__ = ("columns", "batch_sizes", "dropped", "shed")

    def __init__(self) -> None:
        self.columns: Tuple[list, ...] = tuple([] for _ in RECORD_COLUMNS)
        self.batch_sizes: List[int] = []
        self.dropped: List[ServingRequest] = []
        self.shed: List[ServingRequest] = []

    def on_batch(
        self,
        batch: List[_QueueItem],
        services: List[float],
        energies: List[float],
        start_s: float,
        end_s: float,
        replica: int,
    ) -> None:
        size = len(batch)
        self.batch_sizes.append(size)
        requests, service, energy, starts, ends, replicas, sizes = self.columns
        requests.extend([item.request for item in batch])
        service.extend(services)
        energy.extend(energies)
        starts.extend([start_s] * size)
        ends.extend([end_s] * size)
        replicas.extend([replica] * size)
        sizes.extend([size] * size)

    def on_admit(self, request: ServingRequest) -> None:
        pass

    def on_drop(self, request: ServingRequest) -> None:
        self.dropped.append(request)

    def on_shed(self, request: ServingRequest) -> None:
        self.shed.append(request)


#: Rows a :class:`_SketchSink` buffers in any one list before it folds every
#: buffer into its sketches, which bounds the buffers' memory.
SKETCH_FLUSH_ROWS = 1024


class _SketchSink:
    """Folds completed requests into online accumulators, a chunk at a time.

    The streaming counterpart of :class:`_ExactSink`: per-tenant
    :class:`~repro.serve.sketches.LatencySketch` objects, two cluster-level
    histograms, drop counters and the horizon maxima — O(tenants + replicas)
    memory however many requests stream through.

    Completions, admission queue depths and per-instant queue depths are
    appended to plain lists as they happen, and :meth:`flush` folds them
    with numpy once any list holds :data:`SKETCH_FLUSH_ROWS` rows, and
    before the report is assembled.  Every float comes out as folding each
    row on its own would give: the service, latency and energy totals
    continue each tenant's running total in dispatch order
    (:meth:`LatencySketch.observe_sequence`), and the batch sizes and queue
    depths are integers, which sum exactly in any order.  Replica sets and
    the completion heap below stay scalar.

    Per-tenant queue depth mirrors
    :func:`~repro.graph.queue_depths_at_arrivals` exactly: at each admission
    the depth is the number of earlier admissions minus the tenant's
    completions at or before the arrival, read off a min-heap of
    ``(completion time, batch size)`` entries.  By admission time every such
    completion has already been dispatched (a completion at ``t`` was
    dispatched no later than ``t``), so the heap always holds what the exact
    path's sorted array would.
    """

    __slots__ = (
        "sketches",
        "batch_hist",
        "queue_hist",
        "dropped_by_tenant",
        "dropped_total",
        "shed_by_tenant",
        "shed_total",
        "max_completion_s",
        "max_dropped_arrival_s",
        "max_shed_arrival_s",
        "_positions",
        "_qd_arrived",
        "_qd_popped",
        "_qd_heaps",
        "_batch_tenants",
        "_batch_sizes",
        "_latencies",
        "_services",
        "_energies",
        "_admit_tenants",
        "_admit_depths",
        "_instant_depths",
    )

    def __init__(self, cluster: "Cluster") -> None:
        self.sketches = {
            w.tenant: LatencySketch(deadline_s=w.deadline_s) for w in cluster.workloads
        }
        self.batch_hist = StreamingHistogram.integers(cluster.max_batch_size)
        self.queue_hist = StreamingHistogram.power_of_two()
        self.dropped_by_tenant = {w.tenant: 0 for w in cluster.workloads}
        self.dropped_total = 0
        self.shed_by_tenant = {w.tenant: 0 for w in cluster.workloads}
        self.shed_total = 0
        self.max_completion_s = -math.inf
        self.max_dropped_arrival_s = -math.inf
        self.max_shed_arrival_s = -math.inf
        self._positions = {w.tenant: i for i, w in enumerate(cluster.workloads)}
        self._qd_arrived = {w.tenant: 0 for w in cluster.workloads}
        self._qd_popped = {w.tenant: 0 for w in cluster.workloads}
        self._qd_heaps: Dict[str, List[Tuple[float, int]]] = {w.tenant: [] for w in cluster.workloads}
        # Buffered rows: one per batch, per completion, per admission and
        # per sampled instant.
        self._batch_tenants: List[int] = []
        self._batch_sizes: List[int] = []
        self._latencies: List[float] = []
        self._services: List[float] = []
        self._energies: List[float] = []
        self._admit_tenants: List[int] = []
        self._admit_depths: List[int] = []
        self._instant_depths: List[int] = []

    def on_batch(
        self,
        batch: List[_QueueItem],
        services: List[float],
        energies: List[float],
        start_s: float,
        end_s: float,
        replica: int,
    ) -> None:
        """Buffer one dispatched (single-tenant) batch's completions."""
        size = len(batch)
        tenant = batch[0].request.tenant
        self._batch_tenants.append(self._positions[tenant])
        self._batch_sizes.append(size)
        latencies = self._latencies
        for item in batch:
            latencies.append(end_s - item.request.arrival_s)
        self._services.extend(services)
        self._energies.extend(energies)
        self.sketches[tenant].replicas.add(replica)
        # One heap entry per batch: its members all complete together.
        heapq.heappush(self._qd_heaps[tenant], (end_s, size))
        if end_s > self.max_completion_s:
            self.max_completion_s = end_s
        if len(latencies) >= SKETCH_FLUSH_ROWS:
            self.flush()

    def on_admit(self, request: ServingRequest) -> None:
        """Sample the tenant's queue depth at this (admitted) arrival."""
        tenant = request.tenant
        heap = self._qd_heaps[tenant]
        arrival = request.arrival_s
        popped = self._qd_popped[tenant]
        while heap and heap[0][0] <= arrival:
            popped += heapq.heappop(heap)[1]
        self._qd_popped[tenant] = popped
        arrived = self._qd_arrived[tenant]
        self._admit_tenants.append(self._positions[tenant])
        self._admit_depths.append(arrived - popped)
        self._qd_arrived[tenant] = arrived + 1
        if len(self._admit_depths) >= SKETCH_FLUSH_ROWS:
            self.flush()

    def on_drop(self, request: ServingRequest) -> None:
        self.dropped_by_tenant[request.tenant] += 1
        self.dropped_total += 1
        if request.arrival_s > self.max_dropped_arrival_s:
            self.max_dropped_arrival_s = request.arrival_s

    def on_shed(self, request: ServingRequest) -> None:
        self.shed_by_tenant[request.tenant] += 1
        self.shed_total += 1
        if request.arrival_s > self.max_shed_arrival_s:
            self.max_shed_arrival_s = request.arrival_s

    def on_instant_sample(self, depth: int) -> None:
        self._instant_depths.append(depth)
        if len(self._instant_depths) >= SKETCH_FLUSH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Fold every buffered row into the sketches and histograms."""
        sketches = list(self.sketches.values())
        if self._batch_sizes:
            sizes = np.array(self._batch_sizes, dtype=np.int64)
            self.batch_hist.update_many(sizes)
            row_sizes = np.repeat(sizes, sizes)
            order, bounds = _group_by(np.repeat(self._batch_tenants, sizes), len(sketches))
            LatencySketch.observe_sequence(
                sketches,
                bounds,
                np.array(self._latencies)[order],
                np.array(self._services)[order],
                np.array(self._energies)[order],
                row_sizes[order],
            )
            for rows in (self._batch_tenants, self._batch_sizes, self._latencies, self._services, self._energies):
                rows.clear()
        if self._admit_depths:
            order, bounds = _group_by(np.array(self._admit_tenants), len(sketches))
            depths = np.array(self._admit_depths, dtype=np.int64)[order]
            counts = np.diff(bounds)
            present = np.flatnonzero(counts)
            firsts = bounds[present]
            for g, count, total, low, high in zip(
                present.tolist(),
                counts[present].tolist(),
                np.add.reduceat(depths, firsts).tolist(),
                np.minimum.reduceat(depths, firsts).tolist(),
                np.maximum.reduceat(depths, firsts).tolist(),
            ):
                sketches[g].queue.merge(count, float(total), float(low), float(high))
            self._admit_tenants.clear()
            self._admit_depths.clear()
        if self._instant_depths:
            self.queue_hist.update_many(np.array(self._instant_depths, dtype=np.float64))
            self._instant_depths.clear()


def _group_by(keys: np.ndarray, num_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stable order that groups ``keys`` (ints in ``[0, num_groups)``), and
    each group's bounds in it: group ``g`` is ``order[bounds[g]:bounds[g + 1]]``."""
    order = np.argsort(keys, kind="stable")
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_groups), out=bounds[1:])
    return order, bounds


def _reject_infinite_arrivals(ordered: Sequence[ServingRequest]) -> None:
    """``ValueError`` naming the value if one of ``ordered`` (sorted by
    :data:`REQUEST_ORDER`, so it would be first or last) arrives at ±inf.
    The event loop names a NaN arrival when it reaches it."""
    for request in ordered[:1] + ordered[-1:]:
        if math.isinf(request.arrival_s):
            raise ValueError(f"arrival_s must be finite, got {request.arrival_s}")


#: Rounds in which :func:`_fifo_finishes` re-proposes a failing queue's busy
#: periods before its rows from the first failing one take the per-row loop.
_FOLD_ROUNDS = 4


def _fifo_finishes(arrival: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Finish times of independent FIFO queues, bit for bit as the per-row loop
    ``f[k] = (a[k] if a[k] >= f[k - 1] else f[k - 1]) + s[k]`` gives them.

    Row ``q`` of the C-contiguous ``(queues, depth)`` arrays is one queue in
    order.  Column 0 has no predecessor: a queue's carried finish enters as
    an arrival with zero service there, and padding as one at ``-inf``.

    A busy period opens at a *head*, a row arriving at or after the previous
    finish, and inside it every finish is the left fold ``((a_h + s_h) +
    s_{h+1}) + ...``, the loop's additions in its order.  The heads are
    *proposed* from the max-plus closed form ``f[k] = C[k] + max_{j <= k}
    (a[j] - C[j - 1])`` (``C`` the running service sum; its rounding only
    moves a proposal), every period is *folded* (:func:`_fold_periods`) and
    every row is *verified*: ``max(a[k], f[k - 1]) + s[k]`` must give
    ``f[k]``, and then every finish is the loop's, by induction.  A failing
    queue's folded finishes are exact up to its first failing row, so its
    heads are re-proposed from them and it is folded again; after
    :data:`_FOLD_ROUNDS` rounds its rows from the first failing one run the
    per-row loop, which chains of near-ties can need.
    """
    lead = arrival.copy()
    lead[:, 1:] -= np.cumsum(service, axis=1)[:, :-1]
    heads = lead >= np.maximum.accumulate(lead, axis=1)
    del lead
    finish = _fold_periods(arrival, service, heads)
    queues = np.arange(arrival.shape[0])
    a, s, f = arrival, service, finish
    for round_ in range(_FOLD_ROUNDS + 1):
        wrong = np.maximum(a[:, 1:], f[:, :-1]) + s[:, 1:] != f[:, 1:]
        failing = wrong.any(axis=1)
        if not failing.any():
            break
        queues, a, s, f, wrong = queues[failing], a[failing], s[failing], f[failing], wrong[failing]
        if round_ < _FOLD_ROUNDS:
            heads = np.ones(a.shape, dtype=bool)
            np.greater_equal(a[:, 1:], f[:, :-1], out=heads[:, 1:])
            f = finish[queues] = _fold_periods(a, s, heads)
            continue
        for q, first in zip(queues.tolist(), (wrong.argmax(axis=1) + 1).tolist()):
            prev = float(finish[q, first - 1])
            row: List[float] = []
            for a_k, s_k in zip(arrival[q, first:].tolist(), service[q, first:].tolist()):
                prev = (a_k if a_k >= prev else prev) + s_k
                row.append(prev)
            finish[q, first:] = row
    return finish


def _fold_periods(arrival: np.ndarray, service: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Each row's finish when ``heads`` open the busy periods (in row-major
    order, from a head): ``a + s`` at a head, else the previous finish + ``s``.

    The periods of ``2**(c - 1) < length <= 2**c`` rows are the rows of a
    zero-padded ``(count, 2**c)`` block of one buffer, so one ``np.cumsum``
    per block adds every period's terms in order: O(log(longest period))
    numpy calls for any mix of lengths (a segmented scan).
    """
    firsts = np.flatnonzero(heads)
    lengths = np.diff(firsts, append=heads.size)
    classes = np.frexp(lengths - 1.0)[1]
    counts = np.bincount(classes)
    sizes = counts << np.arange(counts.size)
    bases = np.cumsum(sizes) - sizes
    order = np.argsort(classes.astype(np.int8), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    rank -= (np.cumsum(counts) - counts)[classes]
    # A period's rows are consecutive cells from its first one.
    cell = np.repeat(bases[classes] + (rank << classes) - firsts, lengths)
    cell += np.arange(cell.size)
    del order, rank, classes
    values = service.copy()
    np.add(arrival, service, out=values, where=heads)
    buffer = np.zeros(int(sizes.sum()))
    buffer[cell] = values.reshape(-1)
    del values
    for c in np.flatnonzero(counts[1:]).tolist():
        block = buffer[bases[c + 1] : bases[c + 1] + sizes[c + 1]].reshape(counts[c + 1], -1)
        np.cumsum(block, axis=1, out=block)
    return buffer[cell].reshape(heads.shape)


@dataclass
class Cluster:
    """A pool of identical backend replicas serving many tenants.

    Parameters
    ----------
    workloads:
        The tenants (unique names).
    backend:
        Registered backend name; every replica is one instance of it.
    num_replicas:
        Pool size.
    policy:
        Dispatch policy name (``round_robin`` / ``least_loaded`` / ``edf``)
        or a :class:`DispatchPolicy` instance.
    max_batch_size / batch_timeout_s:
        Dynamic batching: a replica groups up to ``max_batch_size``
        same-tenant requests per dispatch, waiting at most
        ``batch_timeout_s`` after the oldest request's arrival for the
        batch to fill.  The defaults (1, 0) disable batching.
    queue_capacity:
        Bound on the number of queued requests; arrivals beyond it are
        dropped (admission control).  ``None`` means unbounded.
    measurement_cache:
        Optional :class:`~repro.api.MeasurementCache` backing the tenant
        services.  The serving-scenario sweep engine pre-measures every
        profile into one cache so no scenario re-measures the backend.
    autoscaler:
        Optional :class:`~repro.serve.autoscale.Autoscaler` (or its spec
        string, e.g. ``"reactive:min=1,max=8"``): the replica pool then
        starts at ``num_replicas`` and is resized at the autoscaler's tick
        interval, with provisioning latency and scale-down hysteresis.
    faults:
        Optional :class:`~repro.serve.faults.FaultSchedule` (or its spec
        string): deterministic replica crash/recover/degrade events
        interleaved with the simulation.
    admission:
        Optional :class:`~repro.serve.autoscale.AdmissionControl` (or its
        spec string, e.g. ``"queue=64,headroom=1.5"``): adaptive load
        shedding applied to every arrival, before the hard
        ``queue_capacity`` bound.  The ``carbon_waiting`` form
        (:class:`~repro.serve.autoscale.CarbonWaitingAdmission`) holds
        deferrable tenants' work for clean-grid windows instead.
    power:
        Optional :class:`~repro.serve.power.PowerModel` (or its spec
        string, e.g. ``"busy=2.0"``): per-replica power draw, integrated
        over the lifecycle timeline into ``ServingReport.energy_j``.  When
        omitted but ``carbon``/``power_cap_w`` demand one, a model is
        derived from the backend's measured energy (see
        :meth:`resolved_power`).
    carbon:
        Optional :class:`~repro.serve.carbon.CarbonIntensity` (or its spec
        string, e.g. ``"diurnal"``): grid carbon intensity over simulation
        time.  The report then carries ``carbon_gco2 = ∫ power × intensity``
        and carbon-aware admission/autoscaling read the trace.
    power_cap_w:
        Optional cluster-wide watt budget: a free replica is not dispatched
        when starting its batch would push total draw above the cap (the
        work waits, or is shed by the usual admission rules).

    Any of ``autoscaler``/``faults``/``admission``/``power``/``carbon``/
    ``power_cap_w`` makes the cluster *dynamic*: the one event loop then
    runs its control plane (still pinned bit-identical to
    :func:`repro.serve.reference.reference_serve`) and the report gains a
    replica-count timeline, ``replica_seconds`` and lifecycle event counts
    (plus per-replica energy and carbon when power is modelled).  A static
    report carries none of these.
    """

    workloads: Sequence[Workload]
    backend: str = "flowgnn"
    num_replicas: int = 1
    policy: Union[str, DispatchPolicy] = "round_robin"
    max_batch_size: int = 1
    batch_timeout_s: float = 0.0
    queue_capacity: Optional[int] = None
    measurement_cache: Optional[MeasurementCache] = None
    autoscaler: Union[str, Autoscaler, None] = None
    faults: Union[str, FaultSchedule, None] = None
    admission: Union[str, AdmissionControl, None] = None
    power: Union[str, PowerModel, None] = None
    carbon: Union[str, CarbonIntensity, None] = None
    power_cap_w: Optional[float] = None
    services: Dict[str, TenantService] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.workloads = list(self.workloads)
        if not self.workloads:
            raise ValueError("Cluster needs at least one workload")
        names = [w.tenant for w in self.workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique; got {names}")
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        finite_nonnegative(self.batch_timeout_s, "batch_timeout_s")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None for unbounded)")
        if isinstance(self.autoscaler, str):
            self.autoscaler = parse_autoscaler(self.autoscaler)
        if isinstance(self.faults, str):
            self.faults = FaultSchedule.parse(self.faults, num_replicas=self.num_replicas)
        if isinstance(self.admission, str):
            self.admission = parse_admission(self.admission)
        if isinstance(self.power, str):
            self.power = PowerModel.parse(self.power)
        if isinstance(self.carbon, str):
            self.carbon = CarbonIntensity.parse(self.carbon)
        if self.power_cap_w is not None:
            finite_positive(self.power_cap_w, "power_cap_w")
        if isinstance(self.policy, str):
            self.policy = get_policy(self.policy)
        backend_instance = get_backend(self.backend)
        self.backend = backend_instance.name
        self.services = {
            w.tenant: TenantService(w, backend_instance, cache=self.measurement_cache)
            for w in self.workloads
        }

    def with_replicas(
        self, num_replicas: int, policy: Union[str, DispatchPolicy, None] = None
    ) -> "Cluster":
        """A resized/re-policied view sharing the measured tenant services.

        Capacity planning sweeps replica counts; re-measuring the backend per
        point would dominate the sweep, so the clone reuses this cluster's
        :class:`TenantService` objects (replicas are identical hardware).
        """
        return self.with_options(num_replicas=num_replicas, policy=policy)

    def with_options(
        self,
        num_replicas: Optional[int] = None,
        policy: Union[str, DispatchPolicy, None] = None,
        max_batch_size: Optional[int] = None,
        batch_timeout_s: Optional[float] = None,
        queue_capacity: Union[int, None, object] = ...,
        autoscaler: Union[str, Autoscaler, None, object] = ...,
        faults: Union[str, FaultSchedule, None, object] = ...,
        admission: Union[str, AdmissionControl, None, object] = ...,
        power: Union[str, PowerModel, None, object] = ...,
        carbon: Union[str, CarbonIntensity, None, object] = ...,
        power_cap_w: Union[float, None, object] = ...,
    ) -> "Cluster":
        """A re-configured view of this cluster sharing its measured services.

        Any combination of pool size, dispatch policy, batching knobs,
        queue capacity and the dynamic-cluster knobs (autoscaler, fault
        schedule, adaptive admission) can be overridden; everything else
        (tenants, backend, measured :class:`TenantService` profiles) is
        shared with ``self``.  This is the primitive the serving-scenario
        sweep engine builds every grid point from without re-measuring.
        ``queue_capacity``/``autoscaler``/``faults``/``admission``/
        ``power``/``carbon``/``power_cap_w`` use ``...`` as their "keep
        current" default because ``None`` means unbounded/disabled.
        """
        clone = Cluster.__new__(Cluster)
        clone.__dict__.update(self.__dict__)
        if num_replicas is not None:
            if num_replicas < 1:
                raise ValueError("num_replicas must be >= 1")
            clone.num_replicas = int(num_replicas)
        if policy is not None:
            clone.policy = get_policy(policy) if isinstance(policy, str) else policy
        if max_batch_size is not None:
            if max_batch_size < 1:
                raise ValueError("max_batch_size must be >= 1")
            clone.max_batch_size = int(max_batch_size)
        if batch_timeout_s is not None:
            finite_nonnegative(batch_timeout_s, "batch_timeout_s")
            clone.batch_timeout_s = float(batch_timeout_s)
        if queue_capacity is not ...:
            if queue_capacity is not None and queue_capacity < 1:
                raise ValueError("queue_capacity must be >= 1 (or None for unbounded)")
            clone.queue_capacity = queue_capacity
        if autoscaler is not ...:
            clone.autoscaler = (
                parse_autoscaler(autoscaler) if isinstance(autoscaler, str) else autoscaler
            )
        if faults is not ...:
            clone.faults = (
                FaultSchedule.parse(faults, num_replicas=clone.num_replicas)
                if isinstance(faults, str)
                else faults
            )
        if admission is not ...:
            clone.admission = (
                parse_admission(admission) if isinstance(admission, str) else admission
            )
        if power is not ...:
            clone.power = PowerModel.parse(power) if isinstance(power, str) else power
        if carbon is not ...:
            clone.carbon = (
                CarbonIntensity.parse(carbon) if isinstance(carbon, str) else carbon
            )
        if power_cap_w is not ...:
            if power_cap_w is not None:
                finite_positive(power_cap_w, "power_cap_w")
            clone.power_cap_w = power_cap_w
        return clone

    @property
    def dynamic(self) -> bool:
        """Whether simulation must run the dynamic (lifecycle-aware) loop."""
        return (
            self.autoscaler is not None
            or self.faults is not None
            or self.admission is not None
            or self.power is not None
            or self.carbon is not None
            or self.power_cap_w is not None
        )

    def resolved_power(self) -> Optional[PowerModel]:
        """The power model in force, deriving one from measurements if needed.

        Explicit models win; otherwise, when carbon accounting or a power
        cap demands one, the busy draw is the backend's measured joules over
        measured service seconds across all tenants (the same per-request
        energy the report already accounts), with idle and provisioning
        draws as the standard fractions.  ``None`` when power is simply not
        being modelled.
        """
        if isinstance(self.power, PowerModel):
            return self.power
        if self.carbon is None and self.power_cap_w is None:
            return None
        energy = 0.0
        busy = 0.0
        for service in self.services.values():
            base = service.base_batch_size
            energy += float(service.measurement(base).energies_j.sum())
            busy += float(service.measurement(base).latencies_s.sum())
        if busy <= 0.0:
            return PowerModel.from_busy(0.0)
        return PowerModel.from_energy(energy, busy)

    def mean_service_s(self) -> float:
        """Mean batch-1 service time across tenants (capacity heuristics)."""
        means = [service.mean_service_s() for service in self.services.values()]
        return float(np.mean(means)) if means else 0.0

    # -- simulation -----------------------------------------------------------
    def serve(
        self,
        requests: Iterable[ServingRequest],
        duration_s: Optional[float] = None,
        mode: str = "exact",
    ) -> ServingReport:
        """Run the event-driven simulation over ``requests``.

        ``duration_s`` only stretches the utilisation horizon (e.g. to the
        load generator's configured duration); every submitted request is
        served to completion regardless.

        ``mode`` selects the sink of the one event loop (:meth:`_serve_loop`).
        ``"exact"`` (the default and the oracle) sorts ``requests`` and
        keeps each completion as a row of per-request columns; ``"sketch"``
        folds every completion into O(tenants + replicas) online
        accumulators — same loop, same floats for counts, drops and
        utilisation, percentiles read off a log-spaced
        :class:`~repro.serve.sketches.StreamingHistogram` — and consumes
        ``requests`` as a stream that must already be sorted by
        ``(arrival_s, tenant_index, index)`` (what
        :meth:`LoadGenerator.iter_requests` yields; unsorted
        input raises ``ValueError``), never holding more than the queued
        backlog in memory.  For sketch mode straight from a generator —
        including the vectorised FIFO fast path — see :meth:`serve_stream`.

        The dispatcher keeps the pending requests in policy-ordered heaps —
        one *lane* per replica for pinned requests plus one shared lane,
        each holding one heap per tenant — instead of re-sorting the whole
        queue at every event like the reference implementation
        (:func:`repro.serve.reference.reference_serve`).  Without dynamic
        batching a dispatch pops the first tenant head, O(tenants + log n);
        with batching the selection walks the tenants in head order, decides
        from each one's queued count and pops only the batch it dispatches,
        O(tenants + batch log n).  A decision is paid for only when its
        answer can differ from the last one: a free replica with both lanes
        empty is skipped in O(1), and one whose last selection released
        nothing is not re-decided until one of its two lanes changes or the
        release time that selection computed arrives.  The two are
        bit-identical on static and dynamic clusters alike; the contract
        tests in ``tests/test_serve.py`` hold them together.
        """
        if mode not in ("exact", "sketch"):
            raise ValueError(f"mode must be 'exact' or 'sketch', got {mode!r}")
        if mode == "exact":
            requests = sorted(requests, key=REQUEST_ORDER)
            _reject_infinite_arrivals(requests)
        return self._serve_loop(iter(requests), duration_s, mode)

    def serve_stream(
        self,
        generator: "LoadGenerator",
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
        mode: str = "sketch",
    ) -> ServingReport:
        """Serve a :class:`LoadGenerator`'s stream without materialising it.

        In sketch mode the request sequence is consumed lazily
        (:meth:`LoadGenerator.iter_requests`), so a million-request trace
        costs O(tenants x chunk + backlog) memory end to end.  When the
        configuration permits — ``round_robin`` dispatch, no batching, an
        unbounded queue — the simulation runs the vectorised FIFO fast path
        over :meth:`LoadGenerator.iter_request_blocks` instead of the scalar
        event loop; the two reports differ only in the summation order of
        the service, latency and energy totals (counts, drops and
        utilisation are bit-identical to the exact oracle, percentiles
        within the sketch tolerance).  Otherwise the lazy stream goes
        through the event loop exactly as ``serve(generator.iter_requests(
        ...), mode="sketch")`` would.  ``mode="exact"`` materialises the
        sequence and runs the array-backed oracle path.
        """
        if mode not in ("exact", "sketch"):
            raise ValueError(f"mode must be 'exact' or 'sketch', got {mode!r}")
        if mode == "exact":
            return self.serve(
                generator.generate(duration_s=duration_s, num_requests=num_requests),
                duration_s=duration_s,
            )
        for workload in generator.workloads:
            if workload.tenant not in self.services:
                raise ValueError(
                    f"load generator tenant {workload.tenant!r} unknown to cluster"
                )
        if self._fast_path_eligible():
            return self._serve_stream_fast(generator, duration_s, num_requests)
        return self._serve_loop(
            generator.iter_requests(duration_s=duration_s, num_requests=num_requests),
            duration_s,
            "sketch",
        )

    def _fast_path_eligible(self) -> bool:
        """FIFO-lane vectorisation is valid only when dispatch is pure
        round-robin pinning (not a subclass overriding ``assign``), batches
        are single requests (no timers, measurement at the declared batch
        size), admission never drops (unbounded queue) and the replica set
        is static (no autoscaler, faults or adaptive admission)."""
        return (
            type(self.policy) is RoundRobinPolicy
            and self.max_batch_size == 1
            and self.queue_capacity is None
            and not self.dynamic
        )

    def _serve_loop(
        self,
        request_iter: Iterable[ServingRequest],
        duration_s: Optional[float],
        mode: str,
    ) -> ServingReport:
        """The event loop every scalar simulation runs through.

        Arrivals are pulled from ``request_iter`` (sorted by ``(arrival_s,
        tenant_index, index)``) one ahead of the time-ordered event heap, so
        the heap holds at most one future arrival.  ``mode`` picks the sink,
        which takes each dispatched batch whole: exact mode keeps every
        completion as a row of per-request columns and a queue sample per
        instant, sketch mode folds completions into a :class:`_SketchSink`.
        ``items`` holds only requests not yet dispatched, dropped or shed
        (``_dispatch`` retires a batch's items as it starts it), so in
        sketch mode memory is the queued backlog, not the request count.

        A static cluster is this loop with no control plane.  A dynamic one
        adds events to the same heap: ``_FAIL``/``_RECOVER`` from the fault
        schedule, ``_SCALE`` for autoscaler ticks, provisioning completions,
        drain retirements and carbon-hold releases.  Replicas carry
        lifecycle states (provisioning -> active -> draining -> dead, plus
        degraded service-time factors), the dispatch policy sees the
        dispatchable subset through ``state.live``, and adaptive admission
        may shed arrivals before the hard queue bound.  Rented-replica time
        (what a deployment pays for) is integrated online so both modes
        report ``replica_seconds`` with identical float operations; exact
        mode keeps the full replica-count timeline, sketch mode folds it
        into a lossless integer histogram.  These dynamic-only inputs reach
        the report only when ``self.dynamic``, so a static report (and its
        JSON) carries none of them.

        Crash semantics: rows are emitted at dispatch time (and sketches
        cannot retract an observation), so a replica's in-flight batch
        completes even when the replica fails mid-batch — a ``fail`` kills
        the replica's future, not its present.  Queued requests pinned to it
        are re-routed through the policy.

        Exact mode is bit-identical to
        :func:`repro.serve.reference.reference_serve` (the full-sort scalar
        oracle), which the contract tests pin.
        """
        policy = self.policy
        policy.reset(self.num_replicas)
        autoscaler = self.autoscaler
        carbon_trace = self.carbon
        if autoscaler is not None:
            autoscaler.reset()
            autoscaler.bind_carbon(carbon_trace)
        admission = self.admission
        power_model = self.resolved_power()
        holding = (
            isinstance(admission, CarbonWaitingAdmission) and carbon_trace is not None
        )
        tenant_classes = {w.tenant: w.tenant_class for w in self.workloads}
        mean_service = self.mean_service_s()
        request_iter = iter(request_iter)
        exact = mode == "exact"

        num_initial = self.num_replicas
        state = _SimState(
            busy_until=[0.0] * num_initial,
            queued_work=[0.0] * num_initial,
        )
        states = [_ACTIVE] * num_initial
        factors = [1.0] * num_initial
        busy_time = [0.0] * num_initial
        lanes = _Lanes(num_initial)
        items: Dict[int, _QueueItem] = {}
        if exact:
            sink: Union[_ExactSink, _SketchSink] = _ExactSink()
            trace_times: List[float] = []
            trace_depths: List[int] = []
            timeline_times: List[float] = [0.0]
            timeline_counts: List[int] = [num_initial]
            replica_hist: Optional[StreamingHistogram] = None
        else:
            cap = num_initial
            if autoscaler is not None:
                cap = max(cap, autoscaler.max_replicas)
            sink = _SketchSink(self)
            replica_hist = StreamingHistogram.integers(cap)
            replica_hist.update(float(num_initial))
        scheduled_timers: set = set()
        events: List[Tuple[float, int, int]] = []
        # Control events carry an index into this list; creation order is the
        # deterministic tie-break among same-instant controls of one kind.
        controls: List[Tuple[str, int, float]] = []
        counts = _new_event_counts()

        rented = num_initial          # provisioning + active + draining
        rented_integral = 0.0         # integral of `rented` dt (cost accounting)
        last_change_s = 0.0
        last_scale_up_s = -math.inf
        arrivals_since = 0            # offered arrivals since the last tick
        completions_since = 0         # batch completions since the last tick
        next_seq = 0
        prev_key: Optional[Tuple[float, int, int]] = None

        # Power ledger: per-replica draw is piecewise constant between event
        # instants, so energy (and, against the carbon trace, gCO2) is an
        # exact segment sum — the same online-integral shape as the rented
        # timeline, with identical float operations in the oracle.
        watts: List[float] = []
        last_w_change: List[float] = []
        energy_acc: List[float] = []
        power_w = 0.0
        carbon_g = 0.0
        last_c_change = 0.0
        if power_model is not None:
            for _ in range(num_initial):
                watts.append(power_model.idle_w)
                last_w_change.append(0.0)
                energy_acc.append(0.0)
                power_w += power_model.idle_w

        def power_set(now: float, r: int, new_w: float) -> None:
            """Close replica ``r``'s power segment at ``now``, switch its draw."""
            nonlocal power_w, carbon_g, last_c_change
            if carbon_trace is not None:
                carbon_g += power_w * carbon_trace.integral_g_per_j(last_c_change, now)
                last_c_change = now
            energy_acc[r] += watts[r] * (now - last_w_change[r])
            last_w_change[r] = now
            power_w = power_w - watts[r] + new_w
            watts[r] = new_w

        def power_add(now: float, new_w: float) -> None:
            """Start a fresh replica's ledger at ``now`` drawing ``new_w``."""
            nonlocal power_w, carbon_g, last_c_change
            if carbon_trace is not None:
                carbon_g += power_w * carbon_trace.integral_g_per_j(last_c_change, now)
                last_c_change = now
            watts.append(new_w)
            last_w_change.append(now)
            energy_acc.append(0.0)
            power_w = power_w + new_w

        power_busy: Optional[Callable[[float, int], None]] = None
        power_gate: Optional[Callable[[float, int], bool]] = None
        if power_model is not None:

            def power_busy(now: float, r: int) -> None:
                power_set(now, r, power_model.busy_watts(factors[r]))

            if self.power_cap_w is not None:
                cap_w = self.power_cap_w

                def power_gate(now: float, r: int) -> bool:
                    if (
                        power_w - watts[r] + power_model.busy_watts(factors[r])
                        <= cap_w
                    ):
                        return False
                    # Over the cap: block only while some batch is in
                    # flight — its completion lowers the draw and re-runs
                    # dispatch.  With nothing in flight the draw can never
                    # drop again, so a cap below the pool's idle-plus-one-
                    # busy draw serialises work instead of wedging the
                    # simulation (and its autoscaler ticks) forever.
                    return any(t > now for t in state.busy_until)

        # Deferrable work held for a cleaner grid window: an EDD heap of
        # (absolute deadline, seq); each hold schedules its own release
        # control at min(deadline - headroom x service, next clean window).
        held: List[Tuple[float, int]] = []
        late_admissions = 0

        def release_held(now: float) -> None:
            """Queue every held request that is due or whose grid is clean."""
            nonlocal late_admissions
            clean = (
                carbon_trace.intensity_at(now) <= admission.carbon_threshold
            )
            kept: List[Tuple[float, int]] = []
            while held:
                deadline, seq = heapq.heappop(held)
                item = items[seq]
                due = admission.release_at_s(deadline, item.service_s)
                if clean or now >= due:
                    if (
                        self.queue_capacity is not None
                        and lanes.pending >= self.queue_capacity
                    ):
                        sink.on_drop(item.request)
                        del items[seq]
                    else:
                        item.replica = policy.assign(item, state)
                        if item.replica is not None:
                            state.queued_work[item.replica] += item.service_s
                        item.late = (now, 0, late_admissions)
                        late_admissions += 1
                        lanes.admit(item, policy.order_key(item) + (item.seq,))
                else:
                    kept.append((deadline, seq))
            for entry in kept:
                heapq.heappush(held, entry)

        def push_control(
            time_s: float, kind: int, action: str, replica: int, factor: float = 1.0
        ) -> None:
            heapq.heappush(events, (time_s, kind, len(controls)))
            controls.append((action, replica, factor))

        def timeline(now: float, delta: int) -> None:
            """Account a rented-count change (same float ops as the oracle)."""
            nonlocal rented, rented_integral, last_change_s
            rented_integral += rented * (now - last_change_s)
            last_change_s = now
            rented += delta
            if exact:
                timeline_times.append(now)
                timeline_counts.append(rented)
            else:
                replica_hist.update(float(rented))

        def reroute(replica: int) -> None:
            """Hand a dead/draining replica's queued items back to the policy."""
            for key, item in lanes.drain(replica):
                state.queued_work[replica] -= item.service_s
                item.replica = policy.assign(item, state)
                if item.replica is not None:
                    state.queued_work[item.replica] += item.service_s
                lanes.admit(item, key)

        def add_replicas(now: float, count: int) -> None:
            nonlocal last_scale_up_s
            for _ in range(count):
                rid = len(states)
                states.append(_PROVISIONING)
                factors.append(1.0)
                state.busy_until.append(0.0)
                state.queued_work.append(0.0)
                busy_time.append(0.0)
                lanes.add_replica()
                if power_model is not None:
                    power_add(now, power_model.provisioning_w)
                push_control(
                    now + autoscaler.provision_delay_s, _SCALE, "provision", rid
                )
            policy.rebind(len(states))
            timeline(now, count)
            counts["scale_up_events"] += 1
            counts["replicas_added"] += count
            last_scale_up_s = now

        def remove_replicas(now: float, count: int) -> None:
            # Cancel still-provisioning replicas first (newest first), then
            # drain active ones (highest id first): the cheapest capacity to
            # give back is capacity not yet delivering.
            victims = sorted(
                (r for r in range(len(states)) if states[r] == _PROVISIONING),
                reverse=True,
            )[:count]
            remaining = count - len(victims)
            if remaining:
                victims.extend(sorted(state.live, reverse=True)[:remaining])
            for r in victims:
                if states[r] == _PROVISIONING:
                    states[r] = _DEAD
                    if power_model is not None:
                        power_set(now, r, 0.0)
                    timeline(now, -1)
                else:
                    states[r] = _DRAINING
                    state.live.remove(r)
                    reroute(r)
                    drain_end = (
                        state.busy_until[r] if state.busy_until[r] > now else now
                    )
                    push_control(drain_end, _SCALE, "retire", r)
            counts["scale_down_events"] += 1
            counts["replicas_removed"] += len(victims)

        def handle_control(now: float, action: str, replica: int, factor: float) -> None:
            nonlocal arrivals_since, completions_since
            if action == "tick":
                active = len(state.live)
                provisioning = sum(1 for s in states if s == _PROVISIONING)
                busy = sum(1 for r in state.live if state.busy_until[r] > now)
                metrics = AutoscalerMetrics(
                    now_s=now,
                    queue_depth=lanes.pending,
                    active_replicas=active,
                    provisioning_replicas=provisioning,
                    busy_replicas=busy,
                    arrivals_since_last=arrivals_since,
                    batch_completions_since_last=completions_since,
                    interval_s=autoscaler.interval_s,
                    mean_service_s=mean_service,
                )
                arrivals_since = 0
                completions_since = 0
                desired = int(autoscaler.desired_replicas(metrics))
                desired = max(
                    autoscaler.min_replicas, min(autoscaler.max_replicas, desired)
                )
                target = active + provisioning
                if desired > target:
                    add_replicas(now, desired - target)
                elif (
                    desired < target
                    and now - last_scale_up_s >= autoscaler.scale_down_hysteresis_s
                ):
                    remove_replicas(now, target - desired)
                # Keep ticking while there is anything left to react to;
                # min_replicas >= 1 guarantees a scale-up whenever the pool
                # has emptied with work still queued, so progress is assured.
                if events or lanes.pending:
                    push_control(now + autoscaler.interval_s, _SCALE, "tick", -1)
            elif action == "provision":
                if states[replica] == _PROVISIONING:
                    states[replica] = _ACTIVE
                    if power_model is not None:
                        power_set(now, replica, power_model.idle_w)
                    insort(state.live, replica)
            elif action == "retire":
                if states[replica] == _DRAINING:
                    states[replica] = _DEAD
                    if power_model is not None:
                        power_set(now, replica, 0.0)
                    timeline(now, -1)
            elif action == "fail":
                if replica < len(states) and states[replica] in (_PROVISIONING, _ACTIVE):
                    was_active = states[replica] == _ACTIVE
                    states[replica] = _DEAD
                    if was_active:
                        state.live.remove(replica)
                        reroute(replica)
                    # A failed replica draws nothing from the fail instant,
                    # even mid-batch (the batch's rows were already
                    # emitted at dispatch; its silicon is simply off).
                    if power_model is not None:
                        power_set(now, replica, 0.0)
                    timeline(now, -1)
                    counts["failures"] += 1
            elif action == "recover":
                if replica < len(states) and states[replica] == _DEAD:
                    states[replica] = _ACTIVE
                    factors[replica] = 1.0
                    if power_model is not None:
                        power_set(now, replica, power_model.idle_w)
                    insort(state.live, replica)
                    timeline(now, 1)
                    counts["recoveries"] += 1
            elif action == "degrade":
                if replica < len(states) and states[replica] == _ACTIVE:
                    factors[replica] = factor
                    counts["degradations"] += 1
            elif action == "restore":
                if (
                    replica < len(states)
                    and states[replica] == _ACTIVE
                    and factors[replica] != 1.0
                ):
                    factors[replica] = 1.0
                    counts["restorations"] += 1
            elif action == "release":
                # Any release control drains the whole held heap of whatever
                # is due or clean — a single clean-window edge releases
                # every waiting request at once, in EDD order.
                if held:
                    release_held(now)

        # Each tenant's service times at its declared batch size, by graph.
        base_latencies = {t: s.profile(s.base_batch_size)[1] for t, s in self.services.items()}

        def pull() -> None:
            """Admit the next request of the stream into the event heap."""
            nonlocal next_seq, prev_key
            request = next(request_iter, None)
            if request is None:
                return
            latencies = base_latencies.get(request.tenant)
            if latencies is None:
                raise ValueError(f"request for unknown tenant {request.tenant!r}")
            key = REQUEST_ORDER(request)
            if prev_key is not None and key < prev_key:
                raise ValueError(
                    "sketch-mode serve requires requests sorted by "
                    "(arrival_s, tenant_index, index); use "
                    "LoadGenerator.iter_requests or sort the sequence"
                )
            prev_key = key
            items[next_seq] = _QueueItem(request, next_seq, latencies[request.graph_index])
            heapq.heappush(events, (request.arrival_s, _ARRIVAL, next_seq))
            next_seq += 1

        if self.faults is not None:
            for fault in self.faults.events:
                kind = _FAIL if fault.action in ("fail", "degrade") else _RECOVER
                push_control(fault.time_s, kind, fault.action, fault.replica, fault.factor)
        if autoscaler is not None:
            push_control(autoscaler.interval_s, _SCALE, "tick", -1)
        pull()
        while events:
            now = events[0][0]
            if now != now:
                # A NaN instant drains no event (NaN == NaN is false), so the
                # loop would dispatch at it forever.
                raise ValueError("an event time is NaN; arrival and control times must be numbers")
            state.now = now
            admitting = False
            # Drain every event at this instant before dispatching, so a
            # policy sees simultaneous arrivals together (e.g. EDF must pick
            # the tightest deadline of a burst, not whichever the heap pops
            # first).  Completions sort first within the instant, freeing
            # replicas for the new work.
            while events and events[0][0] == now:
                _, kind, payload = heapq.heappop(events)
                if kind == _ARRIVAL:
                    admitting = True
                    arrivals_since += 1
                    item = items[payload]
                    # Keep exactly one future arrival in the heap: if the
                    # next request shares this timestamp it joins this
                    # instant's drain.
                    pull()
                    held_now = False
                    if (
                        holding
                        and tenant_classes[item.request.tenant] == "deferrable"
                        and carbon_trace.intensity_at(now) > admission.carbon_threshold
                    ):
                        deadline = item.request.absolute_deadline_s
                        due = admission.release_at_s(deadline, item.service_s)
                        next_clean = carbon_trace.next_below_s(
                            admission.carbon_threshold, now
                        )
                        release_at = due if due < next_clean else next_clean
                        if now < release_at < math.inf:
                            # Held: still submitted (the sketch samples its
                            # queue depth now, in arrival order, exactly as
                            # the exact path's formula does), queued later.
                            held_now = True
                            sink.on_admit(item.request)
                            heapq.heappush(held, (deadline, item.seq))
                            push_control(release_at, _SCALE, "release", item.seq)
                    if held_now:
                        pass
                    elif admission is not None and admission.should_shed(
                        item, lanes.pending, state
                    ):
                        sink.on_shed(item.request)
                        del items[item.seq]
                    elif (
                        self.queue_capacity is not None
                        and lanes.pending >= self.queue_capacity
                    ):
                        sink.on_drop(item.request)
                        del items[item.seq]
                    else:
                        item.replica = policy.assign(item, state)
                        if item.replica is not None:
                            state.queued_work[item.replica] += item.service_s
                        lanes.admit(item, policy.order_key(item) + (item.seq,))
                        sink.on_admit(item.request)
                elif kind == _COMPLETION:
                    completions_since += 1
                    if power_model is not None:
                        power_set(
                            now,
                            payload,
                            power_model.idle_w
                            if states[payload] in (_ACTIVE, _DRAINING)
                            else 0.0,
                        )
                elif kind == _TIMER:
                    # Wakes the dispatcher for a held batch.  A batch that
                    # stays held releases after ``now``, so this time is
                    # never requested again.
                    scheduled_timers.discard(now)
                else:
                    action, target, factor = controls[payload]
                    handle_control(now, action, target, factor)
                    if action == "release":
                        admitting = True  # held work enters the lanes
            # Sample the queue at its peak — after admissions, before
            # dispatch drains it — so max_queue_depth is consistent with the
            # drop count when a bounded queue fills.  Sketch mode samples
            # only instants that admit work (arrivals and carbon-hold
            # releases): depth grows only at admissions, so the maximum is
            # the same while the histogram stays small.
            if exact:
                trace_times.append(now)
                trace_depths.append(lanes.pending)
            elif admitting:
                sink.on_instant_sample(lanes.pending)
            self._dispatch(
                now, state, lanes, busy_time, sink, events, scheduled_timers, factors, power_gate, power_busy, items
            )

        if lanes.pending:
            # Unserviceable backlog: every replica is gone and nothing on the
            # heap will revive one (impossible with an autoscaler, whose
            # min_replicas >= 1 keeps ticking while work is queued).  Count
            # the leftovers as shed so conservation still holds.
            for item in lanes.drain_all():
                sink.on_shed(items.pop(item.seq).request)

        power_state = None
        if power_model is not None:
            power_state = (
                energy_acc,
                watts,
                last_w_change,
                power_w,
                carbon_g,
                last_c_change,
                carbon_trace,
            )
        # The replica timeline, replica-seconds and lifecycle counts are
        # dynamic-only report fields: a static report leaves them unset, so
        # its JSON never gains those keys.
        dynamic_fields: Dict[str, object] = {}
        if self.dynamic:
            dynamic_fields["replica_seconds_state"] = (rented_integral, last_change_s, rented)
            dynamic_fields["event_counts"] = counts
            if exact:
                dynamic_fields["replica_count_times_s"] = np.array(timeline_times, dtype=np.float64)
                dynamic_fields["replica_count_trace"] = np.array(timeline_counts, dtype=np.int64)
            else:
                dynamic_fields["replica_count_hist"] = replica_hist
        assert not items, "event loop leaked queue items"
        if exact:
            return assemble_report(
                cluster=self,
                columns=sink.columns,
                dropped=sink.dropped,
                busy_time=busy_time,
                batch_sizes=sink.batch_sizes,
                trace_times=np.array(trace_times, dtype=np.float64),
                trace_depths=np.array(trace_depths, dtype=np.int64),
                duration_s=duration_s,
                shed=sink.shed,
                power_state=power_state,
                **dynamic_fields,
            )
        sink.flush()
        return assemble_sketch_report(
            cluster=self,
            sketches=sink.sketches,
            dropped_by_tenant=sink.dropped_by_tenant,
            busy_time=busy_time,
            batch_size_hist=sink.batch_hist,
            queue_depth_hist=sink.queue_hist,
            max_completion_s=sink.max_completion_s,
            max_dropped_arrival_s=sink.max_dropped_arrival_s,
            duration_s=duration_s,
            shed_by_tenant=sink.shed_by_tenant,
            max_shed_arrival_s=sink.max_shed_arrival_s,
            power_state=power_state,
            **dynamic_fields,
        )

    def _serve_stream_fast(
        self,
        generator: "LoadGenerator",
        duration_s: Optional[float],
        num_requests: Optional[int],
    ) -> ServingReport:
        """Vectorised FIFO fast path over merged request blocks.

        Under round-robin pinning with no batching and no admission control,
        the event loop collapses to per-replica FIFO recurrences: request
        ``k`` (global arrival order) runs on replica ``k % R`` and starts at
        ``max(arrival, previous finish)``.  :func:`_fifo_finishes` folds a
        block's recurrences a busy period at a time, verifies every row and
        keeps the per-row loop only as a bounded fallback, so every start
        and finish is the event loop's float; busy time is each replica's
        sequential sum of ``finish - start``, so utilisation is
        bit-identical to the oracle.

        A block spans one or more merge windows, and every step below runs
        once per block, so a block of many small windows costs what one
        window of its size costs.  Each block is grouped by tenant once (a
        stable ``argsort`` of a narrow copy of the tenant ids, which numpy
        radix-sorts), and :meth:`LatencySketch.observe_groups` folds every
        tenant's contiguous rows into its sketch.  The service, latency and
        energy totals add one ``.sum()`` per (window, tenant) segment, in
        window order, so they do not depend on how windows are grouped into
        blocks; everything else is order-free.

        Queue depths replicate the exact trace's definition.  Cluster level:
        depth after the admissions of arrival instant ``t`` is
        ``#{arrivals <= t} - #{starts < t}``, evaluated at the last arrival
        of each distinct timestamp.  Per tenant:
        ``i - #{tenant completions <= arrival_i}`` exactly as
        :func:`~repro.graph.queue_depths_at_arrivals`.  Completions and
        starts still pending against future arrivals are carried between
        blocks, so memory is O(tenants x chunk + backlog).
        """
        num_replicas = self.num_replicas
        workloads = list(generator.workloads)
        num_tenants = len(workloads)

        # Padded per-tenant service/energy lookup tables at the declared
        # batch size (what a batch-1 dispatch measures at).
        profiles = [self.services[w.tenant].base for w in workloads]
        width = max((measured.latencies_s.size for measured in profiles), default=1)
        lat_lut = np.zeros((num_tenants, width), dtype=np.float64)
        energy_lut = np.zeros((num_tenants, width), dtype=np.float64)
        for t, measured in enumerate(profiles):
            lat_lut[t, : measured.latencies_s.size] = measured.latencies_s
            energy_lut[t, : measured.energies_j.size] = measured.energies_j

        sink = _SketchSink(self)
        sketches = [sink.sketches[w.tenant] for w in workloads]
        tenant_dtype = np.min_scalar_type(num_tenants)
        busy_time = [0.0] * num_replicas
        prev_finish = [0.0] * num_replicas
        replica_offset = 0          # global round-robin counter (mod R)
        total_arrived = 0           # global arrivals so far (cluster depth)
        start_carry = np.zeros(0, dtype=np.float64)   # starts > last arrival
        starts_counted = 0          # starts already < past arrivals
        qd_carry: List[np.ndarray] = [np.zeros(0, dtype=np.float64) for _ in range(num_tenants)]
        qd_counted = [0] * num_tenants
        qd_arrived = [0] * num_tenants
        served_any = False

        for block in generator.iter_request_blocks(
            duration_s=duration_s, num_requests=num_requests
        ):
            n = len(block)
            if not n:
                continue
            served_any = True
            # A block can hold ~0.5M rows, so each block-sized temporary is
            # deleted as soon as it has been used.
            arrival = block.arrival_s
            tenant_idx = block.tenant_index
            service_s = lat_lut[tenant_idx, block.graph_index]

            # Per-replica FIFO queues, folded a busy period at a time (see
            # _fifo_finishes).  Replica r runs rows (r - replica_offset) % R,
            # then every R-th: in a (columns, R) grid filled in block order
            # from cell R + replica_offset, they are column r, under its
            # carried finish.  The grid's gaps arrive at -inf with no service.
            columns = 2 + (replica_offset + n - 1) // num_replicas
            cells = slice(num_replicas + replica_offset, num_replicas + replica_offset + n)
            grids = np.zeros((2, columns, num_replicas))
            grids[0] = -np.inf
            grids[0, 0] = prev_finish
            grids[0].reshape(-1)[cells] = arrival
            grids[1].reshape(-1)[cells] = service_s
            queue_arrival, queue_service = grids.transpose(0, 2, 1).copy()
            del grids
            finish = _fifo_finishes(queue_arrival, queue_service)
            del queue_arrival, queue_service
            prev_finish = finish[:, -1].tolist()
            # Each row starts at max(arrival, its predecessor's finish).
            before = finish[:, :-1].T.reshape(-1)[replica_offset : replica_offset + n]
            del finish
            starts = np.maximum(arrival, before)
            del before
            finishes = starts + service_s
            served = np.zeros((num_tenants, num_replicas), dtype=bool)
            for r in range(num_replicas):
                served[tenant_idx[(r - replica_offset) % num_replicas :: num_replicas], r] = True
            # Busy time: column r of the grid is replica r's total so far,
            # then its finish - start terms in order (gaps hold +0.0), so one
            # cumsum down the columns adds exactly what the event loop adds.
            grid = np.zeros((columns, num_replicas))
            grid[0] = busy_time
            np.subtract(finishes, starts, out=grid.reshape(-1)[cells])
            busy_time = np.cumsum(grid, axis=0)[-1].tolist()
            del grid
            replica_offset = (replica_offset + n) % num_replicas

            # Cluster queue depth at each distinct arrival instant.
            start_pool = np.concatenate([start_carry, starts])
            del starts
            start_pool.sort()
            before = start_pool.searchsorted(arrival, side="left")
            depths = (total_arrived - starts_counted + np.arange(1, n + 1)) - before
            last_of_instant = np.empty(n, dtype=bool)
            last_of_instant[-1] = True
            np.not_equal(arrival[1:], arrival[:-1], out=last_of_instant[:-1])
            sink.queue_hist.update_many(depths[last_of_instant].astype(np.float64))
            consumed = int(before[-1])
            del before, depths, last_of_instant
            starts_counted += consumed
            start_carry = start_pool[consumed:].copy()
            del start_pool
            total_arrived += n
            sink.batch_hist.update_many(np.ones(n))

            # Group the block by tenant: rows bounds[t]:bounds[t + 1] of each
            # column are tenant t's, in block order.
            order = np.argsort(tenant_idx.astype(tenant_dtype), kind="stable")
            bounds = np.zeros(num_tenants + 1, dtype=np.int64)
            np.cumsum(np.bincount(tenant_idx, minlength=num_tenants), out=bounds[1:])
            # A float-total segment starts at each tenant's first row and
            # wherever its rows cross into a later window.
            window_col = block.windows.searchsorted(order, side="right")
            opens = np.ones(n + 1, dtype=bool)
            np.not_equal(window_col[1:], window_col[:-1], out=opens[1:n])
            opens[bounds] = True
            segments = np.flatnonzero(opens[:n])
            del window_col, opens
            finish_col = finishes[order]
            del finishes
            arrival_col = arrival[order]
            # depth_i = i - #{completions <= arrival_i}; completions of this
            # block's own (and later) requests finish strictly after their
            # arrivals, so pooling them in is harmless.
            queue_col = np.empty(n, dtype=np.int64)
            edges = bounds.tolist()
            for t in range(num_tenants):
                lo, hi = edges[t], edges[t + 1]
                if lo == hi:
                    continue
                pool = np.concatenate([qd_carry[t], finish_col[lo:hi]])
                pool.sort()
                done = pool.searchsorted(arrival_col[lo:hi], side="right")
                base = qd_arrived[t] - qd_counted[t]
                queue_col[lo:hi] = np.arange(base, base + hi - lo) - done
                consumed = int(done[-1])
                qd_counted[t] += consumed
                qd_carry[t] = pool[consumed:].copy()
                qd_arrived[t] += hi - lo
            latency_col = np.subtract(finish_col, arrival_col, out=finish_col)
            del arrival_col
            service_col = service_s[order]
            del service_s
            energy_col = energy_lut[tenant_idx, block.graph_index][order]
            del order
            LatencySketch.observe_groups(
                sketches, bounds, latency_col, service_col, energy_col, served, queue_col,
                segments,
            )
            del latency_col, finish_col, service_col, energy_col, queue_col

        if served_any:
            sink.max_completion_s = max(prev_finish)
        return assemble_sketch_report(
            cluster=self,
            sketches=sink.sketches,
            dropped_by_tenant=sink.dropped_by_tenant,
            busy_time=busy_time,
            batch_size_hist=sink.batch_hist,
            queue_depth_hist=sink.queue_hist,
            max_completion_s=sink.max_completion_s,
            max_dropped_arrival_s=sink.max_dropped_arrival_s,
            duration_s=duration_s,
        )

    # -- dispatch -------------------------------------------------------------
    def _dispatch(
        self,
        now: float,
        state: _SimState,
        lanes: "_Lanes",
        busy_time: List[float],
        sink: Union[_ExactSink, _SketchSink],
        events: List[Tuple[float, int, int]],
        scheduled_timers: set,
        factors: List[float],
        power_gate: Optional[Callable[[float, int], bool]],
        power_busy: Optional[Callable[[float, int], None]],
        items: Dict[int, _QueueItem],
    ) -> None:
        """Start work on every dispatchable replica that is free at ``now``.

        Walks ``state.live`` (the whole pool on a static cluster).
        ``factors`` holds each replica's service-time multiplier: 1.0 unless
        degraded, and ``x * 1.0 == x``, so healthy replicas keep their
        floats.  ``power_gate`` skips a replica whose dispatch would push
        cluster draw over the watt cap; ``power_busy`` charges a dispatched
        replica's busy draw into the power ledger.  Both are None when
        power is not modelled.  A dispatched item leaves ``items``.

        A free replica whose merged view is empty (no head in its own lane
        nor in the shared lane) is skipped in O(1).  When batch selection
        releases nothing, ``lanes.waits[replica]`` records the release time
        it returned and both lanes' versions.  Until that time, while
        neither version has moved, the lanes hold exactly what they held,
        so the selection would return the same ``(None, release_at)`` and
        its timer is already on the heap: the replica is skipped.  The
        batch-1 path never records.
        """
        for replica in state.live:
            if state.busy_until[replica] > now:
                continue
            own = lanes.per_replica[replica]
            shared = lanes.shared
            if not own.heads and not shared.heads:
                continue  # nothing this replica may run
            if power_gate is not None and power_gate(now, replica):
                continue
            if self.max_batch_size == 1:
                # No batching: the head of the merged lanes is the batch,
                # unconditionally releasable.
                batch: Optional[List[_QueueItem]] = [lanes.pop_first(replica)]
            else:
                wait = lanes.waits[replica]
                if (
                    wait is not None
                    and now < wait[0]
                    and wait[1] == own.version
                    and wait[2] == shared.version
                ):
                    continue  # still (None, wait[0]); its timer is queued
                batch, release_at = self._select_batch(lanes, replica, now)
                if batch is None:
                    lanes.waits[replica] = (release_at, own.version, shared.version)
                    if release_at not in scheduled_timers:
                        scheduled_timers.add(release_at)
                        heapq.heappush(events, (release_at, _TIMER, replica))
                    continue
            for item in batch:
                if item.replica is not None:
                    state.queued_work[item.replica] -= item.service_s
                del items[item.seq]  # the sink keeps what it needs
            service = self.services[batch[0].request.tenant]
            # With dynamic batching enabled the dispatch size governs the
            # measurement; otherwise the workload's declared batch size does
            # (e.g. "my requests come pre-batched 8 deep"), which is exactly
            # what run_stream assumes — the single-replica equivalence holds
            # at any declared batch size.
            _, latencies, energies = service.profile(
                len(batch) if self.max_batch_size > 1 else service.base_batch_size
            )
            graphs = [item.request.graph_index for item in batch]
            # A degraded replica stretches service time (energy is the work
            # done, which does not change).
            factor = factors[replica]
            service_each = [latencies[g] * factor for g in graphs]
            finish = now
            for service_s in service_each:
                finish = finish + service_s
            service_total = finish - now
            state.busy_until[replica] = finish
            busy_time[replica] += service_total
            if power_busy is not None:
                power_busy(now, replica)
            heapq.heappush(events, (finish, _COMPLETION, replica))
            sink.on_batch(
                batch, service_each, [energies[g] for g in graphs], now, finish, replica
            )

    def _select_batch(
        self, lanes: "_Lanes", replica: int, now: float
    ) -> Tuple[Optional[List[_QueueItem]], Optional[float]]:
        """The batch a free replica should start at ``now``, or when to retry.

        Walks the replica's tenants in first-appearance (policy) order, each
        owning the first ``max_batch_size`` of its requests, and the first
        tenant whose batch is *releasable* wins — so a held batch never
        blocks another tenant's ready work.  The queued count decides: a
        tenant with a full batch (or any batch, when the timeout is 0) wins
        outright; one with fewer queued wins once its oldest member has
        waited out the batching timeout.  Only the winning batch is popped,
        so a decision costs O(tenants + batch log n).  Returns
        ``(batch, None)`` or ``(None, earliest release time)`` exactly like
        the reference implementation's full-sort walk.

        Every release time a ``(None, ...)`` answer considers is later than
        ``now``.  A removal from a lane (a take, a drain) only lowers a
        tenant's queued count and raises its oldest arrival, so it never
        makes a batch releasable sooner — but it can postpone the earliest
        release, and the reference schedules a timer at the postponed time.
        :meth:`_dispatch` therefore re-decides after any change to either
        lane, not only after an admission.
        """
        max_batch = self.max_batch_size
        timeout = self.batch_timeout_s
        earliest: Optional[float] = None
        for tenant, queued in lanes.tenants(replica):
            if queued >= max_batch or timeout == 0.0:
                return lanes.take(replica, tenant, max_batch), None
            release = lanes.oldest_arrival(replica, tenant) + timeout
            if now >= release:
                return lanes.take(replica, tenant, queued), None
            if earliest is None or release < earliest:
                earliest = release
        return None, earliest


class _Lane:
    """One lane's pending requests: a policy-ordered heap per tenant.

    Entries are ``(key, item)`` with ``key = order_key + (seq,)``, unique,
    so entries compare by key alone.  ``heads`` is the sorted list of
    ``(head key, tenant)`` over the non-empty heaps, so walking it visits
    the lane's tenants in first-appearance (policy) order.  A tenant's heap
    stays in ``heaps`` once empty, sparing the dict churn on batch-1 runs.
    ``version`` counts the admissions, batch takes and drains so far: two
    equal versions mean the lane's contents did not change in between on a
    batching run (:meth:`_Lanes.pop_first`, the batch-1 path, leaves it
    alone; nothing reads it there).
    """

    __slots__ = ("heaps", "heads", "version")

    def __init__(self) -> None:
        self.heaps: Dict[str, List[Tuple[Tuple, _QueueItem]]] = {}
        self.heads: List[Tuple[Tuple, str]] = []
        self.version = 0

    def _unlink(self, tenant: str, heap: List[Tuple[Tuple, _QueueItem]]) -> None:
        """Drop the tenant's (non-empty) heap from ``heads``."""
        heads = self.heads
        if heads[0][1] == tenant:
            del heads[0]
        else:
            del heads[bisect_left(heads, (heap[0][0], tenant))]

    def drain(self) -> List[Tuple[Tuple, _QueueItem]]:
        """Remove and return every entry, in no particular order."""
        entries = [entry for heap in self.heaps.values() for entry in heap]
        self.version += 1
        self.heaps.clear()
        del self.heads[:]
        return entries


class _Lanes:
    """Pending requests in policy-ordered lanes: one per replica + shared.

    A pinned request lives in its replica's lane; unpinned requests share
    one lane every replica merges with its own.  Within a lane each tenant
    has its own heap (:class:`_Lane`), so batch selection reads a tenant's
    queued count off its heap and pops exactly the batch it dispatches.
    ``pending`` counts queued requests across all lanes (the
    admission-control bound and queue-depth trace read it); every method
    that adds or removes an entry keeps it current.  ``waits[r]`` is
    replica ``r``'s last batch decision that released nothing, as
    ``(release_at, own version, shared version)`` (see
    :meth:`Cluster._dispatch`); state of one run, sized by
    :meth:`add_replica` like the lanes.
    """

    __slots__ = ("shared", "per_replica", "pending", "waits")

    def __init__(self, num_replicas: int) -> None:
        self.shared = _Lane()
        self.per_replica = [_Lane() for _ in range(num_replicas)]
        self.pending = 0
        self.waits: List[Optional[Tuple[float, int, int]]] = [None] * num_replicas

    def add_replica(self) -> None:
        self.per_replica.append(_Lane())
        self.waits.append(None)

    def admit(self, item: _QueueItem, key: Tuple) -> None:
        lane = self.shared if item.replica is None else self.per_replica[item.replica]
        lane.version += 1
        self.pending += 1
        tenant = item.request.tenant
        heap = lane.heaps.get(tenant)
        if heap is None:
            heap = lane.heaps[tenant] = []
        elif heap:
            if heap[0][0] < key:  # not a new head: `heads` is unchanged
                heapq.heappush(heap, (key, item))
                return
            lane._unlink(tenant, heap)
        heapq.heappush(heap, (key, item))
        insort(lane.heads, (key, tenant))

    def pop_first(self, replica: int) -> _QueueItem:
        """Pop the policy-first request of the replica's (non-empty) merged
        view.

        That request is the first head of one of the two lanes, so the pop
        takes ``heads[0]`` without a search.
        """
        own = self.per_replica[replica]
        shared = self.shared
        if own.heads and (not shared.heads or own.heads[0] < shared.heads[0]):
            lane = own
        else:
            lane = shared
        self.pending -= 1
        heads = lane.heads
        tenant = heads.pop(0)[1]
        heap = lane.heaps[tenant]
        item = heapq.heappop(heap)[1]
        if heap:
            insort(heads, (heap[0][0], tenant))
        return item

    def tenants(self, replica: int) -> Iterator[Tuple[str, int]]:
        """``(tenant, queued)`` over the replica's merged view, each tenant
        once, in first-appearance order."""
        own = self.per_replica[replica]
        shared = self.shared
        if own.heads and shared.heads:
            seen = set()
            for _, tenant in heapq.merge(own.heads, shared.heads):
                if tenant not in seen:
                    seen.add(tenant)
                    yield tenant, len(own.heaps.get(tenant, ())) + len(
                        shared.heaps.get(tenant, ())
                    )
            return
        lane = own if own.heads else shared
        heaps = lane.heaps
        for _, tenant in lane.heads:
            yield tenant, len(heaps[tenant])

    def oldest_arrival(self, replica: int, tenant: str) -> float:
        """Earliest arrival among the tenant's requests the replica sees."""
        own = self.per_replica[replica].heaps.get(tenant)
        shared = self.shared.heaps.get(tenant)
        entries = own + shared if own and shared else own or shared
        return min([item.request.arrival_s for _, item in entries])

    def take(self, replica: int, tenant: str, limit: int) -> List[_QueueItem]:
        """Pop the tenant's first ``limit`` requests (fewer if it has fewer)
        from the replica's merged view, in policy order."""
        sources = []
        for lane in (self.per_replica[replica], self.shared):
            heap = lane.heaps.get(tenant)
            if heap:
                lane.version += 1
                lane._unlink(tenant, heap)
                sources.append((lane, heap))
        if len(sources) == 1:
            heap = sources[0][1]
            batch = [heapq.heappop(heap)[1] for _ in range(min(limit, len(heap)))]
        else:
            a, b = sources[0][1], sources[1][1]
            batch = []
            while len(batch) < limit and (a or b):
                source = a if a and (not b or a[0] < b[0]) else b
                batch.append(heapq.heappop(source)[1])
        for lane, heap in sources:
            if heap:
                insort(lane.heads, (heap[0][0], tenant))
        self.pending -= len(batch)
        return batch

    def drain(self, replica: int) -> List[Tuple[Tuple, _QueueItem]]:
        """Remove the replica's own lane, as ``(key, item)`` in the order
        the items were first queued, as the oracle's queue list holds them.

        A request is queued at its arrival, or at its carbon-hold release
        (``item.late``), and a release at an instant comes before that
        instant's arrivals (control events sort first); a re-route keeps
        the first place.
        """
        entries = self.per_replica[replica].drain()
        entries.sort(
            key=lambda entry: entry[1].late
            or (entry[1].request.arrival_s, 1, entry[1].seq)
        )
        self.pending -= len(entries)
        return entries

    def drain_all(self) -> List[_QueueItem]:
        """Remove every queued request, in seq order."""
        items = [
            item
            for lane in [self.shared] + self.per_replica
            for _, item in lane.drain()
        ]
        items.sort(key=lambda item: item.seq)
        self.pending = 0
        return items
