"""The naive serving loop, kept as the correctness baseline.

:func:`reference_serve` is the event-driven simulation written the simplest
way that works: one full policy-order sort of the queue per event instant,
linear ``list.remove`` on dispatch, linear scans for every control-plane
decision.  It is O(n^2 log n) on a deep queue and exists for the same reason
:func:`repro.dse.naive_sweep` does — so benchmarks and tests can assert the
optimised :meth:`Cluster.serve` is **bit-identical** (same
:class:`ServingReport`, record for record) on static and dynamic clusters
alike, including a 4,000-request queue that peaks above 1,000
(``tests/test_serve.py``).

Do not optimise this module: its value is that it is too simple to be
wrong.  It changes only when the serving semantics do, and then in the
same float expressions as :meth:`Cluster._serve_loop`.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .autoscale import AutoscalerMetrics, CarbonWaitingAdmission
from .arrivals import REQUEST_ORDER, ServingRequest
from .cluster import (
    _ACTIVE,
    _ARRIVAL,
    _COMPLETION,
    _DEAD,
    _DRAINING,
    _FAIL,
    _PROVISIONING,
    _RECOVER,
    _SCALE,
    _TIMER,
    _new_event_counts,
    _QueueItem,
    _reject_infinite_arrivals,
    _SimState,
)
from .report import RECORD_COLUMNS, ServingRecord, ServingReport, assemble_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Cluster

__all__ = ["reference_serve", "reference_serve_dynamic", "assert_reports_identical"]


def assert_reports_identical(candidate: ServingReport, reference: ServingReport) -> None:
    """Assert two serving reports are bit-identical, field by field.

    "Bit-identical" means exactly that: every record, every per-tenant
    latency/energy array, the utilisation vector, the queue-depth trace and
    the JSON serialisation must match with ``==`` / ``array_equal`` — no
    tolerances.  This is the contract the optimised dispatcher owes the
    reference implementation.
    """
    assert candidate.to_json() == reference.to_json()
    assert candidate.records == reference.records
    assert candidate.dropped_requests == reference.dropped_requests
    assert candidate.shed_requests == reference.shed_requests
    assert np.array_equal(
        candidate.per_replica_utilisation, reference.per_replica_utilisation
    )
    assert np.array_equal(candidate.batch_sizes, reference.batch_sizes)
    assert np.array_equal(candidate.queue_depth_times_s, reference.queue_depth_times_s)
    assert np.array_equal(candidate.queue_depth_trace, reference.queue_depth_trace)
    assert candidate.horizon_s == reference.horizon_s
    assert candidate.replica_seconds == reference.replica_seconds
    assert candidate.event_counts == reference.event_counts
    assert candidate.energy_j == reference.energy_j
    assert candidate.carbon_gco2 == reference.carbon_gco2
    if reference.replica_energy_j is None:
        assert candidate.replica_energy_j is None
    else:
        assert np.array_equal(
            candidate.replica_energy_j, reference.replica_energy_j
        )
    if reference.replica_count_trace is None:
        assert candidate.replica_count_trace is None
    else:
        assert np.array_equal(
            candidate.replica_count_times_s, reference.replica_count_times_s
        )
        assert np.array_equal(
            candidate.replica_count_trace, reference.replica_count_trace
        )
    assert set(candidate.tenants) == set(reference.tenants)
    for tenant, outcome in candidate.tenants.items():
        expected = reference.tenants[tenant]
        assert (
            outcome.submitted,
            outcome.completed,
            outcome.dropped,
            outcome.shed,
        ) == (
            expected.submitted,
            expected.completed,
            expected.dropped,
            expected.shed,
        )
        report, expected_report = outcome.report, expected.report
        assert np.array_equal(
            report.per_graph_latency_ms, expected_report.per_graph_latency_ms
        )
        assert np.array_equal(
            report.per_graph_energy_mj, expected_report.per_graph_energy_mj
        )
        assert np.array_equal(
            report.stream_statistics.per_graph_latency_s,
            expected_report.stream_statistics.per_graph_latency_s,
        )
        assert np.array_equal(
            report.stream_statistics.completion_times_s,
            expected_report.stream_statistics.completion_times_s,
        )
        assert np.array_equal(
            report.stream_statistics.queue_depth_trace,
            expected_report.stream_statistics.queue_depth_trace,
        )
        assert report.extras == expected_report.extras


def reference_serve(
    cluster: "Cluster",
    requests: Sequence[ServingRequest],
    duration_s: Optional[float] = None,
) -> ServingReport:
    """Run the full-sort scalar oracle on ``cluster``.

    Accepts the same arguments as :meth:`Cluster.serve` (exact mode) and
    must produce a bit-identical report.  It mirrors
    :meth:`Cluster._serve_loop` with naive data structures: a flat queue
    list re-sorted per instant instead of heap lanes, linear scans instead
    of incremental bookkeeping.  Every control-plane float expression — the
    rented-time integral, provisioning completion times, hysteresis
    comparisons, tick scheduling, the power/carbon ledger segments and
    carbon-hold release times — is written identically to the optimised
    loop.  A static cluster simply never schedules a control event, and
    its report carries no dynamic-only fields.
    """
    policy = cluster.policy
    policy.reset(cluster.num_replicas)
    autoscaler = cluster.autoscaler
    carbon_trace = cluster.carbon
    if autoscaler is not None:
        autoscaler.reset()
        autoscaler.bind_carbon(carbon_trace)
    admission = cluster.admission
    power_model = cluster.resolved_power()
    holding = (
        isinstance(admission, CarbonWaitingAdmission) and carbon_trace is not None
    )
    tenant_classes = {w.tenant: w.tenant_class for w in cluster.workloads}
    mean_service = cluster.mean_service_s()

    for request in requests:
        if request.tenant not in cluster.services:
            raise ValueError(f"request for unknown tenant {request.tenant!r}")
    ordered = sorted(requests, key=REQUEST_ORDER)
    _reject_infinite_arrivals(ordered)
    items = [
        _QueueItem(
            request=request,
            seq=seq,
            service_s=cluster.services[request.tenant].service_s(
                request.graph_index,
                batch_size=cluster.services[request.tenant].base_batch_size,
            ),
        )
        for seq, request in enumerate(ordered)
    ]

    num_initial = cluster.num_replicas
    state = _SimState(
        busy_until=[0.0] * num_initial,
        queued_work=[0.0] * num_initial,
    )
    states = [_ACTIVE] * num_initial
    factors = [1.0] * num_initial
    busy_time = [0.0] * num_initial
    queue: List[_QueueItem] = []
    records: List[ServingRecord] = []
    dropped: List[ServingRequest] = []
    shed: List[ServingRequest] = []
    batch_sizes: List[int] = []
    trace_times: List[float] = []
    trace_depths: List[int] = []
    timeline_times: List[float] = [0.0]
    timeline_counts: List[int] = [num_initial]
    scheduled_timers: set = set()
    events: List[Tuple[float, int, int]] = [
        (item.request.arrival_s, _ARRIVAL, item.seq) for item in items
    ]
    heapq.heapify(events)
    controls: List[Tuple[str, int, float]] = []
    counts = _new_event_counts()

    rented = num_initial
    rented_integral = 0.0
    last_change_s = 0.0
    last_scale_up_s = -math.inf
    arrivals_since = 0
    completions_since = 0

    # Power ledger — same segment-sum float expressions as the optimised
    # loop's `power_set` / `power_add`, in the same call order.
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
        nonlocal power_w, carbon_g, last_c_change
        if carbon_trace is not None:
            carbon_g += power_w * carbon_trace.integral_g_per_j(last_c_change, now)
            last_c_change = now
        energy_acc[r] += watts[r] * (now - last_w_change[r])
        last_w_change[r] = now
        power_w = power_w - watts[r] + new_w
        watts[r] = new_w

    def power_add(now: float, new_w: float) -> None:
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

        if cluster.power_cap_w is not None:
            cap_w = cluster.power_cap_w

            def power_gate(now: float, r: int) -> bool:
                if (
                    power_w - watts[r] + power_model.busy_watts(factors[r])
                    <= cap_w
                ):
                    return False
                # Same progress guarantee as the optimised gate: never
                # block when no batch is in flight anywhere.
                return any(t > now for t in state.busy_until)

    # Deferrable work held for a cleaner grid window (EDD heap, released in
    # the same pop order as the optimised loop so the queued_work float
    # additions and capacity checks match exactly).
    held: List[Tuple[float, int]] = []

    def release_held(now: float) -> None:
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
                    cluster.queue_capacity is not None
                    and len(queue) >= cluster.queue_capacity
                ):
                    dropped.append(item.request)
                else:
                    item.replica = policy.assign(item, state)
                    if item.replica is not None:
                        state.queued_work[item.replica] += item.service_s
                    queue.append(item)
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
        nonlocal rented, rented_integral, last_change_s
        rented_integral += rented * (now - last_change_s)
        last_change_s = now
        rented += delta
        timeline_times.append(now)
        timeline_counts.append(rented)

    def reroute(replica: int) -> None:
        # The queue list is in admission (seq) order, so this scan visits the
        # dead replica's items in the same order the optimised loop's
        # seq-sorted lane drain does.
        for item in queue:
            if item.replica != replica:
                continue
            state.queued_work[replica] -= item.service_s
            item.replica = policy.assign(item, state)
            if item.replica is not None:
                state.queued_work[item.replica] += item.service_s

    def add_replicas(now: float, count: int) -> None:
        nonlocal last_scale_up_s
        for _ in range(count):
            rid = len(states)
            states.append(_PROVISIONING)
            factors.append(1.0)
            state.busy_until.append(0.0)
            state.queued_work.append(0.0)
            busy_time.append(0.0)
            if power_model is not None:
                power_add(now, power_model.provisioning_w)
            push_control(now + autoscaler.provision_delay_s, _SCALE, "provision", rid)
        policy.rebind(len(states))
        timeline(now, count)
        counts["scale_up_events"] += 1
        counts["replicas_added"] += count
        last_scale_up_s = now

    def remove_replicas(now: float, count: int) -> None:
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
                drain_end = state.busy_until[r] if state.busy_until[r] > now else now
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
                queue_depth=len(queue),
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
            if events or queue:
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
            if held:
                release_held(now)

    if cluster.faults is not None:
        for fault in cluster.faults.events:
            kind = _FAIL if fault.action in ("fail", "degrade") else _RECOVER
            push_control(fault.time_s, kind, fault.action, fault.replica, fault.factor)
    if autoscaler is not None:
        push_control(autoscaler.interval_s, _SCALE, "tick", -1)

    while events:
        now = events[0][0]
        if now != now:
            # A NaN instant drains no event (NaN == NaN is false), so the
            # loop would dispatch at it forever.
            raise ValueError("an event time is NaN; arrival and control times must be numbers")
        state.now = now
        while events and events[0][0] == now:
            _, kind, payload = heapq.heappop(events)
            if kind == _ARRIVAL:
                arrivals_since += 1
                item = items[payload]
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
                        held_now = True
                        heapq.heappush(held, (deadline, item.seq))
                        push_control(release_at, _SCALE, "release", item.seq)
                if held_now:
                    pass
                elif admission is not None and admission.should_shed(
                    item, len(queue), state
                ):
                    shed.append(item.request)
                elif (
                    cluster.queue_capacity is not None
                    and len(queue) >= cluster.queue_capacity
                ):
                    dropped.append(item.request)
                else:
                    item.replica = policy.assign(item, state)
                    if item.replica is not None:
                        state.queued_work[item.replica] += item.service_s
                    queue.append(item)
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
                pass
            else:
                action, target, factor = controls[payload]
                handle_control(now, action, target, factor)
        trace_times.append(now)
        trace_depths.append(len(queue))
        _dispatch(
            cluster, now, state, factors, queue, busy_time, records, batch_sizes,
            events, scheduled_timers, power_gate, power_busy,
        )

    if queue:
        # All replicas gone forever: count the stranded backlog as shed so
        # conservation (submitted = completed + dropped + shed) holds.
        for item in sorted(queue, key=lambda item: item.seq):
            shed.append(item.request)
        del queue[:]

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
    # Dynamic-only report fields, exactly as the optimised loop gates them.
    dynamic_fields: Dict[str, object] = {}
    if cluster.dynamic:
        dynamic_fields = {
            "replica_count_times_s": np.array(timeline_times, dtype=np.float64),
            "replica_count_trace": np.array(timeline_counts, dtype=np.int64),
            "replica_seconds_state": (rented_integral, last_change_s, rented),
            "event_counts": counts,
        }
    return assemble_report(
        cluster=cluster,
        columns=[[getattr(record, name) for record in records] for name in RECORD_COLUMNS],
        dropped=dropped,
        busy_time=busy_time,
        batch_sizes=batch_sizes,
        trace_times=np.array(trace_times, dtype=np.float64),
        trace_depths=np.array(trace_depths, dtype=np.int64),
        duration_s=duration_s,
        shed=shed,
        power_state=power_state,
        **dynamic_fields,
    )


#: Alias for callers that import the oracle by its dynamic-cluster name
#: (``perfbench/workloads.py`` among them).
reference_serve_dynamic = reference_serve


def _dispatch(
    cluster: "Cluster",
    now: float,
    state: _SimState,
    factors: List[float],
    queue: List[_QueueItem],
    busy_time: List[float],
    records: List[ServingRecord],
    batch_sizes: List[int],
    events: List[Tuple[float, int, int]],
    scheduled_timers: set,
    power_gate: Optional[Callable[[float, int], bool]],
    power_busy: Optional[Callable[[float, int], None]],
) -> None:
    """Start work on every free live replica at ``now`` (full-sort path).

    Stretches service times by the replica's degradation factor, with the
    multiplication placed exactly as in :meth:`Cluster._dispatch` so the
    floats match bit for bit.
    """
    ordered = sorted(
        queue, key=lambda item: cluster.policy.order_key(item) + (item.seq,)
    )
    taken: set = set()
    for replica in state.live:
        if state.busy_until[replica] > now or len(taken) == len(ordered):
            continue
        if power_gate is not None and power_gate(now, replica):
            continue
        eligible = [
            item
            for item in ordered
            if item.seq not in taken
            and (item.replica is None or item.replica == replica)
        ]
        batch, release_at = _select_batch(cluster, eligible, now)
        if batch is None:
            if release_at is not None and release_at not in scheduled_timers:
                scheduled_timers.add(release_at)
                heapq.heappush(events, (release_at, _TIMER, replica))
            continue
        for item in batch:
            taken.add(item.seq)
            queue.remove(item)
            if item.replica is not None:
                state.queued_work[item.replica] -= item.service_s
        tenant = batch[0].request.tenant
        size = len(batch)
        measure_at = (
            size
            if cluster.max_batch_size > 1
            else cluster.services[tenant].base_batch_size
        )
        measured = cluster.services[tenant].measurement(batch_size=measure_at)
        latencies = measured.latencies_s
        factor = factors[replica]
        service_each = [
            float(latencies[item.request.graph_index]) * factor for item in batch
        ]
        finish = now
        for service_s in service_each:
            finish = finish + service_s
        service_total = finish - now
        state.busy_until[replica] = finish
        busy_time[replica] += service_total
        if power_busy is not None:
            power_busy(now, replica)
        batch_sizes.append(size)
        heapq.heappush(events, (finish, _COMPLETION, replica))
        for item, service_s in zip(batch, service_each):
            records.append(
                ServingRecord(
                    request=item.request,
                    service_s=service_s,
                    energy_j=float(measured.energies_j[item.request.graph_index]),
                    start_s=now,
                    completion_s=finish,
                    replica=replica,
                    batch_size=size,
                )
            )


def _select_batch(
    cluster: "Cluster", eligible: List[_QueueItem], now: float
) -> Tuple[Optional[List[_QueueItem]], Optional[float]]:
    """The batch a free replica should start at ``now``, or when to retry."""
    if not eligible:
        return None, None
    earliest_release: Optional[float] = None
    seen_tenants = set()
    for head in eligible:
        tenant = head.request.tenant
        if tenant in seen_tenants:
            continue
        seen_tenants.add(tenant)
        group = [
            item for item in eligible if item.request.tenant == tenant
        ][: cluster.max_batch_size]
        oldest_arrival = min(item.request.arrival_s for item in group)
        release_at = oldest_arrival + cluster.batch_timeout_s
        if (
            len(group) >= cluster.max_batch_size
            or cluster.batch_timeout_s == 0.0
            or now >= release_at
        ):
            return group, None
        if earliest_release is None or release_at < earliest_release:
            earliest_release = release_at
    return None, earliest_release
