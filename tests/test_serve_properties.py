"""Property-based (seeded randomized) invariant tests for :mod:`repro.serve`.

Each test draws a random serving scenario — tenants, deadlines, priorities,
arrival process, policy, batching, replica count, admission bound — from a
seeded generator and checks invariants that must hold for *any* scenario:

* conservation: every submitted request is either completed or dropped;
* sanity of the latency distribution: non-negative end-to-end latencies,
  each at least its request's service time, and p50 <= p99 <= max;
* utilisation bounded by 1 on every replica;
* full determinism: the same seed yields a bit-identical ``ServingReport``.

The seed matrix below is what CI runs; no external property-testing
dependency is used (plain ``numpy`` generators keep the suite seeded and
reproducible everywhere).
"""

import json

import numpy as np
import pytest

from repro.graph import molecule_like_graph
from repro.serve import (
    CarbonIntensity,
    CarbonWaitingAdmission,
    Cluster,
    FaultSchedule,
    LoadGenerator,
    PowerModel,
    ReactiveAutoscaler,
    Workload,
)

# The CI seed matrix: every invariant is checked under each of these.
SEEDS = [0, 1, 2]

_MODELS = ["GCN", "GIN", "GAT"]
_POLICIES = ["round_robin", "least_loaded", "edf"]
_BACKENDS = ["cpu", "gpu", "roofline"]  # analytical: fast enough to randomise


def _random_generator(seed: int):
    """A random but fully seeded (cluster, load generator, duration) triple."""
    rng = np.random.default_rng(seed)
    num_tenants = int(rng.integers(1, 4))
    workloads = []
    for i in range(num_tenants):
        graphs = [
            molecule_like_graph(int(rng.integers(8, 24)), rng, 6, 3)
            for _ in range(int(rng.integers(2, 5)))
        ]
        workloads.append(
            Workload(
                tenant=f"tenant{i}",
                model=str(rng.choice(_MODELS)),
                dataset=graphs,
                deadline_s=(
                    float(rng.uniform(1e-3, 20e-3)) if rng.random() < 0.7 else None
                ),
                priority=int(rng.integers(0, 3)),
                share=float(rng.uniform(0.5, 3.0)),
            )
        )
    cluster = Cluster(
        workloads,
        backend=str(rng.choice(_BACKENDS)),
        num_replicas=int(rng.integers(1, 4)),
        policy=str(rng.choice(_POLICIES)),
        max_batch_size=int(rng.integers(1, 4)),
        batch_timeout_s=float(rng.choice([0.0, 1e-3])),
        queue_capacity=(int(rng.integers(3, 8)) if rng.random() < 0.3 else None),
    )
    rate = float(rng.uniform(0.3, 1.4)) * cluster.num_replicas / cluster.mean_service_s()
    duration = 50 * cluster.mean_service_s()
    kind = rng.choice(["poisson", "bursty", "constant"])
    if kind == "poisson":
        generator = LoadGenerator.poisson(workloads, rate, seed=seed)
    elif kind == "bursty":
        generator = LoadGenerator.bursty(workloads, rate, seed=seed)
    else:
        generator = LoadGenerator.constant(workloads, rate, seed=seed)
    return cluster, generator, duration


def _random_scenario(seed: int):
    """A random but fully seeded (cluster, request list, duration) triple."""
    cluster, generator, duration = _random_generator(seed)
    return cluster, generator.generate(duration_s=duration), duration


@pytest.mark.parametrize("seed", SEEDS)
def test_conservation_submitted_equals_completed_plus_dropped(seed):
    cluster, requests, duration = _random_scenario(seed)
    report = cluster.serve(requests, duration_s=duration)
    assert report.submitted == len(requests)
    assert report.submitted == report.completed + report.dropped
    for outcome in report.tenants.values():
        assert outcome.submitted == outcome.completed + outcome.dropped
        assert outcome.completed == outcome.report.num_graphs
    assert len(report.records) == report.completed
    assert len(report.dropped_requests) == report.dropped


@pytest.mark.parametrize("seed", SEEDS)
def test_latencies_nonnegative_and_percentiles_ordered(seed):
    cluster, requests, duration = _random_scenario(seed)
    report = cluster.serve(requests, duration_s=duration)
    for record in report.records:
        assert record.service_s > 0
        # End-to-end latency includes queueing/batching delay: never less
        # than the service time (up to float noise in the subtraction).
        assert record.latency_s >= record.service_s * (1 - 1e-9)
    for outcome in report.tenants.values():
        stats = outcome.report.stream_statistics
        if stats is None or not stats.per_graph_latency_s.size:
            continue
        assert np.all(stats.per_graph_latency_s >= 0)
        p50 = outcome.report.p50_latency_ms
        p99 = outcome.report.p99_latency_ms
        assert p50 <= p99 <= outcome.report.max_latency_ms
        assert 0.0 <= outcome.report.deadline_miss_rate <= 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_utilisation_bounded_by_one(seed):
    cluster, requests, duration = _random_scenario(seed)
    report = cluster.serve(requests, duration_s=duration)
    assert report.per_replica_utilisation.shape == (cluster.num_replicas,)
    assert np.all(report.per_replica_utilisation >= 0.0)
    assert np.all(report.per_replica_utilisation <= 1.0 + 1e-9)
    assert 0.0 <= report.cluster_utilisation <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_identical_seeds_yield_bit_identical_reports(seed):
    cluster_a, requests_a, duration = _random_scenario(seed)
    cluster_b, requests_b, _ = _random_scenario(seed)
    assert requests_a == requests_b
    report_a = cluster_a.serve(requests_a, duration_s=duration)
    report_b = cluster_b.serve(requests_b, duration_s=duration)
    assert report_a.to_json() == report_b.to_json()
    assert json.loads(report_a.to_json()) == report_a.to_dict()
    np.testing.assert_array_equal(
        report_a.per_replica_utilisation, report_b.per_replica_utilisation
    )
    np.testing.assert_array_equal(report_a.queue_depth_trace, report_b.queue_depth_trace)
    for name in report_a.tenants:
        a = report_a.tenants[name].report
        b = report_b.tenants[name].report
        np.testing.assert_array_equal(a.per_graph_latency_ms, b.per_graph_latency_ms)
        if a.stream_statistics is not None:
            np.testing.assert_array_equal(
                a.stream_statistics.completion_times_s,
                b.stream_statistics.completion_times_s,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_queue_trace_and_batch_sizes_within_bounds(seed):
    cluster, requests, duration = _random_scenario(seed)
    report = cluster.serve(requests, duration_s=duration)
    assert np.all(report.queue_depth_trace >= 0)
    if cluster.queue_capacity is not None:
        assert report.max_queue_depth <= cluster.queue_capacity
    if report.batch_sizes.size:
        assert report.batch_sizes.min() >= 1
        assert report.batch_sizes.max() <= cluster.max_batch_size
        assert int(report.batch_sizes.sum()) == report.completed


# ---------------------------------------------------------------------------
# The request merge vs the naive per-tenant sort
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_iter_requests_and_generate_equal_naive_merge(seed, naive_merge):
    """For any random scenario, the block merge IS the sorted per-tenant union."""
    _, generator, duration = _random_generator(seed)
    expected = naive_merge(generator, duration_s=duration)
    # Field-exact dataclass equality, order included.
    assert list(generator.iter_requests(duration_s=duration)) == expected
    assert generator.generate(duration_s=duration) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_request_blocks_equal_naive_merge(seed, naive_merge):
    _, generator, duration = _random_generator(seed)
    expected = naive_merge(generator, duration_s=duration)
    position = 0
    for block in generator.iter_request_blocks(duration_s=duration):
        part = expected[position : position + len(block)]
        np.testing.assert_array_equal(block.arrival_s, [r.arrival_s for r in part])
        np.testing.assert_array_equal(block.tenant_index, [r.tenant_index for r in part])
        np.testing.assert_array_equal(block.index, [r.index for r in part])
        np.testing.assert_array_equal(block.graph_index, [r.graph_index for r in part])
        position += len(block)
    assert position == len(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_sketch_mode_conserves_and_is_deterministic(seed):
    """Sketch-mode invariants under every random scenario.

    Counts are conserved exactly as in exact mode, and two streaming runs of
    the same seed produce byte-identical JSON (the accumulators are
    deterministic, not just approximately stable).
    """
    cluster, generator, duration = _random_generator(seed)
    report_a = cluster.serve_stream(generator, duration_s=duration)
    report_b = cluster.serve_stream(generator, duration_s=duration)
    exact = cluster.serve(generator.generate(duration_s=duration), duration_s=duration)
    assert report_a.mode == "sketch"
    assert report_a.submitted == exact.submitted
    assert report_a.completed == exact.completed
    assert report_a.dropped == exact.dropped
    assert report_a.max_queue_depth == exact.max_queue_depth
    np.testing.assert_array_equal(
        report_a.per_replica_utilisation, exact.per_replica_utilisation
    )
    assert report_a.to_json() == report_b.to_json()


# ---------------------------------------------------------------------------
# Dynamic clusters under flash-crowd load (autoscaler + optional faults)
# ---------------------------------------------------------------------------
def _flash_crowd_scenario(seed: int):
    """A flash crowd against a dynamic cluster drawn from the seed matrix.

    The random static scenario gains a reactive autoscaler (sometimes plus a
    seeded crash/recover process) and a bursty arrival stream offered at 3x
    the static pool's capacity — the canonical traffic spike an autoscaler
    exists to absorb.
    """
    cluster, _, duration = _random_generator(seed)
    rng = np.random.default_rng([seed, 77])
    mean = cluster.mean_service_s()
    autoscaler = ReactiveAutoscaler(
        min_replicas=1,
        max_replicas=int(rng.integers(4, 9)),
        interval_s=float(rng.uniform(1.0, 3.0)) * mean,
        provision_delay_s=float(rng.uniform(1.0, 4.0)) * mean,
        scale_down_hysteresis_s=float(rng.uniform(4.0, 12.0)) * mean,
    )
    faults = None
    if rng.random() < 0.5:
        faults = FaultSchedule.parse(
            f"random:mtbf={15 * mean},mttr={4 * mean},seed={seed}",
            num_replicas=cluster.num_replicas,
            horizon_s=duration,
        )
    cluster = cluster.with_options(autoscaler=autoscaler, faults=faults)
    rate = 3.0 * cluster.num_replicas / mean
    generator = LoadGenerator.bursty(list(cluster.workloads), rate, seed=seed)
    return cluster, generator, duration


@pytest.mark.parametrize("seed", SEEDS)
def test_flash_crowd_conserves_and_stays_bounded(seed):
    cluster, generator, duration = _flash_crowd_scenario(seed)
    requests = generator.generate(duration_s=duration)
    report = cluster.serve(requests, duration_s=duration)
    assert report.is_dynamic
    assert report.submitted == len(requests)
    assert report.submitted == report.completed + report.dropped + report.shed
    assert np.all(report.per_replica_utilisation >= 0.0)
    assert np.all(report.per_replica_utilisation <= 1.0 + 1e-9)
    # The rented-replica integral is bounded by the pool-count envelope over
    # the *report's* horizon (an overloaded run drains past ``duration``).
    # Lifecycle events can trail the last completion by up to a tick plus
    # the provisioning delay, hence the slack on the upper bound.
    max_pool = max(cluster.num_replicas, cluster.autoscaler.max_replicas)
    slack = cluster.autoscaler.interval_s + cluster.autoscaler.provision_delay_s
    assert 0.0 < report.replica_seconds <= max_pool * (report.horizon_s + 2 * slack)
    # The autoscaler can only shrink an over-provisioned starting pool.
    assert report.peak_replicas <= max_pool


@pytest.mark.parametrize("seed", SEEDS)
def test_flash_crowd_sketch_matches_exact_counts(seed):
    cluster, generator, duration = _flash_crowd_scenario(seed)
    exact = cluster.serve(generator.generate(duration_s=duration), duration_s=duration)
    sketch = cluster.serve_stream(generator, duration_s=duration)
    assert sketch.submitted == exact.submitted
    assert sketch.completed == exact.completed
    assert sketch.dropped == exact.dropped
    assert sketch.shed == exact.shed
    assert sketch.replica_seconds == exact.replica_seconds
    assert sketch.event_counts == exact.event_counts
    assert sketch.peak_replicas == exact.peak_replicas
    np.testing.assert_array_equal(
        sketch.per_replica_utilisation, exact.per_replica_utilisation
    )


# ---------------------------------------------------------------------------
# Power and carbon accounting under the seed matrix
# ---------------------------------------------------------------------------
def _powered_scenario(seed: int):
    """A random scenario carrying a power model and a diurnal carbon trace."""
    cluster, generator, duration = _random_generator(seed)
    rng = np.random.default_rng([seed, 101])
    power = PowerModel.from_busy(
        float(rng.uniform(1.0, 5.0)), degraded_factor=float(rng.uniform(1.0, 2.0))
    )
    trace = CarbonIntensity.diurnal(
        low=float(rng.uniform(50.0, 150.0)),
        high=float(rng.uniform(400.0, 900.0)),
        period_s=duration / float(rng.integers(1, 4)),
    )
    return cluster.with_options(power=power, carbon=trace), generator, duration


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_is_sum_of_replica_integrals(seed):
    cluster, generator, duration = _powered_scenario(seed)
    requests = generator.generate(duration_s=duration)
    report = cluster.serve(requests, duration_s=duration)
    assert report.replica_energy_j is not None
    assert np.all(report.replica_energy_j >= 0.0)
    # Conservation is exact by construction (plain Python sum), not approximate.
    assert report.energy_j == sum(report.replica_energy_j.tolist())
    assert report.carbon_gco2 >= 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_intensity_grid_charges_zero_carbon(seed):
    cluster, generator, duration = _powered_scenario(seed)
    cluster = cluster.with_options(carbon=CarbonIntensity.constant(0.0))
    requests = generator.generate(duration_s=duration)
    report = cluster.serve(requests, duration_s=duration)
    assert report.energy_j > 0.0
    assert report.carbon_gco2 == 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_carbon_waiting_never_misses_deadlines_baseline_meets(seed):
    """Holding deferrable work must not cost a real-time tenant a deadline.

    Real-time tenants are never held, and the deferred tenants' work is
    released with enough headroom to finish in time; so for every tenant
    whose baseline (no admission) run meets every deadline, the
    carbon_waiting run must too.  The scenario leaves capacity headroom —
    at saturation, *any* backlog shuffle can push a tail over a deadline,
    which is an overload property, not a holding bug.
    """
    cluster, generator, duration = _powered_scenario(seed)
    rng = np.random.default_rng([seed, 202])
    workloads = list(cluster.workloads)
    for index, workload in enumerate(workloads):
        if index % 2 == 1:
            workload.tenant_class = "deferrable"
            # Loose enough that a held request released at its due date
            # still has release_headroom x service to run.
            workload.deadline_s = duration
    cluster = cluster.with_options(queue_capacity=None)
    rate = 0.4 * cluster.num_replicas / cluster.mean_service_s()
    generator = LoadGenerator.poisson(workloads, rate, seed=int(rng.integers(1 << 16)))
    requests = generator.generate(duration_s=0.6 * duration)
    threshold = float(
        cluster.carbon.min_intensity
        + 0.5 * (cluster.carbon.max_intensity - cluster.carbon.min_intensity)
    )
    waiting = cluster.with_options(
        admission=CarbonWaitingAdmission(carbon_threshold=threshold)
    )
    baseline_report = cluster.serve(requests, duration_s=duration)
    waiting_report = waiting.serve(requests, duration_s=duration)
    assert waiting_report.completed == baseline_report.completed == len(requests)
    for name, outcome in waiting_report.tenants.items():
        if outcome.workload.tenant_class != "realtime":
            continue
        baseline = baseline_report.tenants[name]
        if baseline.report.deadline_miss_rate == 0.0:
            assert outcome.report.deadline_miss_rate == 0.0, name


def test_utilisation_clamped_at_horizon_boundary():
    """A replica saturated straight through the horizon reports exactly 1.0.

    The simulation completes every admitted request even when the final
    batch finishes *after* the horizon; busy time is clamped to the horizon
    before dividing, so utilisation lands on 1.0 instead of drifting above.
    """
    rng = np.random.default_rng(0)
    graphs = [molecule_like_graph(16, rng, 6, 3) for _ in range(3)]
    workload = Workload("t", model="GCN", dataset=graphs)
    cluster = Cluster([workload], backend="cpu", num_replicas=1)
    mean = cluster.mean_service_s()
    generator = LoadGenerator.constant([workload], 4.0 / mean, seed=0)
    duration = 5.5 * mean
    requests = generator.generate(duration_s=duration)
    exact = cluster.serve(requests, duration_s=duration)
    assert float(exact.per_replica_utilisation[0]) == 1.0
    assert exact.cluster_utilisation == 1.0
    sketch = cluster.serve_stream(generator, duration_s=duration)
    np.testing.assert_array_equal(
        sketch.per_replica_utilisation, exact.per_replica_utilisation
    )
