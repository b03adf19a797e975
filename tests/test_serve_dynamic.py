"""Tests for the dynamic serving cluster: autoscaling, faults, admission.

The optimized event-driven simulation in :meth:`Cluster.serve` must stay
**bit-identical** to the naive scalar oracle
:func:`repro.serve.reference.reference_serve_dynamic` across the full
lifecycle matrix — scale-up under overload, scale-down with hysteresis,
crash/recover, degrade/restore — under every dispatch policy.  The
streaming sketch path must agree exactly on everything that is exact by
construction (counts, drops, sheds, utilisation, replica-seconds,
lifecycle event counts).  Conservation widens to::

    submitted == completed + dropped + shed

and the fault-schedule grammar, seeded crash processes and autoscaler spec
parsing are pinned here too.
"""

import numpy as np
import pytest

from repro.serve import (
    AdmissionControl,
    Cluster,
    FaultSchedule,
    LoadGenerator,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    Workload,
    parse_admission,
    parse_autoscaler,
    reference_serve_dynamic,
)
from repro.serve.reference import assert_reports_identical

_POLICIES = ["round_robin", "least_loaded", "edf"]


@pytest.fixture
def tenants(molhiv_sample, hep_sample):
    return [
        Workload(
            "trigger",
            model="GIN",
            dataset=hep_sample,
            deadline_s=1e-3,
            priority=1,
            share=2.0,
        ),
        Workload("screening", model="GCN", dataset=molhiv_sample, deadline_s=5e-3),
    ]


def _cluster(tenants, policy="round_robin", replicas=2, **kwargs):
    return Cluster(
        tenants,
        backend="cpu",
        num_replicas=replicas,
        policy=policy,
        max_batch_size=2,
        batch_timeout_s=5e-4,
        **kwargs,
    )


def _load(cluster, utilisation, cycles=60, seed=0):
    """Seeded Poisson traffic sized off the cluster's measured service time."""
    mean = cluster.mean_service_s()
    duration = cycles * mean
    rate = utilisation * cluster.num_replicas / mean
    generator = LoadGenerator.poisson(list(cluster.workloads), rate, seed=seed)
    return generator.generate(duration_s=duration), duration


def _dynamic_cluster(tenants, policy, kind):
    """One lifecycle scenario of the oracle matrix, plus its offered load."""
    base = _cluster(tenants, policy=policy)
    mean = base.mean_service_s()
    if kind == "scale_up":
        autoscaler = ReactiveAutoscaler(
            min_replicas=1,
            max_replicas=6,
            interval_s=2 * mean,
            provision_delay_s=3 * mean,
            scale_down_hysteresis_s=100 * mean,
        )
        return base.with_options(autoscaler=autoscaler), 2.5
    if kind == "scale_down":
        autoscaler = ReactiveAutoscaler(
            min_replicas=1,
            max_replicas=6,
            interval_s=2 * mean,
            provision_delay_s=mean,
            scale_down_hysteresis_s=6 * mean,
        )
        return base.with_options(num_replicas=5, autoscaler=autoscaler), 0.15
    if kind == "crash_recover":
        faults = FaultSchedule.parse(
            f"fail@{8 * mean}:r0;recover@{30 * mean}:r0", num_replicas=2
        )
        return base.with_options(faults=faults), 1.0
    if kind == "degraded":
        faults = FaultSchedule.parse(
            f"degrade@{5 * mean}:r1x3.0;restore@{35 * mean}:r1", num_replicas=2
        )
        return base.with_options(faults=faults), 1.0
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# The oracle matrix: every lifecycle scenario x every dispatch policy
# ---------------------------------------------------------------------------
class TestDynamicOracle:
    @pytest.mark.parametrize("policy", _POLICIES)
    @pytest.mark.parametrize(
        "kind", ["scale_up", "scale_down", "crash_recover", "degraded"]
    )
    def test_bit_identical_to_reference(self, tenants, policy, kind):
        cluster, utilisation = _dynamic_cluster(tenants, policy, kind)
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)
        assert report.is_dynamic

    def test_scale_up_actually_scales(self, tenants):
        cluster, utilisation = _dynamic_cluster(tenants, "round_robin", "scale_up")
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        assert report.event_counts["scale_up_events"] > 0
        assert report.peak_replicas > cluster.num_replicas
        # The rented-replica integral must sit between "minimum pool the
        # whole time" and "peak pool the whole time".
        assert (
            cluster.autoscaler.min_replicas * duration
            < report.replica_seconds
            <= report.peak_replicas * duration
        )

    def test_scale_down_actually_shrinks(self, tenants):
        cluster, utilisation = _dynamic_cluster(tenants, "round_robin", "scale_down")
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        assert report.event_counts["scale_down_events"] > 0
        assert report.replica_seconds < cluster.num_replicas * duration
        # An autoscaled idle pool must rent less than the static pool would.
        trace = report.replica_count_trace
        assert trace is not None and trace.min() < cluster.num_replicas

    def test_crash_recover_counts_events(self, tenants):
        cluster, utilisation = _dynamic_cluster(
            tenants, "round_robin", "crash_recover"
        )
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        assert report.event_counts["failures"] == 1
        assert report.event_counts["recoveries"] == 1

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_random_faults_bit_identical(self, tenants, policy):
        base = _cluster(tenants, policy=policy, replicas=3)
        mean = base.mean_service_s()
        duration = 60 * mean
        faults = FaultSchedule.parse(
            f"random:mtbf={20 * mean},mttr={5 * mean},seed=3",
            num_replicas=3,
            horizon_s=duration,
        )
        cluster = base.with_options(faults=faults)
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)

    def test_predictive_autoscaler_bit_identical(self, tenants):
        base = _cluster(tenants, policy="edf")
        mean = base.mean_service_s()
        autoscaler = PredictiveAutoscaler(
            min_replicas=1,
            max_replicas=6,
            interval_s=2 * mean,
            provision_delay_s=2 * mean,
            scale_down_hysteresis_s=8 * mean,
            target_utilisation=0.7,
            smoothing=0.5,
        )
        cluster = base.with_options(autoscaler=autoscaler)
        generator = LoadGenerator.bursty(
            list(cluster.workloads), 1.8 * 2 / mean, seed=7
        )
        duration = 60 * mean
        requests = generator.generate(duration_s=duration)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)
        assert report.event_counts["scale_up_events"] > 0

    def test_admission_shedding_bit_identical(self, tenants):
        cluster = _cluster(
            tenants,
            policy="least_loaded",
            replicas=1,
            admission=AdmissionControl(max_queue_depth=4, deadline_headroom=1.5),
        )
        requests, duration = _load(cluster, 3.0)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)
        assert report.shed > 0

    def test_combined_dynamics_bit_identical(self, tenants):
        base = _cluster(tenants, policy="edf")
        mean = base.mean_service_s()
        cluster = base.with_options(
            autoscaler=parse_autoscaler(
                f"reactive:min=1,max=5,interval={2 * mean},delay={2 * mean},"
                f"hysteresis={8 * mean}"
            ),
            faults=FaultSchedule.parse(
                f"fail@{10 * mean}:r1;recover@{25 * mean}:r1", num_replicas=2
            ),
            admission=parse_admission("queue=16,headroom=2.5"),
        )
        requests, duration = _load(cluster, 2.0)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)


# ---------------------------------------------------------------------------
# Conservation and the sketch path
# ---------------------------------------------------------------------------
class TestDynamicInvariants:
    @pytest.mark.parametrize(
        "kind", ["scale_up", "scale_down", "crash_recover", "degraded"]
    )
    def test_conservation_with_shed(self, tenants, kind):
        cluster, utilisation = _dynamic_cluster(tenants, "edf", kind)
        cluster = cluster.with_options(
            admission=AdmissionControl(max_queue_depth=8)
        )
        requests, duration = _load(cluster, max(utilisation, 1.5))
        report = cluster.serve(requests, duration_s=duration)
        assert report.submitted == len(requests)
        assert report.submitted == report.completed + report.dropped + report.shed
        for outcome in report.tenants.values():
            assert outcome.submitted == (
                outcome.completed + outcome.dropped + outcome.shed
            )

    @pytest.mark.parametrize(
        "kind", ["scale_up", "scale_down", "crash_recover", "degraded"]
    )
    def test_sketch_counts_match_exact(self, tenants, kind):
        cluster, utilisation = _dynamic_cluster(tenants, "round_robin", kind)
        mean = cluster.mean_service_s()
        duration = 60 * mean
        rate = utilisation * 2 / mean
        generator = LoadGenerator.poisson(list(cluster.workloads), rate, seed=0)
        exact = cluster.serve(
            generator.generate(duration_s=duration), duration_s=duration
        )
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

    def test_utilisation_bounded_under_degradation(self, tenants):
        # A 3x-degraded replica must still never report > 100% busy time.
        cluster, utilisation = _dynamic_cluster(tenants, "round_robin", "degraded")
        requests, duration = _load(cluster, 2.0)
        report = cluster.serve(requests, duration_s=duration)
        assert float(report.per_replica_utilisation.max()) <= 1.0

    def test_all_replicas_dead_sheds_backlog(self, tenants):
        # Both replicas crash early and never recover: the queued backlog
        # can never complete and must be accounted as shed, not lost.
        cluster = _cluster(tenants, replicas=2)
        mean = cluster.mean_service_s()
        cluster = cluster.with_options(
            faults=FaultSchedule.parse(
                f"fail@{2 * mean}:r0;fail@{2 * mean}:r1", num_replicas=2
            )
        )
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)
        assert report.shed > 0
        assert report.submitted == report.completed + report.dropped + report.shed

    @pytest.mark.parametrize("path", ["exact", "sketch", "stream"])
    def test_static_cluster_report_is_not_dynamic(self, tenants, path):
        # Every scalar path runs the one event loop; on a static cluster it
        # must leave the dynamic-only fields unset, which is what keeps
        # static JSON (and the committed fixtures) unchanged.
        cluster = _cluster(tenants)
        assert not cluster.dynamic
        assert not cluster._fast_path_eligible()  # batch 2: serve_stream stays scalar
        mean = cluster.mean_service_s()
        duration = 60 * mean
        generator = LoadGenerator.poisson(tenants, 0.8 * cluster.num_replicas / mean, seed=0)
        if path == "exact":
            report = cluster.serve(generator.generate(duration_s=duration), duration_s=duration)
        elif path == "sketch":
            report = cluster.serve(generator.iter_requests(duration_s=duration), duration_s=duration, mode="sketch")
        else:
            report = cluster.serve_stream(generator, duration_s=duration)
        assert report.completed > 0
        assert not report.is_dynamic
        assert report.replica_seconds is None
        assert report.event_counts == {}
        assert report.replica_count_trace is None
        assert report.replica_count_times_s is None
        assert report.replica_count_hist is None
        assert report.energy_j is None
        payload = report.to_dict()
        for key in ("replica_seconds", "peak_replicas", "event_counts", "replica_count", "energy_j"):
            assert key not in payload

    def test_dynamic_report_to_dict_round_trips(self, tenants):
        import json

        cluster, utilisation = _dynamic_cluster(tenants, "round_robin", "scale_up")
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["replica_seconds"] == report.replica_seconds
        assert payload["peak_replicas"] == report.peak_replicas
        assert payload["event_counts"] == report.event_counts
        assert payload["replica_count"]["count"][0] == cluster.num_replicas
        assert "peak replicas" in report.summary()


# ---------------------------------------------------------------------------
# Fault schedules: grammar, validation, seeded crash processes
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_parse_explicit_events_round_trip(self):
        text = "fail@0.01:r0;recover@0.02:r0;degrade@0.005:r1x2.5;restore@0.015:r1"
        schedule = FaultSchedule.parse(text, num_replicas=2)
        assert len(schedule.events) == 4
        described = schedule.describe()
        assert FaultSchedule.parse(described, num_replicas=2) == schedule

    def test_crash_is_alias_for_fail(self):
        schedule = FaultSchedule.parse("crash@0.01:r0", num_replicas=1)
        assert schedule.events[0].action == "fail"

    def test_random_schedule_is_seeded(self):
        kwargs = {"num_replicas": 3, "horizon_s": 0.1}
        a = FaultSchedule.parse("random:mtbf=0.02,mttr=0.005,seed=1", **kwargs)
        b = FaultSchedule.parse("random:mtbf=0.02,mttr=0.005,seed=1", **kwargs)
        c = FaultSchedule.parse("random:mtbf=0.02,mttr=0.005,seed=2", **kwargs)
        assert a == b
        assert a != c
        assert all(event.time_s <= 0.1 for event in a.events)

    @pytest.mark.parametrize(
        "text",
        [
            "explode@0.01:r0",          # unknown action
            "fail@0.01",                # missing replica
            "fail@-1:r0",               # negative time
            "degrade@0.01:r0x0.0",      # non-positive factor
            "random:mtbf=0.02",         # mttr missing
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultSchedule.parse(text, num_replicas=2, horizon_s=0.1)

    def test_integral_seed_and_replica_parse_as_ints(self):
        kwargs = {"num_replicas": 3, "horizon_s": 0.1}
        seeded = FaultSchedule.parse("random:mtbf=0.02,mttr=0.005,seed=3.0", **kwargs)
        assert seeded == FaultSchedule.parse("random:mtbf=0.02,mttr=0.005,seed=3", **kwargs)
        schedule = FaultSchedule.parse("fail@0.01:r1.0;recover@0.02:r1", num_replicas=2)
        assert [type(event.replica) for event in schedule.events] == [int, int]
        assert schedule.events[0].replica == schedule.events[1].replica == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("random:mtbf=0.02,mttr=0.005,seed=inf", "seed must be finite, got inf"),
            ("fail@0.01:r1.5", "fault replica must be an integer, got 1.5"),
            ("degrade@0.01:rnanx2", "fault replica must be finite, got nan"),
        ],
        ids=["seed-inf", "replica-fraction", "replica-nan"],
    )
    def test_non_integral_seed_and_replica_rejected(self, text, message):
        with pytest.raises(ValueError) as raised:
            FaultSchedule.parse(text, num_replicas=2, horizon_s=0.1)
        assert str(raised.value) == message

    def test_event_replica_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Cluster(
                [Workload("t", model="GCN", dataset="MolHIV")],
                backend="cpu",
                num_replicas=1,
                faults="fail@0.01:r5",
            )


class TestAutoscalerParsing:
    def test_spec_string_round_trip(self):
        autoscaler = parse_autoscaler(
            "reactive:min=2,max=8,interval=0.002,delay=0.004,high=6,low=1"
        )
        assert isinstance(autoscaler, ReactiveAutoscaler)
        assert autoscaler.min_replicas == 2
        assert autoscaler.max_replicas == 8
        assert autoscaler.high_queue_per_replica == 6.0

    def test_predictive_keys(self):
        autoscaler = parse_autoscaler("predictive:util=0.6,smooth=0.3")
        assert isinstance(autoscaler, PredictiveAutoscaler)
        assert autoscaler.target_utilisation == 0.6

    @pytest.mark.parametrize(
        "text", ["sigmoid", "reactive:wat=1", "predictive:high=2"]
    )
    def test_unknown_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_autoscaler(text)

    @pytest.mark.parametrize("name", ["reactive", "predictive", "carbon"])
    @pytest.mark.parametrize("key, attr", [("min", "min_replicas"), ("max", "max_replicas")])
    def test_fractional_replica_bounds_rejected(self, name, key, attr):
        """``int()`` used to truncate 2.5 to 2 without a word."""
        with pytest.raises(ValueError) as raised:
            parse_autoscaler(f"{name}:{key}=2.5")
        assert str(raised.value) == f"{attr} must be an integer, got 2.5"

    @pytest.mark.parametrize("name", ["reactive", "predictive", "carbon"])
    def test_integral_replica_bounds_parse_as_ints(self, name):
        autoscaler = parse_autoscaler(f"{name}:min=2.0,max=4e0")
        assert (autoscaler.min_replicas, autoscaler.max_replicas) == (2, 4)
        assert type(autoscaler.min_replicas) is int and type(autoscaler.max_replicas) is int

    @pytest.mark.parametrize("text", ["queue=16.0", "carbon_waiting:queue=16.0"])
    def test_integral_queue_depth_parses_as_int(self, text):
        depth = parse_admission(text).max_queue_depth
        assert depth == 16 and type(depth) is int

    def test_admission_parse_and_validation(self):
        control = parse_admission("queue=64,headroom=1.5")
        assert control.max_queue_depth == 64
        assert control.deadline_headroom == 1.5
        with pytest.raises(ValueError):
            parse_admission("queue=64,slack=2")
        with pytest.raises(ValueError):
            AdmissionControl()
