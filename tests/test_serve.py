"""Tests for the multi-tenant serving simulator (:mod:`repro.serve`).

Covers the workload/arrival specs, the dispatch policies, dynamic batching,
admission control, and the headline behaviour claim: on a bursty two-tenant
scenario with heterogeneous SLOs, the deadline-aware ``edf`` policy misses
strictly fewer deadlines than ``round_robin``.
"""

import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import GraphStream
from repro.serve import (
    CarbonIntensity,
    CarbonWaitingAdmission,
    Cluster,
    ConstantArrivals,
    DispatchPolicy,
    DiurnalArrivals,
    FaultSchedule,
    LeastLoadedPolicy,
    LoadGenerator,
    OnOffArrivals,
    PoissonArrivals,
    PowerModel,
    ReactiveAutoscaler,
    ServingRecord,
    TraceArrivals,
    Workload,
    get_policy,
    reference_serve,
)
from repro.serve.arrivals import ServingRequest
from repro.serve.cluster import _Lanes, _QueueItem, _SimState
from repro.serve.reference import assert_reports_identical


@pytest.fixture
def two_tenants(molhiv_sample, hep_sample):
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


@pytest.fixture
def cpu_cluster(two_tenants):
    return Cluster(two_tenants, backend="cpu", num_replicas=2, policy="round_robin")


# ---------------------------------------------------------------------------
# Workload validation
# ---------------------------------------------------------------------------
class TestWorkload:
    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown model"):
            Workload("t", model="Transformer", dataset="MolHIV")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant": ""},
            {"share": 0.0},
            {"share": -1.0},
            {"deadline_s": 0.0},
            {"priority": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        fields = {"tenant": "t", "model": "GIN", "dataset": "MolHIV", **kwargs}
        with pytest.raises(ValueError):
            Workload(**fields)

    def test_from_request_shares_resolution(self, molhiv_sample):
        from repro.api import InferenceRequest

        request = InferenceRequest(model="GCN", dataset=molhiv_sample)
        workload = Workload.from_request("t", request, priority=2, share=3.0)
        assert workload.request is request
        assert workload.priority == 2 and workload.share == 3.0
        assert workload.num_pool_graphs == len(molhiv_sample)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
class TestArrivalProcesses:
    def test_constant_matches_graph_stream_bitwise(self, molhiv_sample):
        graphs = list(molhiv_sample)
        stream = GraphStream(graphs=graphs, arrival_interval_s=1e-3)
        times = ConstantArrivals(1e-3).times(num_requests=len(graphs))
        np.testing.assert_array_equal(times, stream.arrival_times())

    def test_constant_duration_bound(self):
        times = ConstantArrivals(1e-3).times(duration_s=5.5e-3)
        assert times.tolist() == [0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3]

    def test_zero_interval_burst_needs_count(self):
        assert ConstantArrivals(0.0).times(num_requests=3).tolist() == [0.0] * 3
        with pytest.raises(ValueError, match="unbounded"):
            ConstantArrivals(0.0).times(duration_s=1.0)

    def test_poisson_is_seeded_and_sorted(self):
        process = PoissonArrivals(1000.0)
        a = process.times(num_requests=50, rng=np.random.default_rng(3))
        b = process.times(num_requests=50, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0) and np.all(a > 0)
        # Mean inter-arrival time is within 3 sigma of 1/rate.
        assert np.mean(np.diff(a)) == pytest.approx(1e-3, rel=0.5)

    def test_poisson_duration_horizon(self):
        times = PoissonArrivals(2000.0).times(
            duration_s=0.1, rng=np.random.default_rng(0)
        )
        assert times.size > 0 and times[-1] < 0.1

    def test_poisson_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            PoissonArrivals(10.0).times(num_requests=5)

    def test_on_off_is_burstier_than_poisson(self):
        rate = 1000.0
        bursty = OnOffArrivals(
            on_rate_rps=rate / 0.2, mean_on_s=8 * 0.2 / rate, mean_off_s=8 * 0.8 / rate
        )
        poisson = PoissonArrivals(rate)
        b = bursty.times(duration_s=1.0, rng=np.random.default_rng(1))
        p = poisson.times(duration_s=1.0, rng=np.random.default_rng(1))
        # Comparable long-run rate, but a much more variable gap distribution.
        assert b.size == pytest.approx(p.size, rel=0.4)
        assert np.std(np.diff(b)) > 2 * np.std(np.diff(p))

    def test_trace_replay_and_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "tenant,arrival_s\n"
            "a,0.001\n"
            "b,0.002\n"
            "a,0.003\n"
        )
        all_rows = TraceArrivals.from_csv(str(path))
        assert all_rows.times(num_requests=10).tolist() == [0.001, 0.002, 0.003]
        only_a = TraceArrivals.from_csv(str(path), tenant="a")
        assert only_a.times(num_requests=10).tolist() == [0.001, 0.003]

    def test_trace_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            TraceArrivals(timestamps=[0.2, 0.1])

    def test_trace_csv_without_time_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when\n0.1\n")
        with pytest.raises(ValueError, match="arrival_s"):
            TraceArrivals.from_csv(str(path))

    def test_diurnal_is_seeded_and_sorted(self):
        process = DiurnalArrivals(1000.0)
        a = process.times(duration_s=0.5, rng=np.random.default_rng(3))
        b = process.times(duration_s=0.5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0) and np.all(a > 0) and a[-1] < 0.5

    def test_diurnal_long_run_mean_matches_rate(self):
        """The low/high swing is normalised so the time-averaged rate stays
        ``rate_rps`` — the capacity-planning comparability contract."""
        for low, high in ((0.25, 1.75), (0.0, 2.0), (1.0, 1.0)):
            times = DiurnalArrivals(2000.0, low=low, high=high).times(
                duration_s=1.0, rng=np.random.default_rng(7)
            )
            assert times.size == pytest.approx(2000, rel=0.1)

    def test_diurnal_peak_beats_trough(self):
        """Arrivals concentrate at half-period (peak) and thin at t=0 and
        period boundaries (trough)."""
        process = DiurnalArrivals(5000.0, low=0.1, high=1.9, period_s=0.02)
        times = process.times(duration_s=1.0, rng=np.random.default_rng(11))
        phase = np.mod(times, 0.02) / 0.02
        peak = np.sum((phase > 0.35) & (phase < 0.65))
        trough = np.sum((phase < 0.15) | (phase > 0.85))
        assert peak > 3 * trough

    def test_diurnal_num_requests_bound(self):
        times = DiurnalArrivals(1000.0).times(
            num_requests=40, rng=np.random.default_rng(0)
        )
        assert times.size == 40

    def test_diurnal_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            DiurnalArrivals(10.0).times(num_requests=5)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="rate_rps"):
            DiurnalArrivals(0.0)
        with pytest.raises(ValueError, match="period_s"):
            DiurnalArrivals(10.0, period_s=0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(10.0, low=1.5, high=0.5)
        with pytest.raises(ValueError):
            DiurnalArrivals(10.0, low=-0.1)

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: PoissonArrivals(math.inf), "rate_rps must be finite"),
            (lambda: ConstantArrivals(math.nan), "interval_s must be finite"),
            (lambda: ConstantArrivals(math.inf), "interval_s must be finite"),
            (lambda: DiurnalArrivals(1000.0, low=math.nan), "low must be finite"),
            (lambda: DiurnalArrivals(1000.0, high=math.inf), "high must be finite"),
            (lambda: DiurnalArrivals(1000.0, period_s=math.inf), "period_s must be finite"),
            (
                lambda: OnOffArrivals(on_rate_rps=1e3, mean_on_s=1e-3, mean_off_s=math.inf),
                "mean_off_s must be finite",
            ),
            (
                lambda: OnOffArrivals(1e3, 1e-3, 1e-3, off_rate_rps=math.nan),
                "off_rate_rps must be finite",
            ),
            (lambda: TraceArrivals(timestamps=[1e-3, math.nan]), "finite"),
            (lambda: TraceArrivals(timestamps=[1e-3, math.inf]), "finite"),
        ],
    )
    def test_non_finite_parameters_rejected(self, make, match):
        """Non-finite values make sampling overflow or never reach the horizon."""
        with pytest.raises(ValueError, match=match):
            make()

    def test_trace_csv_with_nan_row_rejected(self, tmp_path, two_tenants):
        path = tmp_path / "nan.csv"
        path.write_text("arrival_s\n0.001\nnan\n0.002\n")
        with pytest.raises(ValueError, match="finite"):
            TraceArrivals.from_csv(str(path))
        with pytest.raises(ValueError, match="finite"):
            LoadGenerator.trace(two_tenants, str(path))

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration_s, two_tenants):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            PoissonArrivals(1000.0).times(duration_s=duration_s, rng=rng)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            TraceArrivals(timestamps=[1e-3]).times(duration_s=duration_s)
        with pytest.raises(ValueError, match="duration_s must be finite"):
            LoadGenerator.poisson(two_tenants, 1000.0).generate(duration_s=duration_s)

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(1e300),
            ConstantArrivals(1e-300),
            OnOffArrivals(on_rate_rps=1e300, mean_on_s=1.0, mean_off_s=1.0),
            DiurnalArrivals(1e300),
        ],
        ids=["poisson", "constant", "bursty", "diurnal"],
    )
    def test_horizon_sized_count_must_be_finite(self, process):
        """A rate x duration overflowing the request count is a ValueError."""
        with pytest.raises(ValueError, match="too many requests"):
            process.times(duration_s=1e10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("num_requests", [math.nan, math.inf, 2.5], ids=["nan", "inf", "fraction"])
    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(1000.0),
            OnOffArrivals(on_rate_rps=1000.0, mean_on_s=1e-3, mean_off_s=1e-3),
            ConstantArrivals(1e-3),
            DiurnalArrivals(1000.0),
            TraceArrivals(timestamps=[1e-3, 2e-3, 3e-3]),
        ],
        ids=["poisson", "bursty", "constant", "diurnal", "trace"],
    )
    def test_non_integer_num_requests_rejected(self, process, num_requests):
        """A count of NaN, inf or 2.5 used to yield 0, 3 or 13 arrivals, or
        raise a TypeError or OverflowError, depending on the process."""
        message = re.escape(f"num_requests must be an integer, got {num_requests!r}")
        with pytest.raises(ValueError, match=message):
            process.times(num_requests=num_requests, duration_s=0.01, rng=np.random.default_rng(0))

    def test_non_integer_num_requests_rejected_through_the_generator(self, two_tenants, cpu_cluster):
        generator = LoadGenerator.bursty(two_tenants, 1000.0, seed=0)
        with pytest.raises(ValueError, match="num_requests must be an integer, got nan"):
            generator.generate(num_requests=math.nan)
        with pytest.raises(ValueError, match="num_requests must be an integer, got 2.5"):
            list(generator.iter_requests(num_requests=2.5, duration_s=1.0))
        for mode in ("exact", "sketch"):
            with pytest.raises(ValueError, match="num_requests must be an integer, got inf"):
                cpu_cluster.serve_stream(generator, num_requests=math.inf, mode=mode)
        # numpy integers are counts.
        assert len(generator.generate(num_requests=np.int64(3))) == 6

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0])
    def test_total_rate_must_be_positive_and_finite(self, rate, two_tenants):
        with pytest.raises(ValueError, match="positive and finite"):
            LoadGenerator.constant(two_tenants, rate)

    def test_diurnal_option_grammar(self):
        assert DiurnalArrivals.parse_options("diurnal") == {}
        assert DiurnalArrivals.parse_options(
            "diurnal:low=0.1,high=1.9,period=0.04"
        ) == {"low": 0.1, "high": 1.9, "period_s": 0.04}
        with pytest.raises(ValueError, match="unknown diurnal option"):
            DiurnalArrivals.parse_options("diurnal:swing=2")
        with pytest.raises(ValueError, match="key=value"):
            DiurnalArrivals.parse_options("diurnal:low")


# ---------------------------------------------------------------------------
# LoadGenerator
# ---------------------------------------------------------------------------
class TestLoadGenerator:
    def test_merged_sequence_is_time_sorted(self, two_tenants):
        requests = LoadGenerator.poisson(two_tenants, 5000.0, seed=1).generate(
            duration_s=0.02
        )
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in requests} == {"trigger", "screening"}

    def test_share_splits_the_total_rate(self, two_tenants):
        generator = LoadGenerator.poisson(two_tenants, 30000.0, seed=0)
        requests = generator.generate(duration_s=0.05)
        counts = {name: 0 for name in ("trigger", "screening")}
        for request in requests:
            counts[request.tenant] += 1
        # trigger has share 2.0 vs 1.0: roughly twice the requests.
        assert counts["trigger"] == pytest.approx(2 * counts["screening"], rel=0.3)

    def test_same_seed_is_bit_identical(self, two_tenants):
        a = LoadGenerator.bursty(two_tenants, 10000.0, seed=9).generate(duration_s=0.03)
        b = LoadGenerator.bursty(two_tenants, 10000.0, seed=9).generate(duration_s=0.03)
        assert a == b

    def test_diurnal_generator_splits_rate_and_reproduces(self, two_tenants):
        generator = LoadGenerator.diurnal(
            two_tenants, 20000.0, seed=4, low=0.2, high=1.8, period_s=0.01
        )
        a = generator.generate(duration_s=0.03)
        b = LoadGenerator.diurnal(
            two_tenants, 20000.0, seed=4, low=0.2, high=1.8, period_s=0.01
        ).generate(duration_s=0.03)
        assert a == b
        counts = {name: 0 for name in ("trigger", "screening")}
        for request in a:
            counts[request.tenant] += 1
        # trigger has share 2.0 vs 1.0: roughly twice the requests.
        assert counts["trigger"] == pytest.approx(2 * counts["screening"], rel=0.3)

    def test_graph_indices_cycle_through_the_pool(self, two_tenants):
        requests = LoadGenerator.constant(two_tenants, 10000.0, seed=0).generate(
            num_requests=10
        )
        pool = two_tenants[0].num_pool_graphs
        trigger = [r for r in requests if r.tenant == "trigger"]
        assert [r.graph_index for r in trigger] == [i % pool for i in range(len(trigger))]

    def test_trace_without_tenant_column_splits_not_multiplies(self, two_tenants, tmp_path):
        """Regression: a tenant-less trace used to be replayed once per
        tenant, multiplying the recorded load by the tenant count."""
        path = tmp_path / "trace.csv"
        path.write_text("arrival_s\n" + "".join(f"{i * 1e-3}\n" for i in range(10)))
        requests = LoadGenerator.trace(two_tenants, str(path)).generate(duration_s=1.0)
        assert len(requests) == 10  # not 20
        counts = {}
        for request in requests:
            counts[request.tenant] = counts.get(request.tenant, 0) + 1
        assert counts == {"trigger": 5, "screening": 5}  # dealt round-robin

    def test_trace_with_foreign_tenant_labels_rejected(self, two_tenants, tmp_path):
        """Regression: a trace whose tenant labels match no workload used to
        yield zero requests silently (e.g. real labels vs CLI tenant0..N)."""
        path = tmp_path / "foreign.csv"
        path.write_text("tenant,arrival_s\nalpha,0.001\nbeta,0.002\n")
        with pytest.raises(ValueError, match="no trace row matches"):
            LoadGenerator.trace(two_tenants, str(path))

    def test_duplicate_tenant_names_rejected(self, molhiv_sample):
        tenants = [
            Workload("same", dataset=molhiv_sample),
            Workload("same", dataset=molhiv_sample),
        ]
        with pytest.raises(ValueError, match="unique"):
            LoadGenerator(tenants, ConstantArrivals(1e-3))


# ServingRequest as the frozen dataclass it used to be.
_OLD_SERVING_REQUEST = dataclasses.make_dataclass(
    "ServingRequest",
    ["tenant", "tenant_index", "index", "arrival_s", "graph_index", "deadline_s", ("priority", int, 0)],
    frozen=True,
)


class TestServingRequestValueType:
    """A request is a tuple that still reads as the old frozen dataclass."""

    @pytest.fixture
    def requests(self, molhiv_sample, two_tenants):
        best_effort = Workload("batch", model="GCN", dataset=molhiv_sample, priority=2)
        generated = LoadGenerator.bursty([*two_tenants, best_effort], 20_000.0, seed=3).generate(num_requests=4)
        assert {r.deadline_s is None for r in generated} == {True, False}
        return [*generated, ServingRequest("solo", 7, 3, 0.25, 1, 2e-3), ServingRequest("solo", 7, 4, 0.5, 0, None, 5)]

    def test_fields_are_the_old_dataclass_fields(self):
        old_fields = dataclasses.fields(_OLD_SERVING_REQUEST)
        assert ServingRequest._fields == tuple(f.name for f in old_fields)
        new_fields = dataclasses.fields(ServingRequest)
        assert [f.name for f in new_fields] == [f.name for f in old_fields]
        assert [f.default for f in new_fields] == [f.default for f in old_fields]
        assert ServingRequest("a", 0, 1, 0.5, 2, None).priority == 0
        assert dataclasses.is_dataclass(ServingRequest)

    def test_requests_are_the_old_frozen_dataclass_field_for_field(self, requests):
        for new in requests:
            old = _OLD_SERVING_REQUEST(*new)
            assert type(new) is ServingRequest
            assert dataclasses.is_dataclass(new)
            assert [f.name for f in dataclasses.fields(new)] == [f.name for f in dataclasses.fields(old)]
            assert dataclasses.astuple(new) == dataclasses.astuple(old)
            assert dataclasses.asdict(new) == dataclasses.asdict(old)
            assert repr(new) == repr(old)
            assert hash(new) == hash(old)
            replaced = dataclasses.replace(new, tenant="ghost", priority=9)
            assert type(replaced) is ServingRequest
            assert repr(replaced) == repr(dataclasses.replace(old, tenant="ghost", priority=9))
            assert dataclasses.replace(new) == new
            for other in requests:
                assert (new == other) == (old == _OLD_SERVING_REQUEST(*other))
            for name in ServingRequest._fields:
                with pytest.raises(AttributeError):
                    setattr(new, name, 0)
            with pytest.raises(AttributeError):
                new.extra = 0
            restored = pickle.loads(pickle.dumps(new))
            assert type(restored) is ServingRequest and repr(restored) == repr(new)
            # ``index`` is the field, not ``tuple.index``.
            assert new.index == old.index and isinstance(new.index, int)

    def test_absolute_deadline(self, requests):
        for request in requests:
            if request.deadline_s is None:
                assert request.absolute_deadline_s == math.inf
            else:
                assert request.absolute_deadline_s == request.arrival_s + request.deadline_s
        assert ServingRequest("a", 0, 0, 0.25, 0, 2e-3).absolute_deadline_s == 0.25 + 2e-3
        assert ServingRequest("a", 0, 0, 0.25, 0, None).absolute_deadline_s == math.inf


@st.composite
def _least_loaded_states(draw):
    """``(busy_until, queued_work, now, live)`` of one least-loaded decision.

    Values come from a small pool as often as not, so ties and
    ``busy_until == now`` are common; ``live`` is any non-empty subset, as
    after failures.
    """
    size = draw(st.integers(1, 6))
    times = st.one_of(st.sampled_from([0.0, 1e-3, 2e-3]), st.floats(0.0, 4e-3))
    work = st.one_of(st.just(0.0), st.floats(0.0, 4e-3))
    busy = draw(st.lists(times, min_size=size, max_size=size))
    queued = draw(st.lists(work, min_size=size, max_size=size))
    live = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1)))
    return busy, queued, draw(times), live


# ---------------------------------------------------------------------------
# Dispatch policies
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown policy"):
            get_policy("fifo9000")

    def test_round_robin_spreads_across_replicas(self, two_tenants):
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=3, policy="round_robin")
        requests = LoadGenerator.constant(two_tenants, 500.0, seed=0).generate(
            num_requests=9
        )
        report = cluster.serve(requests)
        replicas = [record.replica for record in sorted(report.records, key=lambda r: r.request.arrival_s)]
        assert replicas[:6] == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_idle_replicas(self, two_tenants):
        # Slow arrivals: every request finds both replicas idle, so
        # least-loaded degenerates to "lowest index first" per arrival --
        # but under a burst it must not stack everything on replica 0.
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=2, policy="least_loaded")
        burst = LoadGenerator(
            two_tenants, ConstantArrivals(0.0), seed=0
        ).generate(num_requests=4)
        report = cluster.serve(burst)
        assert {record.replica for record in report.records} == {0, 1}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_least_loaded_states())
    @example(([0.0, 1e-3, 0.5e-3], [0.0, 0.0, 0.0], 2e-3, [0, 1, 2]))  # all idle
    @example(([5e-3, 1e-3, 2e-3, 0.0], [0.0, 1e-3, 0.0, 2e-3], 1e-3, [1, 3]))
    @example(([3e-3], [1e-3], 0.0, [0]))
    def test_least_loaded_matches_first_argmin(self, decision):
        """The Python scan picks ``live[np.argmin(backlog)]``: ties go to the
        earliest live replica, idle replicas clamp to a zero backlog."""
        busy, queued, now, live = decision
        state = _SimState(busy_until=busy, queued_work=queued, now=now, live=live)
        backlog = [max(busy[r] - now, 0.0) + queued[r] for r in live]
        assert LeastLoadedPolicy().assign(None, state) == int(live[int(np.argmin(backlog))])

    def test_least_loaded_with_no_live_replica_leaves_work_shared(self):
        state = _SimState(busy_until=[1.0, 2.0], queued_work=[0.0, 0.0], now=0.5, live=[])
        assert LeastLoadedPolicy().assign(None, state) is None

    def test_edf_serves_tightest_deadline_first(self, molhiv_sample):
        tight = Workload("tight", model="GCN", dataset=molhiv_sample, deadline_s=1e-4)
        loose = Workload("loose", model="GCN", dataset=molhiv_sample, deadline_s=10.0)
        cluster = Cluster([tight, loose], backend="cpu", num_replicas=1, policy="edf")
        # Burst at t=0: loose generated first in tenant order, but the tight
        # tenant must be served first by deadline.
        requests = LoadGenerator(
            [loose, tight], ConstantArrivals(0.0), seed=0
        ).generate(num_requests=2)
        report = cluster.serve(requests)
        order = sorted(report.records, key=lambda r: r.start_s)
        assert [record.request.tenant for record in order[:2]] == ["tight", "tight"]

    def test_edf_breaks_deadline_ties_by_priority(self, molhiv_sample):
        high = Workload("high", dataset=molhiv_sample, deadline_s=1e-3, priority=5)
        low = Workload("low", dataset=molhiv_sample, deadline_s=1e-3, priority=0)
        cluster = Cluster([high, low], backend="cpu", num_replicas=1, policy="edf")
        requests = LoadGenerator([low, high], ConstantArrivals(0.0), seed=0).generate(
            num_requests=1
        )
        report = cluster.serve(requests)
        order = sorted(report.records, key=lambda r: r.start_s)
        assert order[0].request.tenant == "high"


# ---------------------------------------------------------------------------
# Batching, admission control, scaling
# ---------------------------------------------------------------------------
class TestClusterMechanics:
    def test_zero_timeout_max_batch_one_never_batches(self, cpu_cluster, two_tenants):
        requests = LoadGenerator.poisson(two_tenants, 2000.0, seed=2).generate(
            duration_s=0.02
        )
        report = cpu_cluster.serve(requests, duration_s=0.02)
        assert report.mean_batch_size == 1.0

    def test_burst_fills_batches_up_to_the_cap(self, two_tenants):
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=1, policy="round_robin",
            max_batch_size=4,
        )
        requests = LoadGenerator(
            two_tenants, ConstantArrivals(0.0), seed=0
        ).generate(num_requests=8)
        report = cluster.serve(requests)
        assert report.batch_sizes.max() == 4
        # Batches never mix tenants (different models cannot share a batch).
        for record in report.records:
            assert record.batch_size <= 4

    def test_batch_timeout_delays_dispatch_until_release(self, molhiv_sample):
        tenant = Workload("t", model="GCN", dataset=molhiv_sample)
        timeout = 5e-3
        cluster = Cluster(
            [tenant], backend="cpu", num_replicas=1, policy="round_robin",
            max_batch_size=8, batch_timeout_s=timeout,
        )
        # One lonely request: the batch can never fill, so it must be
        # released exactly at arrival + timeout.
        requests = LoadGenerator([tenant], ConstantArrivals(0.0), seed=0).generate(
            num_requests=1
        )
        report = cluster.serve(requests)
        assert report.records[0].start_s == pytest.approx(timeout)

    def test_batching_amortises_platform_overhead(self, molhiv_sample):
        tenant = Workload("t", model="GCN", dataset=molhiv_sample)
        single = Cluster([tenant], backend="gpu", num_replicas=1, policy="round_robin")
        batched = Cluster(
            [tenant], backend="gpu", num_replicas=1, policy="round_robin",
            max_batch_size=8,
        )
        requests = LoadGenerator([tenant], ConstantArrivals(0.0), seed=0).generate(
            num_requests=8
        )
        a = single.serve(requests)
        b = batched.serve(requests)
        # The whole burst finishes sooner when the GPU batches it.
        assert max(r.completion_s for r in b.records) < max(
            r.completion_s for r in a.records
        )

    def test_batched_dispatch_reports_batch_level_energy(self, molhiv_sample):
        """Regression: batched requests used to report batch-1 energy; the
        energy must be re-measured at the batch size actually used, so GPU
        batching amortises energy exactly as it amortises latency."""
        tenant = Workload("t", model="GCN", dataset=molhiv_sample)
        single = Cluster([tenant], backend="gpu", num_replicas=1, policy="round_robin")
        batched = Cluster(
            [tenant], backend="gpu", num_replicas=1, policy="round_robin",
            max_batch_size=8,
        )
        requests = LoadGenerator([tenant], ConstantArrivals(0.0), seed=0).generate(
            num_requests=8
        )
        a = single.serve(requests).tenants["t"].report
        b = batched.serve(requests).tenants["t"].report
        assert b.energy_mj_per_graph < a.energy_mj_per_graph

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_request_for_unknown_tenant_rejected(self, two_tenants, cpu_cluster, dynamic, mode):
        from dataclasses import replace

        cluster = cpu_cluster.with_options(admission="queue=64") if dynamic else cpu_cluster
        assert cluster.dynamic == dynamic
        requests = LoadGenerator.constant(two_tenants, 1000.0, seed=0).generate(
            num_requests=1
        )
        ghost = [replace(requests[0], tenant="ghost")]
        with pytest.raises(ValueError, match="unknown tenant"):
            cluster.serve(ghost, mode=mode)

    def test_bounded_queue_drops_and_conserves(self, two_tenants):
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=1, policy="round_robin",
            queue_capacity=2,
        )
        requests = LoadGenerator(
            two_tenants, ConstantArrivals(0.0), seed=0
        ).generate(num_requests=10)
        report = cluster.serve(requests)
        assert report.dropped > 0
        assert report.submitted == report.completed + report.dropped == len(requests)
        # The trace must show the bound being hit, consistent with the drops.
        assert report.max_queue_depth == 2

    def test_more_replicas_cut_tail_latency(self, two_tenants):
        requests = LoadGenerator.poisson(two_tenants, 4000.0, seed=3).generate(
            duration_s=0.05
        )
        base = Cluster(two_tenants, backend="cpu", num_replicas=1, policy="least_loaded")
        small = base.serve(requests, duration_s=0.05)
        large = base.with_replicas(4).serve(requests, duration_s=0.05)
        for name in ("trigger", "screening"):
            assert (
                large.tenants[name].report.p99_latency_ms
                <= small.tenants[name].report.p99_latency_ms
            )

    def test_with_replicas_shares_measured_services(self, cpu_cluster):
        clone = cpu_cluster.with_replicas(5, policy="edf")
        assert clone.services is cpu_cluster.services
        assert clone.num_replicas == 5
        assert clone.policy.name == "edf"
        assert cpu_cluster.num_replicas == 2  # original untouched

    def test_with_options_overrides_every_knob(self, cpu_cluster):
        clone = cpu_cluster.with_options(
            num_replicas=3,
            policy="edf",
            max_batch_size=4,
            batch_timeout_s=1e-4,
            queue_capacity=8,
        )
        assert clone.services is cpu_cluster.services
        assert (clone.num_replicas, clone.max_batch_size) == (3, 4)
        assert clone.batch_timeout_s == 1e-4
        assert clone.queue_capacity == 8
        assert clone.policy.name == "edf"
        # Ellipsis keeps the current capacity; None means unbounded.
        assert clone.with_options(num_replicas=1).queue_capacity == 8
        assert clone.with_options(queue_capacity=None).queue_capacity is None
        # Original untouched throughout.
        assert cpu_cluster.queue_capacity is None
        assert cpu_cluster.max_batch_size == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_replicas": 0},
            {"max_batch_size": 0},
            {"batch_timeout_s": -1.0},
            {"queue_capacity": 0},
        ],
    )
    def test_with_options_validates_overrides(self, cpu_cluster, kwargs):
        with pytest.raises(ValueError):
            cpu_cluster.with_options(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_replicas": 0},
            {"max_batch_size": 0},
            {"batch_timeout_s": -1.0},
            {"queue_capacity": 0},
        ],
    )
    def test_bad_cluster_parameters_rejected(self, two_tenants, kwargs):
        with pytest.raises(ValueError):
            Cluster(two_tenants, backend="cpu", **kwargs)

    def test_unknown_backend_rejected(self, two_tenants):
        with pytest.raises(KeyError, match="unknown backend"):
            Cluster(two_tenants, backend="tpu")


# ---------------------------------------------------------------------------
# The headline claim: SLO-aware dispatch beats round-robin under bursts
# ---------------------------------------------------------------------------
class TestSloAwareDispatch:
    @staticmethod
    def _bursty_report(policy: str):
        tenants = [
            Workload("tight", model="GIN", dataset="HEP", num_graphs=4, seed=1,
                     priority=1),
            Workload("loose", model="GCN", dataset="MolHIV", num_graphs=4, seed=2),
        ]
        cluster = Cluster(tenants, backend="cpu", num_replicas=2, policy=policy)
        # Deadlines relative to each tenant's own measured service time:
        # little slack for the trigger tenant, plenty for the other.
        tenants[0].deadline_s = 3.0 * cluster.services["tight"].mean_service_s()
        tenants[1].deadline_s = 60.0 * cluster.services["loose"].mean_service_s()
        rate = 0.75 * 2 / cluster.mean_service_s()  # transient overload only
        requests = LoadGenerator.bursty(tenants, rate, seed=0).generate(duration_s=1.0)
        return cluster.serve(requests, duration_s=1.0)

    def test_edf_misses_strictly_fewer_deadlines_than_round_robin(self):
        round_robin = self._bursty_report("round_robin")
        edf = self._bursty_report("edf")
        assert round_robin.deadline_miss_rate > 0  # the scenario is actually hard
        assert edf.deadline_miss_rate < round_robin.deadline_miss_rate


# ---------------------------------------------------------------------------
# Report export
# ---------------------------------------------------------------------------
class TestServingReport:
    def test_to_dict_json_and_csv(self, cpu_cluster, two_tenants, tmp_path):
        import json

        requests = LoadGenerator.poisson(two_tenants, 2000.0, seed=4).generate(
            duration_s=0.02
        )
        report = cpu_cluster.serve(requests, duration_s=0.02)
        payload = json.loads(report.to_json())
        assert payload["replicas"] == 2
        assert payload["submitted"] == payload["completed"] + payload["dropped"]
        assert set(payload["tenants"]) == {"trigger", "screening"}
        for row in payload["tenants"].values():
            assert row["p50_latency_ms"] <= row["p99_latency_ms"] + 1e-12

        path = tmp_path / "serving.csv"
        text = report.to_csv(str(path))
        assert path.read_text() == text
        assert text.splitlines()[0].startswith("tenant,")
        assert len(text.strip().splitlines()) == 3  # header + 2 tenants

    def test_queue_depth_series_shapes(self, cpu_cluster, two_tenants):
        requests = LoadGenerator.poisson(two_tenants, 2000.0, seed=4).generate(
            duration_s=0.02
        )
        report = cpu_cluster.serve(requests, duration_s=0.02)
        series = report.queue_depth_series()
        assert series["time_s"].shape == series["depth"].shape
        assert np.all(np.diff(series["time_s"]) >= 0)
        assert report.max_queue_depth == int(series["depth"].max())


# ---------------------------------------------------------------------------
# Optimised dispatcher vs the reference implementation
# ---------------------------------------------------------------------------
class TestReferenceContract:
    """The heap-lane dispatcher must match ``reference_serve`` bit for bit."""

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded", "edf"])
    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"num_replicas": 3},
            {"max_batch_size": 4},
            {"max_batch_size": 4, "batch_timeout_s": 2e-4},
            {"max_batch_size": 3, "batch_timeout_s": 5e-5, "queue_capacity": 12},
        ],
    )
    def test_bit_identical_reports(self, two_tenants, policy, options):
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=2, policy=policy
        ).with_options(**options)
        rate = 1.3 * cluster.num_replicas / cluster.mean_service_s()
        requests = LoadGenerator.bursty(two_tenants, rate, seed=7).generate(
            num_requests=120
        )
        assert_reports_identical(
            cluster.serve(requests, duration_s=0.05),
            reference_serve(cluster, requests, duration_s=0.05),
        )

    def test_bit_identical_under_overload(self, two_tenants):
        """A deep queue exercises the heap lanes far from the FIFO case."""
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=1, policy="edf")
        rate = 2.5 / cluster.mean_service_s()
        requests = LoadGenerator.poisson(two_tenants, rate, seed=3).generate(
            num_requests=250
        )
        fast = cluster.serve(requests)
        assert fast.max_queue_depth > 20  # the scenario must actually queue
        assert_reports_identical(fast, reference_serve(cluster, requests))


# ---------------------------------------------------------------------------
# The same contract on a deep transient-overload queue
# ---------------------------------------------------------------------------
#: Deep enough for the queue to peak above 1,000 (1,172 at seed 0); the
#: O(n^2 log n) oracle makes every extra request expensive.
NUM_OVERLOAD_REQUESTS = 4_000


def _overload_scenario():
    """Bursty arrivals at ~1.6x pool capacity with EDF dispatch."""
    tenants = [
        Workload("trigger", model="GIN", dataset="MolHIV", num_graphs=4, seed=1,
                 deadline_s=2e-3, priority=1, share=2.0),
        Workload("screening", model="GCN", dataset="MolHIV", num_graphs=4, seed=2,
                 deadline_s=4e-3),
    ]
    cluster = Cluster(tenants, backend="cpu", num_replicas=2, policy="edf")
    rate = 1.6 * cluster.num_replicas / cluster.mean_service_s()
    requests = LoadGenerator.bursty(tenants, rate, seed=0).generate(
        num_requests=NUM_OVERLOAD_REQUESTS // len(tenants)
    )
    assert len(requests) == NUM_OVERLOAD_REQUESTS
    return cluster, requests


def test_serve_dispatcher_bit_identical_on_deep_queue():
    """Far from the FIFO case, the heap lanes still match the oracle."""
    cluster, requests = _overload_scenario()
    fast = cluster.serve(requests)
    assert_reports_identical(fast, reference_serve(cluster, requests))
    assert fast.max_queue_depth >= 1000, (
        "scenario no longer builds a deep queue; the test would not "
        f"exercise the hot path (max depth {fast.max_queue_depth})"
    )


def test_serve_dispatcher_bit_identical_with_batching():
    """Dynamic batching exercises the per-tenant batch selection path."""
    cluster, requests = _overload_scenario()
    batched = cluster.with_options(max_batch_size=4, batch_timeout_s=100e-6)
    # The oracle is quadratic and batching makes it scan tenants too, so
    # 2k requests keep it affordable.
    subset = requests[:2000]
    fast = batched.serve(subset)
    assert_reports_identical(fast, reference_serve(batched, subset))
    assert fast.mean_batch_size > 1.0, "batching never engaged in the scenario"


# ---------------------------------------------------------------------------
# One tenant queued both pinned and shared: the two-lane merge
# ---------------------------------------------------------------------------
class _SplitLanePolicy(DispatchPolicy):
    """Pins odd-``seq`` requests to a live replica and leaves even ones shared.

    The key ``(graph_index, -priority)`` is not monotone within a tenant, so
    a new arrival often becomes its tenant's head in a lane.
    """

    name = "split_lane"

    def assign(self, item, state):
        live = state.live
        if item.seq % 2 == 0 or not live:
            return None
        return live[(item.seq // 2) % len(live)]

    def order_key(self, item):
        return (item.request.graph_index, -item.request.priority)


@pytest.fixture
def six_tenants(molhiv_sample, hep_sample):
    models = ("GCN", "GIN", "GAT")
    return [
        Workload(
            f"t{i}",
            model=models[i % 3],
            dataset=molhiv_sample if i % 2 else hep_sample,
            deadline_s=1e-3 * (1 + i % 3),
            priority=i % 3,
        )
        for i in range(6)
    ]


def _assert_sketch_counts_match(cluster, requests, exact):
    sketch = cluster.serve(requests, mode="sketch")
    assert (sketch.submitted, sketch.completed, sketch.dropped, sketch.shed) == (
        exact.submitted,
        exact.completed,
        exact.dropped,
        exact.shed,
    )
    assert sketch.max_queue_depth == exact.max_queue_depth
    np.testing.assert_array_equal(
        sketch.per_replica_utilisation, exact.per_replica_utilisation
    )
    for name, outcome in exact.tenants.items():
        assert sketch.tenants[name].completed == outcome.completed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "max_batch, timeout_s, capacity",
    [(1, 0.0, None), (4, 0.0, None), (4, 100e-6, None), (3, 50e-6, 40), (8, 200e-6, None)],
)
def test_two_lane_merge_matches_reference(six_tenants, max_batch, timeout_s, capacity, seed):
    """Tenants queued in a replica's own lane and the shared lane at once."""
    cluster = Cluster(
        six_tenants,
        backend="cpu",
        num_replicas=3,
        policy=_SplitLanePolicy(),
        max_batch_size=max_batch,
        batch_timeout_s=timeout_s,
        queue_capacity=capacity,
    )
    rate = 1.2 * cluster.num_replicas / cluster.mean_service_s()
    requests = LoadGenerator.bursty(six_tenants, rate, seed=seed).generate(
        num_requests=40
    )
    exact = cluster.serve(requests)
    assert_reports_identical(exact, reference_serve(cluster, requests))
    _assert_sketch_counts_match(cluster, requests, exact)


def test_two_lane_merge_when_every_replica_fails_and_recovers(six_tenants):
    """Arrivals while no replica is live queue shared; later ones are pinned.

    Three whole-pool outages, each followed by staggered recoveries, so a
    recovered replica serves its pinned lane and the shared backlog at once.
    """
    base = Cluster(
        six_tenants,
        backend="cpu",
        num_replicas=3,
        policy="least_loaded",
        max_batch_size=4,
        batch_timeout_s=100e-6,
    )
    mean = base.mean_service_s()
    events = ";".join(
        f"fail@{(10 + 30 * c) * mean}:r{r};recover@{(20 + 30 * c + 4 * r) * mean}:r{r}"
        for c in range(3)
        for r in range(3)
    )
    cluster = base.with_options(faults=FaultSchedule.parse(events, num_replicas=3))
    rate = 1.2 * cluster.num_replicas / mean
    requests = LoadGenerator.bursty(six_tenants, rate, seed=0).generate(
        num_requests=60
    )
    exact = cluster.serve(requests)
    assert exact.event_counts["failures"] == 9 and exact.event_counts["recoveries"] == 9
    assert exact.mean_batch_size > 1.0, "batching never engaged in the scenario"
    assert_reports_identical(exact, reference_serve(cluster, requests))
    _assert_sketch_counts_match(cluster, requests, exact)


# ---------------------------------------------------------------------------
# The dispatcher's record of a replica's last no-batch decision
# ---------------------------------------------------------------------------
class _HalfPinnedPolicy(DispatchPolicy):
    """Pins even-indexed tenants least-loaded; odd-indexed ones stay shared."""

    name = "half_pinned"

    def assign(self, item, state):
        if item.request.tenant_index % 2:
            return None
        return LeastLoadedPolicy.assign(self, item, state)

    def order_key(self, item):
        return ()


class _ScriptedPolicy(DispatchPolicy):
    """Pins the request of arrival order ``seq`` to ``pins[seq]``; a pin
    whose replica is not live (a re-route) falls back to the first live one."""

    name = "scripted"

    def __init__(self, pins):
        self.pins = pins

    def assign(self, item, state):
        pin = self.pins[item.seq]
        if pin is None or pin in state.live:
            return pin
        return state.live[0] if state.live else None

    def order_key(self, item):
        return ()


def _record_scenario(tenants, kind, timeout_services, seed):
    """A batching cluster (timeout in mean service times) and its load,
    built so that some replica's recorded decision could go stale."""
    if kind == "carbon_hold":
        # Deferrable tenants with deadline slack to wait for a clean grid.
        tenants = [
            Workload(
                w.tenant,
                model=w.model,
                dataset=w.dataset,
                deadline_s=1.0 if i % 3 == 2 else w.deadline_s,
                priority=w.priority,
                tenant_class="deferrable" if i % 3 == 2 else "realtime",
            )
            for i, w in enumerate(tenants)
        ]
    policy = {
        "half_pinned": _HalfPinnedPolicy(),
        "partial_batches": _SplitLanePolicy(),
        "carbon_hold": "round_robin",
    }.get(kind, "least_loaded")
    replicas = 4 if kind in ("partial_batches", "scale_down_drain") else 3
    base = Cluster(
        tenants,
        backend="cpu",
        num_replicas=replicas,
        policy=policy,
        max_batch_size=6 if kind == "partial_batches" else 4,
    )
    mean = base.mean_service_s()
    options = {"batch_timeout_s": timeout_services * mean}
    utilisation = 1.0
    if kind == "partial_batches":
        utilisation = 0.6
    elif kind == "crash_reroute":
        options["faults"] = FaultSchedule.parse(
            f"fail@{15 * mean}:r1;recover@{30 * mean}:r1", num_replicas=3
        )
        utilisation = 0.7
    elif kind == "scale_down_drain":
        options["autoscaler"] = ReactiveAutoscaler(
            min_replicas=1,
            max_replicas=4,
            interval_s=3 * mean,
            provision_delay_s=2 * mean,
            scale_down_hysteresis_s=3 * mean,
        )
        utilisation = 0.5
    elif kind == "carbon_hold":
        options["power"] = PowerModel.parse("busy=2.0,idle=0.5")
        options["carbon"] = CarbonIntensity.diurnal(period_s=30 * mean)
        options["admission"] = CarbonWaitingAdmission(carbon_threshold=350.0)
        utilisation = 0.8
    cluster = base.with_options(**options)
    rate = utilisation * replicas / mean
    requests = LoadGenerator.bursty(tenants, rate, seed=seed).generate(num_requests=60)
    return cluster, requests


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "kind, timeout_services",
    [
        ("half_pinned", 2.0),
        ("partial_batches", 2.0),
        ("partial_batches", 30.0),
        ("crash_reroute", 2.0),
        ("scale_down_drain", 2.0),
        ("carbon_hold", 2.0),
    ],
)
def test_decision_record_scenarios_match_reference(six_tenants, kind, timeout_services, seed):
    """Replicas idle on partial batches while lanes change around them.

    A replica whose last batch selection released nothing is not re-decided
    until one of its two lanes changes or its release time arrives; each
    scenario changes lanes in another way (shared-lane admissions and takes,
    a crash re-routing a pinned lane, a scale-down drain, a carbon hold
    released into a lane) and must still match the oracle bit for bit.
    """
    cluster, requests = _record_scenario(six_tenants, kind, timeout_services, seed)
    exact = cluster.serve(requests)
    assert_reports_identical(exact, reference_serve(cluster, requests))
    _assert_sketch_counts_match(cluster, requests, exact)
    assert exact.mean_batch_size > 1.0, "batching never engaged in the scenario"
    if kind == "crash_reroute":
        assert exact.event_counts["failures"] == 1
    elif kind == "scale_down_drain":
        assert exact.event_counts["scale_down_events"] > 0
    elif kind == "carbon_hold":
        unheld = cluster.with_options(admission=None).serve(requests)
        assert [r.start_s for r in exact.records] != [r.start_s for r in unheld.records]


def test_decision_record_is_redone_after_a_shared_lane_take(molhiv_sample):
    """A take from the shared lane by another replica invalidates the record.

    Replica 0 waits on shared ``a@0`` (release ``T``) and ``b@0.1``; replica
    1 then fills a batch of ``a`` from its own lane plus the shared one.  At
    ``a@0.3`` replica 0 must re-decide: its earliest release moved to
    ``0.1 + T``, and the oracle schedules that timer instant.
    """
    tenants = [
        Workload("a", model="GCN", dataset=molhiv_sample),
        Workload("b", model="GIN", dataset=molhiv_sample),
    ]
    base = Cluster(
        tenants,
        backend="cpu",
        num_replicas=2,
        max_batch_size=2,
        policy=_ScriptedPolicy({0: None, 1: None, 2: 1, 3: 1, 4: None}),
    )
    mean = base.mean_service_s()
    cluster = base.with_options(batch_timeout_s=5 * mean)
    requests = LoadGenerator(
        tenants,
        {
            "a": TraceArrivals([0.0, 0.2 * mean, 0.3 * mean]),
            "b": TraceArrivals([0.1 * mean, 0.4 * mean]),
        },
    ).generate(num_requests=3)
    exact = cluster.serve(requests)
    assert_reports_identical(exact, reference_serve(cluster, requests))
    assert requests[1].arrival_s + cluster.batch_timeout_s in exact.queue_depth_times_s


def test_decision_record_is_redone_after_a_drain(molhiv_sample):
    """A crash draining a replica's own lane invalidates its record.

    Replica 0 waits on its own ``a@0`` and shared ``b@0.1``; it fails (``a``
    is re-routed to replica 1) and recovers.  Its view is now ``b`` alone,
    so it must re-decide at once: the oracle schedules ``b``'s release
    before a full batch of ``d`` keeps replica 0 busy past it.
    """
    tenants = [Workload(name, model="GCN", dataset=molhiv_sample) for name in "abcd"]
    base = Cluster(
        tenants,
        backend="cpu",
        num_replicas=2,
        max_batch_size=2,
        policy=_ScriptedPolicy({0: 0, 1: 1, 2: 1, 3: None, 4: 0, 5: 0}),
    )
    mean = base.mean_service_s()
    cluster = base.with_options(
        batch_timeout_s=mean,
        faults=FaultSchedule.parse(
            f"fail@{0.2 * mean}:r0;recover@{0.3 * mean}:r0", num_replicas=2
        ),
    )
    requests = LoadGenerator(
        tenants,
        {
            "a": TraceArrivals([0.0]),
            "b": TraceArrivals([0.1 * mean]),
            "c": TraceArrivals([0.0, 0.0]),
            "d": TraceArrivals([0.4 * mean, 0.4 * mean]),
        },
    ).generate(duration_s=mean)
    exact = cluster.serve(requests)
    assert_reports_identical(exact, reference_serve(cluster, requests))
    b_arrival = next(r.arrival_s for r in requests if r.tenant == "b")
    assert b_arrival + cluster.batch_timeout_s in exact.queue_depth_times_s


def test_reroute_keeps_first_admission_order_after_a_carbon_hold(molhiv_sample):
    """A held request admitted late is re-routed after earlier admissions.

    ``deferred@0`` is held on a dirty grid while ``live@1,2,3`` queue on
    replicas 0, 1, 2; the clean edge at 10 releases it round-robin onto
    replica 0, behind ``live@1``.  When replica 0 fails, its lane re-routes
    in admission order (``live@1`` to replica 1, then ``deferred`` to
    replica 2), as the oracle's queue list does, not in arrival order.
    """
    tenants = [
        Workload(
            "deferred", model="GIN", dataset=molhiv_sample, deadline_s=1.0,
            tenant_class="deferrable",
        ),
        Workload("live", model="GCN", dataset=molhiv_sample, deadline_s=1.0),
    ]
    base = Cluster(
        tenants, backend="cpu", num_replicas=3, policy="round_robin", max_batch_size=8
    )
    mean = base.mean_service_s()
    cluster = base.with_options(
        batch_timeout_s=100 * mean,
        carbon=CarbonIntensity(times_s=(0.0, 10 * mean), intensities=(500.0, 100.0)),
        admission=CarbonWaitingAdmission(carbon_threshold=300.0),
        faults=FaultSchedule.parse(f"fail@{12 * mean}:r0", num_replicas=3),
    )
    requests = LoadGenerator(
        tenants,
        {
            "deferred": TraceArrivals([0.0]),
            "live": TraceArrivals([mean, 2 * mean, 3 * mean]),
        },
    ).generate(num_requests=4)
    exact = cluster.serve(requests)
    assert_reports_identical(exact, reference_serve(cluster, requests))
    _assert_sketch_counts_match(cluster, requests, exact)
    replica_of = {(r.request.tenant, r.request.index): r.replica for r in exact.records}
    assert replica_of[("live", 0)] == 1 and replica_of[("deferred", 0)] == 2


def test_drain_orders_a_release_before_the_same_instants_arrivals():
    """Controls run before arrivals at one instant, so a request released
    from a carbon hold at ``t`` was queued before every arrival at ``t``."""

    def item(seq, arrival_s):
        request = ServingRequest("t", 0, seq, arrival_s, 0, None)
        return _QueueItem(request=request, seq=seq, service_s=1.0, replica=0)

    arrived_at_release, released, arrived_before = item(5, 1.0), item(0, 0.0), item(3, 0.5)
    released.late = (1.0, 0, 0)
    lanes = _Lanes(1)
    for queued in (arrived_at_release, released, arrived_before):
        lanes.admit(queued, (queued.seq,))
    assert [entry[1] for entry in lanes.drain(0)] == [
        arrived_before,
        released,
        arrived_at_release,
    ]


def test_batch_timer_set_holds_only_pending_times(six_tenants, monkeypatch):
    """A fired batch timer leaves the dedup set, so sketch mode's memory
    stays bounded by the backlog rather than growing with the run."""
    tenants = six_tenants[:4]
    base = Cluster(
        tenants, backend="cpu", num_replicas=2, policy="least_loaded", max_batch_size=4
    )
    cluster = base.with_options(batch_timeout_s=0.5 * base.mean_service_s())
    stale = []
    dispatch = Cluster._dispatch

    def checked(self, now, state, lanes, busy_time, sink, events, scheduled_timers, *rest):
        stale.append(sum(1 for t in scheduled_timers if t <= now))
        return dispatch(self, now, state, lanes, busy_time, sink, events, scheduled_timers, *rest)

    monkeypatch.setattr(Cluster, "_dispatch", checked)
    rate = 0.9 * cluster.num_replicas / cluster.mean_service_s()
    report = cluster.serve_stream(LoadGenerator.bursty(tenants, rate, seed=0), num_requests=500)
    assert report.submitted == 2000 and report.mean_batch_size > 1.0
    assert max(stale) == 0, f"{max(stale)} fired timer times still in the set"


# ---------------------------------------------------------------------------
# A request is a row: float-list profiles, records built only when read
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["flowgnn", "cpu", "gpu", "roofline"])
def test_service_float_lists_are_the_measured_doubles(molhiv_sample, hep_sample, backend):
    """Dispatch indexes Python float lists; each is ``float(arr[i])`` of the
    measured array, for every graph at every batch size 1-8."""
    tenants = [
        Workload("molecules", model="GAT", dataset=molhiv_sample),
        Workload("jets", model="PNA", dataset=hep_sample),
    ]
    cluster = Cluster(tenants, backend=backend)
    for service in cluster.services.values():
        for batch_size in range(1, 9):
            measured, latencies, energies = service.profile(batch_size)
            assert len(latencies) == len(energies) == service.num_graphs
            assert [value.hex() for value in latencies] == [
                float(measured.latencies_s[i]).hex() for i in range(service.num_graphs)
            ]
            assert [value.hex() for value in energies] == [
                float(measured.energies_j[i]).hex() for i in range(service.num_graphs)
            ]


def test_exact_serve_builds_records_only_when_read(six_tenants, monkeypatch):
    """An exact run keeps per-request columns and constructs no
    ``ServingRecord``; reading ``records`` builds the oracle's list."""
    cluster = Cluster(
        six_tenants,
        backend="cpu",
        num_replicas=2,
        policy="edf",
        max_batch_size=8,
        batch_timeout_s=50e-6,
        queue_capacity=24,
    )
    rate = 1.5 * cluster.num_replicas / cluster.mean_service_s()
    requests = LoadGenerator.bursty(six_tenants, rate, seed=4).generate(num_requests=60)
    built = []
    init = ServingRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ServingRecord, "__init__", counted)
    report = cluster.serve(requests)
    assert built == []
    assert report.dropped > 0 and report.mean_batch_size > 1.0  # cap and batching engage
    records = report.records
    assert len(records) == report.completed == len(built)
    monkeypatch.undo()
    assert records == reference_serve(cluster, requests).records


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_dispatched_items_are_retired_in_both_modes(six_tenants, monkeypatch, mode):
    """Exact mode, like sketch mode, holds a queue item only until it is
    dispatched, dropped or shed: the event loop's ``items`` dict is empty
    when it builds the report."""
    import sys

    import repro.serve.cluster as cluster_module

    held_at_report = []

    def counting(assemble):
        def assemble_and_count(*args, **kwargs):
            held_at_report.append(len(sys._getframe(1).f_locals["items"]))
            return assemble(*args, **kwargs)

        return assemble_and_count

    for name in ("assemble_report", "assemble_sketch_report"):
        monkeypatch.setattr(cluster_module, name, counting(getattr(cluster_module, name)))
    cluster = Cluster(
        six_tenants,
        backend="cpu",
        num_replicas=2,
        policy="edf",
        max_batch_size=8,
        batch_timeout_s=50e-6,
        queue_capacity=24,
    )
    rate = 1.5 * cluster.num_replicas / cluster.mean_service_s()
    requests = LoadGenerator.bursty(six_tenants, rate, seed=4).generate(num_requests=60)
    report = cluster.serve(requests, mode=mode)
    assert report.completed > 0 and report.dropped > 0
    assert held_at_report == [0]


#: Serves two requests, the second at a NaN time, through every scalar
#: path; prints each path's ``ValueError``.
_NAN_EVENT_SCRIPT = """
import math
from repro.serve import Cluster, ServingRequest, Workload, reference_serve

cluster = Cluster([Workload("a", model="GIN", num_graphs=2)], backend="cpu")
requests = [
    ServingRequest("a", 0, 0, 0.0, 0, 1e-3),
    ServingRequest("a", 0, 1, math.nan, 1, 1e-3),
]
for name, run in (
    ("exact", lambda: cluster.serve(requests)),
    ("sketch", lambda: cluster.serve(requests, mode="sketch")),
    ("reference", lambda: reference_serve(cluster, requests)),
):
    try:
        run()
    except ValueError as error:
        print(name, error)
"""


class TestNanEventTime:
    def test_nan_arrival_raises_instead_of_spinning(self):
        """A NaN instant drains no event (NaN == NaN is false), so the loop
        used to dispatch at it forever; now every scalar path raises.  The
        run is a subprocess under a 60 s budget, so a regression fails on
        the timeout instead of hanging the suite."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _NAN_EVENT_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["exact", "sketch", "reference"]
        assert all("an event time is NaN" in line for line in lines)


class TestInfiniteArrival:
    @pytest.mark.parametrize("path", ["exact", "reference"])
    @pytest.mark.parametrize("arrival", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_arrival_raises_naming_the_value(self, arrival, path):
        """An arrival at +inf used to be served at +inf (an infinite horizon
        and NaN utilisation), and one at -inf silently; both oracle paths now
        reject it with one ``ValueError`` that names the value."""
        cluster = Cluster([Workload("a", model="GIN", num_graphs=2)], backend="cpu")
        requests = [
            ServingRequest("a", 0, 0, 0.0, 0, 1e-3),
            ServingRequest("a", 0, 1, arrival, 1, 1e-3),
        ]
        run = {
            "exact": lambda: cluster.serve(requests),
            "reference": lambda: reference_serve(cluster, requests),
        }[path]
        with pytest.raises(ValueError, match=f"^arrival_s must be finite, got {arrival}$"):
            run()

    @pytest.mark.parametrize("path", ["exact", "reference"])
    @pytest.mark.parametrize("arrival", [math.inf, -math.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 1], ids=["listed-first", "listed-between"])
    def test_infinite_arrival_is_found_wherever_it_is_listed(self, position, arrival, path):
        """Both paths sort the requests before looking at the two ends, so an
        infinite arrival is found however the caller ordered the list: +inf
        listed first and either sign listed between two finite arrivals."""
        cluster = Cluster([Workload("a", model="GIN", num_graphs=2)], backend="cpu")
        requests = [ServingRequest("a", 0, i, i * 1e-3, 0, 1e-3) for i in range(2)]
        requests.insert(position, ServingRequest("a", 0, 2, arrival, 1, 1e-3))
        run = {
            "exact": lambda: cluster.serve(requests),
            "reference": lambda: reference_serve(cluster, requests),
        }[path]
        with pytest.raises(ValueError, match=f"^arrival_s must be finite, got {arrival}$"):
            run()
