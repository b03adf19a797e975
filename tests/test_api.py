"""Tests for the unified inference API (:mod:`repro.api`).

The heart of this file is the cross-backend contract test: every registered
backend must return a well-formed :class:`InferenceReport` for the *same*
:class:`InferenceRequest` — that is the property the paper's head-to-head
platform comparison rests on.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.api import (
    BACKEND_NAMES,
    Backend,
    InferenceRequest,
    get_backend,
    register_backend,
    resolve_all,
)
from repro.api import request as api_request
from repro.arch import FlowGNNAccelerator


@pytest.fixture
def molhiv_request(molhiv_sample):
    """One request shared verbatim by every backend in the contract test."""
    return InferenceRequest(
        model="GCN",
        dataset=molhiv_sample,
        arrival_interval_s=1e-3,
        deadline_s=5e-3,
    )


# ---------------------------------------------------------------------------
# Request validation and resolution
# ---------------------------------------------------------------------------
class TestInferenceRequest:
    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown model"):
            InferenceRequest(model="Transformer", dataset="MolHIV")

    def test_unknown_dataset_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            InferenceRequest(model="GIN", dataset="ImageNet")

    def test_model_and_dataset_names_normalised(self):
        request = InferenceRequest(model="gin_vn", dataset="molhiv")
        assert request.model == "GIN+VN"
        assert request.dataset == "MolHIV"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"num_graphs": 0},
            {"scale": 1.5},
            {"arrival_interval_s": -1.0},
            {"deadline_s": 0.0},
        ],
    )
    def test_bad_run_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InferenceRequest(model="GIN", dataset="MolHIV", **kwargs)

    def test_parallelism_dict_resolves_to_config(self):
        request = InferenceRequest(
            model="GIN",
            dataset="MolHIV",
            config={"p_node": 4, "p_edge": 8, "clock_mhz": 200.0},
        )
        assert request.config.num_nt_units == 4
        assert request.config.num_mp_units == 8
        assert request.config.clock_mhz == 200.0

    def test_unknown_config_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown config knob"):
            InferenceRequest(model="GIN", dataset="MolHIV", config={"p_warp": 2})

    def test_resolution_builds_model_for_dataset_dims(self):
        resolved = InferenceRequest(model="GIN", dataset="MolHIV", num_graphs=2).resolve()
        assert resolved.model.name == "GIN"
        assert len(resolved.graphs) == 2
        assert resolved.dataset_name == "MolHIV"

    def test_model_instance_and_graph_list_pass_through(self, gin_model, molhiv_sample):
        graphs = list(molhiv_sample)[:3]
        resolved = InferenceRequest(model=gin_model, dataset=graphs).resolve()
        assert resolved.model is gin_model
        assert resolved.graphs == graphs

    def test_resolution_is_shared_and_freed_with_the_request(self):
        """Resolving twice shares the model and graphs; dropping the request
        frees them without waiting for the cycle collector."""
        request = InferenceRequest(model="GIN", dataset="MolHIV", num_graphs=2)
        first, second = request.resolve(), request.resolve()
        assert first.model is second.model and first.graphs is second.graphs
        assert first.request is request
        model = weakref.ref(first.model)
        gc.disable()
        try:
            del request, first, second
            assert model() is None
        finally:
            gc.enable()

    def test_empty_graph_list_with_model_name_rejected(self):
        with pytest.raises(ValueError, match="empty graph list"):
            InferenceRequest(model="GIN", dataset=[]).resolve()


class TestResolveAll:
    """``resolve_all`` resolves each distinct registry key once and shares
    the model and graph list among the requests with that key."""

    @staticmethod
    def _request(**overrides):
        kwargs = {"model": "GIN", "dataset": "MolHIV", "num_graphs": 2, "seed": 3}
        kwargs.update(overrides)
        return InferenceRequest(**kwargs)

    def test_equal_keys_share_the_model_and_graphs(self):
        # batch size, config and deadline are not part of the key.
        requests = [
            self._request(),
            self._request(batch_size=4, deadline_s=1e-3),
            self._request(config={"p_node": 2}),
        ]
        resolve_all(requests)
        first, *rest = (request.resolve() for request in requests)
        for other in rest:
            assert other.model is first.model and other.graphs is first.graphs

    @pytest.mark.parametrize(
        "overrides",
        [{"seed": 4}, {"num_graphs": 3}, {"dataset": "HEP"}, {"model": "GCN"}],
        ids=["seed", "num_graphs", "dataset", "model"],
    )
    def test_a_different_key_gets_its_own_parts(self, overrides):
        base, other = self._request(), self._request(**overrides)
        resolve_all([base, other])
        base, other = base.resolve(), other.resolve()
        # Not even the graph list is shared across models.
        assert other.model is not base.model and other.graphs is not base.graphs

    def test_a_resolved_request_keeps_its_parts_and_lends_them(self):
        unresolved, resolved = self._request(), self._request()
        parts = resolved.resolve()
        resolve_all([unresolved, resolved, self._request(batch_size=2)])
        assert resolved.resolve().model is parts.model
        assert unresolved.resolve().model is parts.model
        assert unresolved.resolve().graphs is parts.graphs

    def test_two_resolved_requests_keep_their_own_parts(self):
        first, second = self._request(), self._request()
        models = [first.resolve().model, second.resolve().model]
        resolve_all([first, second])
        assert [first.resolve().model, second.resolve().model] == models
        assert models[0] is not models[1]

    def test_a_request_naming_an_instance_resolves_on_its_own(self, gin_model, molhiv_sample):
        graphs = list(molhiv_sample)[:2]
        named = self._request()
        with_model = InferenceRequest(model=gin_model, dataset="MolHIV", num_graphs=2, seed=3)
        with_graphs = InferenceRequest(model="GIN", dataset=graphs, seed=3)
        resolve_all([named, with_model, with_graphs])
        assert with_model.resolve().model is gin_model
        assert with_model.resolve().graphs is not named.resolve().graphs
        assert with_graphs.resolve().graphs == graphs
        assert with_graphs.resolve().model is not named.resolve().model

    def test_load_dataset_runs_once_per_distinct_key(self, monkeypatch):
        calls = []
        load = api_request.load_dataset

        def counted(name, **kwargs):
            calls.append((name, kwargs["num_graphs"], kwargs["seed"]))
            return load(name, **kwargs)

        monkeypatch.setattr(api_request, "load_dataset", counted)
        requests = [self._request(seed=seed % 2, num_graphs=2) for seed in range(6)]
        requests.append(self._request(dataset="HEP"))
        resolve_all(requests)
        assert calls == [("MolHIV", 2, 0), ("MolHIV", 2, 1), ("HEP", 2, 3)]
        for request in requests:
            request.resolve()
        assert len(calls) == 3

    def test_shared_parts_are_freed_with_the_last_request(self):
        requests = [self._request() for _ in range(3)]
        resolve_all(requests)
        model = weakref.ref(requests[0].resolve().model)
        gc.disable()
        try:
            del requests[:2]
            assert model() is not None
            del requests
            assert model() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# The cross-backend contract
# ---------------------------------------------------------------------------
class TestBackendContract:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_every_backend_returns_a_well_formed_report(self, name, molhiv_request, molhiv_sample):
        report = get_backend(name).run(molhiv_request)
        assert report.backend == name
        assert report.model == "GCN"
        assert report.num_graphs == len(molhiv_sample)
        assert report.per_graph_latency_ms.shape == (len(molhiv_sample),)
        assert np.all(report.per_graph_latency_ms > 0)
        assert report.mean_latency_ms > 0
        assert report.p99_latency_ms > 0
        assert report.max_latency_ms >= report.p99_latency_ms
        assert report.throughput_graphs_per_s > 0
        assert report.energy_mj_per_graph > 0
        assert report.graphs_per_kilojoule > 0
        assert 0.0 <= report.deadline_miss_rate <= 1.0
        # The request asked for an arrival process: stream stats must exist.
        assert report.stream_statistics is not None

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_to_dict_and_json_round_trip(self, name, molhiv_request):
        report = get_backend(name).run(molhiv_request)
        payload = json.loads(report.to_json())
        assert payload == json.loads(json.dumps(report.to_dict(), default=str))
        for key in (
            "backend",
            "model",
            "dataset",
            "mean_latency_ms",
            "p99_latency_ms",
            "throughput_graphs_per_s",
            "energy_mj_per_graph",
            "deadline_miss_rate",
        ):
            assert key in payload

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_run_stream_always_attaches_statistics(self, name, molhiv_sample):
        request = InferenceRequest(model="GCN", dataset=molhiv_sample)
        report = get_backend(name).run_stream(request)
        assert report.stream_statistics is not None
        # run() without an arrival rate stays a pure latency measurement.
        assert get_backend(name).run(request).stream_statistics is None

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_satisfies_backend_protocol(self, name):
        assert isinstance(get_backend(name), Backend)

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu")

    def test_register_backend_extends_registry(self, molhiv_request):
        class EchoBackend:
            name = "echo-test"

            def run(self, request):
                return get_backend("roofline").run(request)

            def run_stream(self, request):
                return self.run(request)

        register_backend("echo-test", EchoBackend)
        try:
            assert "echo-test" in BACKEND_NAMES
            assert get_backend("echo-test").run(molhiv_request).mean_latency_ms > 0
        finally:
            from repro.api import backends

            backends._REGISTRY.pop("echo-test")
            BACKEND_NAMES.remove("echo-test")


# ---------------------------------------------------------------------------
# FlowGNN backend semantics
# ---------------------------------------------------------------------------
class TestFlowGNNBackend:
    def test_matches_direct_accelerator_numbers(self, gin_model, molhiv_sample):
        graphs = list(molhiv_sample)
        direct = FlowGNNAccelerator(gin_model).run_stream(graphs)
        report = get_backend("flowgnn").run(
            InferenceRequest(model=gin_model, dataset=graphs)
        )
        assert report.mean_latency_ms == pytest.approx(direct.mean_latency_ms, rel=1e-12)
        assert report.throughput_graphs_per_s == pytest.approx(
            direct.throughput_graphs_per_s, rel=1e-12
        )
        np.testing.assert_allclose(report.per_graph_latency_ms, direct.latencies_ms())

    def test_config_travels_with_the_request(self, gin_model, molhiv_sample):
        graphs = list(molhiv_sample)[:2]
        slow = get_backend("flowgnn").run(
            InferenceRequest(
                model=gin_model,
                dataset=graphs,
                config={"p_node": 1, "p_edge": 1, "p_apply": 1, "p_scatter": 1},
            )
        )
        fast = get_backend("flowgnn").run(
            InferenceRequest(
                model=gin_model,
                dataset=graphs,
                config={"p_node": 2, "p_edge": 4, "p_apply": 2, "p_scatter": 4},
            )
        )
        assert fast.mean_latency_ms < slow.mean_latency_ms

    def test_functional_outputs_attached_on_request(self, gin_model, molhiv_sample):
        graphs = list(molhiv_sample)[:2]
        report = get_backend("flowgnn").run(
            InferenceRequest(model=gin_model, dataset=graphs, functional=True)
        )
        assert report.functional_outputs is not None
        reference = gin_model.forward(graphs[0]).graph_output
        np.testing.assert_allclose(report.functional_outputs[0].graph_output, reference)

    def test_extras_report_resources_and_cache(self, molhiv_request):
        report = get_backend("flowgnn").run(molhiv_request)
        assert report.extras["dsp"] > 0
        assert "fits_u50" in report.extras
        assert report.extras["schedule_cache"]["misses"] > 0


# ---------------------------------------------------------------------------
# The serving contract: a trivial cluster IS run_stream
# ---------------------------------------------------------------------------
class TestServingContract:
    """A 1-replica, 1-tenant, no-batching cluster must reproduce
    ``Backend.run_stream`` bit for bit on every registered backend — the
    serving layer adds multiplexing, never a different timing model."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("policy", ["round_robin", "edf"])
    def test_single_replica_cluster_matches_run_stream_bitwise(
        self, name, policy, molhiv_request, molhiv_sample
    ):
        from repro.serve import Cluster, ConstantArrivals, LoadGenerator, Workload

        reference = get_backend(name).run_stream(molhiv_request)
        workload = Workload.from_request("tenant", molhiv_request)
        cluster = Cluster([workload], backend=name, num_replicas=1, policy=policy)
        requests = LoadGenerator(
            [workload], ConstantArrivals(molhiv_request.arrival_interval_s), seed=0
        ).generate(num_requests=len(molhiv_sample))
        served = cluster.serve(requests).tenants["tenant"].report

        np.testing.assert_array_equal(
            served.per_graph_latency_ms, reference.per_graph_latency_ms
        )
        np.testing.assert_array_equal(
            served.per_graph_energy_mj, reference.per_graph_energy_mj
        )
        assert served.one_time_overhead_ms == reference.one_time_overhead_ms
        assert served.mean_latency_ms == reference.mean_latency_ms
        assert served.p50_latency_ms == reference.p50_latency_ms
        assert served.p99_latency_ms == reference.p99_latency_ms
        assert served.max_latency_ms == reference.max_latency_ms
        assert served.throughput_graphs_per_s == reference.throughput_graphs_per_s
        assert served.energy_mj_per_graph == reference.energy_mj_per_graph
        assert served.deadline_miss_count == reference.deadline_miss_count
        assert served.deadline_miss_rate == reference.deadline_miss_rate
        assert served.max_queue_depth == reference.max_queue_depth
        np.testing.assert_array_equal(
            served.stream_statistics.per_graph_latency_s,
            reference.stream_statistics.per_graph_latency_s,
        )
        np.testing.assert_array_equal(
            served.stream_statistics.completion_times_s,
            reference.stream_statistics.completion_times_s,
        )
        np.testing.assert_array_equal(
            served.stream_statistics.queue_depth_trace,
            reference.stream_statistics.queue_depth_trace,
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_contract_holds_at_declared_batch_sizes_above_one(
        self, name, molhiv_sample
    ):
        """A workload whose request declares batch_size=8 (pre-batched
        upstream) must also reproduce run_stream bit for bit: the cluster
        measures at the declared batch size when it is not batching itself."""
        from repro.serve import Cluster, ConstantArrivals, LoadGenerator, Workload

        request = InferenceRequest(
            model="GCN",
            dataset=molhiv_sample,
            batch_size=8,
            arrival_interval_s=1e-3,
            deadline_s=5e-3,
        )
        reference = get_backend(name).run_stream(request)
        workload = Workload.from_request("tenant", request)
        cluster = Cluster([workload], backend=name, num_replicas=1)
        requests = LoadGenerator(
            [workload], ConstantArrivals(1e-3), seed=0
        ).generate(num_requests=len(molhiv_sample))
        served = cluster.serve(requests).tenants["tenant"].report
        assert served.batch_size == 8
        np.testing.assert_array_equal(
            served.per_graph_latency_ms, reference.per_graph_latency_ms
        )
        np.testing.assert_array_equal(
            served.per_graph_energy_mj, reference.per_graph_energy_mj
        )
        assert served.mean_latency_ms == reference.mean_latency_ms
        np.testing.assert_array_equal(
            served.stream_statistics.completion_times_s,
            reference.stream_statistics.completion_times_s,
        )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_burst_cluster_matches_run_stream_without_arrival_rate(
        self, name, molhiv_sample
    ):
        """No arrival interval means a burst at t=0 on both paths."""
        from repro.serve import Cluster, ConstantArrivals, LoadGenerator, Workload

        request = InferenceRequest(model="GCN", dataset=molhiv_sample)
        reference = get_backend(name).run_stream(request)
        workload = Workload.from_request("tenant", request)
        cluster = Cluster([workload], backend=name, num_replicas=1)
        requests = LoadGenerator(
            [workload], ConstantArrivals(0.0), seed=0
        ).generate(num_requests=len(molhiv_sample))
        served = cluster.serve(requests).tenants["tenant"].report
        np.testing.assert_array_equal(
            served.stream_statistics.completion_times_s,
            reference.stream_statistics.completion_times_s,
        )
        assert served.mean_latency_ms == reference.mean_latency_ms
        assert served.max_queue_depth == reference.max_queue_depth

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_measure_returns_the_report_numbers(self, name, molhiv_request):
        """``measure`` exposes exactly what ``run`` reports, in SI units."""
        measured = get_backend(name).measure(molhiv_request)
        report = get_backend(name).run(molhiv_request)
        np.testing.assert_array_equal(
            measured.latencies_s * 1e3, report.per_graph_latency_ms
        )
        np.testing.assert_array_equal(
            measured.energies_j * 1e3, report.per_graph_energy_mj
        )
        assert measured.one_time_overhead_s * 1e3 == report.one_time_overhead_ms


# ---------------------------------------------------------------------------
# Platform backend semantics
# ---------------------------------------------------------------------------
class TestPlatformBackends:
    def test_gpu_batching_amortises_overhead(self, molhiv_sample):
        bs1 = get_backend("gpu").run(InferenceRequest(model="GCN", dataset=molhiv_sample))
        bs64 = get_backend("gpu").run(
            InferenceRequest(model="GCN", dataset=molhiv_sample, batch_size=64)
        )
        assert bs64.mean_latency_ms < bs1.mean_latency_ms

    def test_roofline_bounds_the_gpu_from_below(self, molhiv_sample):
        request = InferenceRequest(model="GCN", dataset=molhiv_sample)
        roofline = get_backend("roofline").run(request)
        gpu = get_backend("gpu").run(request)
        assert roofline.mean_latency_ms < gpu.mean_latency_ms

    def test_deadline_misses_reported_for_slow_platforms(self, molhiv_sample):
        request = InferenceRequest(
            model="GCN",
            dataset=molhiv_sample,
            arrival_interval_s=100e-6,
            deadline_s=100e-6,
        )
        report = get_backend("cpu").run(request)
        assert report.deadline_miss_rate == 1.0
        assert report.max_queue_depth > 0


class TestMeasurementCache:
    def test_signature_is_stable_and_name_based(self):
        a = InferenceRequest(model="GIN", dataset="MolHIV", num_graphs=4, seed=3)
        b = InferenceRequest(model="gin", dataset="molhiv", num_graphs=4, seed=3)
        assert a.signature() == b.signature()  # names are canonicalised
        c = InferenceRequest(model="GIN", dataset="MolHIV", num_graphs=5, seed=3)
        assert a.signature() != c.signature()
        # A functional run carries functional outputs in its profile, so it
        # must not share a cache entry with the non-functional variant.
        d = InferenceRequest(
            model="GIN", dataset="MolHIV", num_graphs=4, seed=3, functional=True
        )
        assert a.signature() != d.signature()

    def test_signature_rejects_instances(self, molhiv_sample):
        request = InferenceRequest(model="GIN", dataset=molhiv_sample)
        with pytest.raises(ValueError, match="registry dataset name"):
            request.signature()

    def test_get_or_measure_hits_after_one_miss(self):
        from repro.api import MeasurementCache, get_backend

        cache = MeasurementCache()
        backend = get_backend("cpu")
        request = InferenceRequest(model="GIN", dataset="MolHIV", num_graphs=3, seed=0)
        calls = []

        def compute():
            calls.append(1)
            return backend.measure(request)

        first = cache.get_or_measure("cpu", request, 1, compute)
        second = cache.get_or_measure("cpu", request, 1, compute)
        assert len(calls) == 1 and second is first
        assert cache.info() == {"entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5}
        # A different batch size is a different profile.
        cache.get_or_measure("cpu", request, 2, compute)
        assert len(calls) == 2 and len(cache) == 2

    def test_uncacheable_requests_measure_every_time(self, molhiv_sample):
        from repro.api import MeasurementCache, get_backend

        cache = MeasurementCache()
        backend = get_backend("cpu")
        request = InferenceRequest(model="GIN", dataset=molhiv_sample)
        calls = []

        def compute():
            calls.append(1)
            return backend.measure(request)

        cache.get_or_measure("cpu", request, 1, compute)
        cache.get_or_measure("cpu", request, 1, compute)
        assert len(calls) == 2 and len(cache) == 0  # no stable key, no entry

    def test_snapshot_round_trips_through_pickle(self):
        import pickle

        from repro.api import MeasurementCache, get_backend, measurement_key

        cache = MeasurementCache()
        backend = get_backend("cpu")
        request = InferenceRequest(model="GCN", dataset="MolHIV", num_graphs=3, seed=1)
        measured = cache.get_or_measure(
            "cpu", request, 1, lambda: backend.measure(request)
        )
        clone = MeasurementCache(pickle.loads(pickle.dumps(cache.snapshot())))
        key = measurement_key("cpu", request, 1)
        assert key in clone
        restored = clone.get_or_measure("cpu", request, 1, lambda: None)
        np.testing.assert_array_equal(restored.latencies_s, measured.latencies_s)
