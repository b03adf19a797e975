"""Tests for the end-to-end simulator and the FlowGNNAccelerator API."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchitectureConfig,
    FlowGNNAccelerator,
    ModelProfile,
    SimulationResult,
    estimate_resources,
    graph_loading_cycles,
    simulate_inference,
    weight_loading_cycles,
)
from repro.datasets import load_dataset
from repro.dse import SweepSpec
from repro.graph import molecule_like_graph
from repro.nn import MODEL_NAMES, build_gin, build_gin_virtual_node, build_model

# The corners of the Fig. 10 grid: every knob at its smallest and largest value.
FIG10_CORNERS = [
    ArchitectureConfig(
        apply_parallelism=apply, scatter_parallelism=scatter, num_nt_units=node, num_mp_units=edge
    )
    for apply, scatter, node, edge in itertools.product(
        *((min(values), max(values)) for values in SweepSpec.parallelism_grid().grid.values())
    )
]


class TestLoadingCosts:
    def test_graph_loading_scales_with_graph_size(self, rng):
        config = ArchitectureConfig()
        small = molecule_like_graph(10, rng, 9, 3)
        large = molecule_like_graph(100, rng, 9, 3)
        assert graph_loading_cycles(large, config) > graph_loading_cycles(small, config)

    def test_graph_loading_can_be_disabled(self, rng):
        graph = molecule_like_graph(10, rng, 9, 3)
        config = ArchitectureConfig(include_graph_loading=False)
        assert graph_loading_cycles(graph, config) == 0

    def test_weight_loading_proportional_to_parameters(self):
        config = ArchitectureConfig()
        small = build_model("GCN", input_dim=9, hidden_dim=16, num_layers=2)
        large = build_model("GCN", input_dim=9, hidden_dim=100, num_layers=5)
        assert weight_loading_cycles(large, config) > weight_loading_cycles(small, config)
        assert weight_loading_cycles(large, config) == pytest.approx(
            large.parameter_count() / config.loading_elements_per_cycle, abs=1.0
        )


class TestSimulationResult:
    def test_total_cycles_composition(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        assert result.total_cycles == (
            result.loading_cycles + result.compute_cycles + result.readout_cycles
        )
        assert result.latency_s == pytest.approx(
            result.total_cycles / 300e6, rel=1e-9
        )
        assert len(result.layer_timings) == gin_model.num_layers

    def test_amortised_cycles_decrease_with_stream_length(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        assert result.amortised_cycles(1) > result.amortised_cycles(1000)
        assert result.amortised_cycles(10**9) == pytest.approx(result.total_cycles, rel=1e-3)

    def test_amortised_cycles_single_graph_pays_full_weight_load(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        assert result.amortised_cycles(1) == pytest.approx(
            result.total_cycles + result.weight_loading_cycles
        )

    @pytest.mark.parametrize("stream_length", [0, -1, -1000])
    def test_amortised_cycles_rejects_nonpositive_stream(
        self, gin_model, molhiv_sample, stream_length
    ):
        result = simulate_inference(gin_model, molhiv_sample[0])
        with pytest.raises(ValueError, match="stream_length must be >= 1"):
            result.amortised_cycles(stream_length)

    def test_breakdown_keys_and_values(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        breakdown = result.breakdown()
        assert breakdown == {
            "graph_loading": result.loading_cycles,
            "layers": result.compute_cycles,
            "readout": result.readout_cycles,
            "weight_loading_one_time": result.weight_loading_cycles,
        }
        # Per-graph phases sum to total_cycles; the weight load stays separate.
        assert (
            breakdown["graph_loading"] + breakdown["layers"] + breakdown["readout"]
            == result.total_cycles
        )

    def test_utilisation_zero_for_empty_layer_list(self):
        """A result with no layers (degenerate model) reports 0% utilisation."""
        result = SimulationResult(
            model_name="empty",
            graph_name="none",
            config=ArchitectureConfig(),
            layer_timings=[],
            loading_cycles=10,
            readout_cycles=5,
            weight_loading_cycles=0,
        )
        assert result.nt_utilisation() == 0.0
        assert result.mp_utilisation() == 0.0
        assert result.compute_cycles == 0
        assert result.total_cycles == 15

    @pytest.mark.parametrize("dataset", ["MolHIV", "HEP"])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_utilisation_means_are_numpy_means(self, name, dataset):
        """Bit for bit ``float(np.mean(...))`` on every zoo model at every
        corner of the Fig. 10 grid."""
        data = load_dataset(dataset, num_graphs=2)
        model = build_model(name, input_dim=data.node_feature_dim, edge_input_dim=data.edge_feature_dim)
        for config in FIG10_CORNERS:
            for result in FlowGNNAccelerator(model, config).run_stream(data).per_graph_results:
                timings = result.layer_timings
                assert result.nt_utilisation().hex() == float(np.mean([t.nt_utilisation for t in timings])).hex()
                assert result.mp_utilisation().hex() == float(np.mean([t.mp_utilisation for t in timings])).hex()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.floats(-1e15, 1e15, allow_nan=False),
                st.floats(-1e-12, 1e-12, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_utilisation_mean_of_any_floats_is_numpy_mean(self, values):
        """Eight or more values take numpy's pairwise summation branch."""
        timings = [SimpleNamespace(nt_utilisation=v, mp_utilisation=-v) for v in values]
        result = SimulationResult("m", "g", ArchitectureConfig(), timings, 0, 0, 0)
        assert result.nt_utilisation().hex() == float(np.mean(values)).hex()
        assert result.mp_utilisation().hex() == float(np.mean([-v for v in values])).hex()

    def test_utilisation_bounded_for_real_simulation(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        assert 0.0 < result.nt_utilisation() <= 1.0
        assert 0.0 < result.mp_utilisation() <= 1.0

    def test_functional_output_matches_reference(self, gin_model, molhiv_sample):
        graph = molhiv_sample[0]
        result = simulate_inference(gin_model, graph, functional=True)
        reference = gin_model.forward(graph)
        np.testing.assert_allclose(
            result.functional_output.graph_output, reference.graph_output, atol=1e-12
        )

    def test_timing_independent_of_functional_flag(self, gin_model, molhiv_sample):
        graph = molhiv_sample[0]
        with_fn = simulate_inference(gin_model, graph, functional=True)
        without = simulate_inference(gin_model, graph, functional=False)
        assert with_fn.total_cycles == without.total_cycles

    def test_larger_graphs_take_longer(self, gin_model, rng):
        small = molecule_like_graph(10, rng, 9, 3)
        large = molecule_like_graph(80, rng, 9, 3)
        assert (
            simulate_inference(gin_model, large).total_cycles
            > simulate_inference(gin_model, small).total_cycles
        )

    def test_virtual_node_model_pays_extra_cycles(self, molhiv_sample):
        graph = molhiv_sample[0]
        gin = build_gin(input_dim=9, edge_input_dim=3, hidden_dim=32, num_layers=3, seed=1)
        gin_vn = build_gin_virtual_node(
            input_dim=9, edge_input_dim=3, hidden_dim=32, num_layers=3, seed=1
        )
        assert (
            simulate_inference(gin_vn, graph).total_cycles
            > simulate_inference(gin, graph).total_cycles
        )

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_every_model_simulates(self, name, molhiv_sample):
        model = build_model(
            name,
            input_dim=molhiv_sample.node_feature_dim,
            edge_input_dim=molhiv_sample.edge_feature_dim,
        )
        result = simulate_inference(model, molhiv_sample[0])
        assert result.total_cycles > 0
        assert 0.0 < result.latency_ms < 10.0  # sane magnitude for a 25-node molecule

        # The profile stands in for the model wherever only timing is read.
        profile = ModelProfile.of(model)
        timing_graph = profile.timing_graph(molhiv_sample[0])
        assert simulate_inference(profile, molhiv_sample[0], timing_graph=timing_graph) == result
        config = ArchitectureConfig()
        assert estimate_resources(profile, config) == estimate_resources(model, config)
        with pytest.raises(TypeError, match="functional"):
            simulate_inference(profile, molhiv_sample[0], functional=True)

    def test_parallelism_monotonicity(self, gcn_model, molhiv_sample):
        """The DSE premise: adding lanes or units never increases latency."""
        graph = molhiv_sample[0]
        base = simulate_inference(
            gcn_model,
            graph,
            ArchitectureConfig(num_nt_units=1, num_mp_units=1, apply_parallelism=1, scatter_parallelism=1),
        ).compute_cycles
        for kwargs in (
            dict(num_nt_units=2),
            dict(num_mp_units=2),
            dict(apply_parallelism=2),
            dict(scatter_parallelism=2),
            dict(num_nt_units=4, num_mp_units=4, apply_parallelism=4, scatter_parallelism=8),
        ):
            config = ArchitectureConfig(
                **{
                    "num_nt_units": 1,
                    "num_mp_units": 1,
                    "apply_parallelism": 1,
                    "scatter_parallelism": 1,
                    **kwargs,
                }
            )
            assert simulate_inference(gcn_model, graph, config).compute_cycles <= base


class TestAccelerator:
    def test_run_stream_aggregates(self, gin_model, molhiv_sample):
        accelerator = FlowGNNAccelerator(gin_model)
        result = accelerator.run_stream(list(molhiv_sample))
        assert result.num_graphs == len(molhiv_sample)
        assert result.mean_latency_ms > 0
        assert result.throughput_graphs_per_s > 0
        assert len(result.latencies_ms()) == result.num_graphs

    def test_mean_latency_includes_amortised_weights(self, gin_model, molhiv_sample):
        accelerator = FlowGNNAccelerator(gin_model)
        graphs = list(molhiv_sample)[:2]
        stream = accelerator.run_stream(graphs)
        raw_mean = float(np.mean([r.latency_ms for r in stream.per_graph_results]))
        assert stream.mean_latency_ms > raw_mean  # weight load spread over 2 graphs

    def test_latency_callable_matches_run(self, gin_model, molhiv_sample):
        accelerator = FlowGNNAccelerator(gin_model)
        graph = molhiv_sample[0]
        assert accelerator.latency_seconds(graph) == pytest.approx(
            accelerator.run(graph).latency_s
        )

    def test_infer_returns_reference_output(self, gin_model, molhiv_sample):
        accelerator = FlowGNNAccelerator(gin_model)
        graph = molhiv_sample[0]
        np.testing.assert_allclose(
            accelerator.infer(graph).graph_output,
            gin_model.forward(graph).graph_output,
            atol=1e-12,
        )

    def test_real_time_stream_statistics(self, gin_model, molhiv_sample):
        accelerator = FlowGNNAccelerator(gin_model)
        result = accelerator.run_stream(
            list(molhiv_sample), arrival_interval_s=1e-3, deadline_s=1e-3
        )
        stats = result.stream_statistics
        assert stats is not None
        # FlowGNN latency is far below a 1 ms arrival interval: no misses.
        assert stats.deadline_miss_count() == 0
        assert stats.mean_latency_s < 1e-3


class TestAcceleratorProfile:
    """The accelerator derives its model's profile once, when it is built."""

    @pytest.mark.parametrize("builder", [build_gin, build_gin_virtual_node], ids=["gin", "gin-vn"])
    def test_results_equal_the_per_graph_path(self, builder, molhiv_sample):
        model = builder(
            input_dim=molhiv_sample.node_feature_dim,
            edge_input_dim=molhiv_sample.edge_feature_dim,
            num_layers=3,
            hidden_dim=32,
            seed=5,
        )
        graphs = list(molhiv_sample)
        config = ArchitectureConfig(num_nt_units=3, num_mp_units=2)
        accelerator = FlowGNNAccelerator(model, config)
        stream = accelerator.run_stream(graphs)
        singles = [accelerator.run(graph) for graph in graphs]
        for graph, streamed, single in zip(graphs, stream.per_graph_results, singles):
            reference = simulate_inference(model, graph, config)
            for name in [f.name for f in dataclasses.fields(SimulationResult)]:
                assert getattr(streamed, name) == getattr(reference, name), name
                assert getattr(single, name) == getattr(reference, name), name
            assert streamed.total_cycles == reference.total_cycles
        assert stream.weight_loading_cycles == weight_loading_cycles(model, config)

    def test_sixteen_graph_measure_derives_one_profile(self, gin_model, monkeypatch):
        from repro.api import InferenceRequest, get_backend
        from repro.datasets import make_molhiv_like

        graphs = list(make_molhiv_like(num_graphs=16, seed=3))
        request = InferenceRequest(model=gin_model, dataset=graphs)
        derived = []  # every model ModelProfile.of derives a profile of
        original = ModelProfile.of.__func__

        def counting(cls, model):
            if not isinstance(model, ModelProfile):
                derived.append(model)
            return original(cls, model)

        monkeypatch.setattr(ModelProfile, "of", classmethod(counting))
        measurement = get_backend("flowgnn").measure(request)
        assert measurement.latencies_s.size == 16
        assert derived == [gin_model]


class TestAcceleratorScheduleCache:
    def test_repeated_structures_hit_the_cache(self, gin_model, molhiv_sample):
        """A stream of structurally identical graphs schedules each layer once."""
        graph = molhiv_sample[0]
        accelerator = FlowGNNAccelerator(gin_model)
        stream = accelerator.run_stream([graph] * 8)
        info = accelerator.schedule_cache_info
        # Only distinct (structure, spec) pairs are ever computed — identical
        # hidden layers dedupe even within the first pass.
        specs = gin_model.layer_specs()
        unique_specs = len(set(specs))
        assert info["misses"] == unique_specs
        assert info["hits"] == 8 * len(specs) - unique_specs
        # Cached schedules are the reference schedules: identical latencies.
        latencies = {r.total_cycles for r in stream.per_graph_results}
        assert len(latencies) == 1

    def test_cached_results_match_uncached_reference(self, gin_model, molhiv_sample):
        from repro.arch import simulate_inference

        graphs = list(molhiv_sample)[:4]
        accelerator = FlowGNNAccelerator(gin_model)
        cached = accelerator.run_stream(graphs + graphs)
        reference = [simulate_inference(gin_model, g, accelerator.config) for g in graphs]
        for i, result in enumerate(cached.per_graph_results):
            assert result.total_cycles == reference[i % len(graphs)].total_cycles

    def test_cache_info_empty_before_first_run(self, gin_model):
        accelerator = FlowGNNAccelerator(gin_model)
        assert accelerator.schedule_cache_info == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
        }
