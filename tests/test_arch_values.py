"""A sweep point pays per distinct value: the cycle, resource and energy
models' tuple value types, one total per simulation result, and the
per-graph and per-profile terms derived once."""

import dataclasses
import itertools
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    ArchitectureConfig,
    ModelProfile,
    SimulationResult,
    StreamResult,
    estimate_energy,
    estimate_resources,
    graph_loading_cycles,
    simulate_inference,
    weight_loading_cycles,
)
from repro.arch.simulator import _readout_cycles
from repro.datasets import load_dataset
from repro.dse import SweepSpec
from repro.graph import Graph
from repro.nn import MODEL_NAMES, build_model

# The corners of the Fig. 10 grid: every knob at its smallest and largest value.
FIG10_CORNERS = [
    ArchitectureConfig(
        apply_parallelism=apply, scatter_parallelism=scatter, num_nt_units=node, num_mp_units=edge
    )
    for apply, scatter, node, edge in itertools.product(
        *((min(values), max(values)) for values in SweepSpec.parallelism_grid().grid.values())
    )
]


def bit_identity_settings() -> settings:
    """Tier-1 runs a derandomised sample; the nightly CI run passes
    ``--hypothesis-profile=nightly`` (tests/conftest.py) and the loaded
    profile decides instead."""
    if settings.get_current_profile_name() == "nightly":
        return settings()
    return settings(max_examples=300, derandomize=True, deadline=None)


def _numpy_stream_mean_s(totals, weight_cycles, config):
    """``StreamResult.mean_latency_s`` as it was computed with numpy."""
    cycles = np.array(totals, dtype=np.float64)
    amortised = cycles + weight_cycles / len(cycles)
    return float(config.cycles_to_seconds(amortised.mean()))


def _stream(totals, weight_cycles, config):
    """A stream whose graph ``i`` takes ``totals[i]`` cycles."""
    results = [SimulationResult("m", "g", config, [], cycles, 0, weight_cycles) for cycles in totals]
    return StreamResult(results, weight_cycles, config)


class TestStreamAggregation:
    @bit_identity_settings()
    @given(
        totals=st.lists(
            st.one_of(
                st.integers(0, 100),
                st.integers(10**4, 10**7),
                st.integers(10**12, 2**53),
                st.integers(2**53, 2**60),
            ),
            min_size=1,
            max_size=20,
        ),
        weight_cycles=st.one_of(st.integers(0, 7), st.integers(0, 10**9)),
        clock_mhz=st.sampled_from([300.0, 150.0, 233.3]),
    )
    def test_mean_and_total_equal_the_numpy_formulas(self, totals, weight_cycles, clock_mhz):
        """Eight or more graphs take numpy's pairwise summation branch."""
        config = ArchitectureConfig(clock_mhz=clock_mhz)
        stream = _stream(totals, weight_cycles, config)
        expected = _numpy_stream_mean_s(totals, weight_cycles, config)
        assert stream.mean_latency_s.hex() == expected.hex()
        assert stream.total_cycles == int(sum(totals) + weight_cycles)

    @pytest.mark.parametrize("count", [127, 128, 129, 200, 257, 1000])
    def test_long_streams_split_the_sum_as_numpy_does(self, count):
        """Past 128 values numpy splits the pairwise sum in two."""
        rng = np.random.default_rng(count)
        totals = [int(v) for v in rng.integers(0, 10**12, size=count)]
        config = ArchitectureConfig()
        stream = _stream(totals, 12_345, config)
        assert stream.mean_latency_s.hex() == _numpy_stream_mean_s(totals, 12_345, config).hex()

    def test_result_sums_its_layer_cycles_once(self, gin_model, molhiv_sample):
        result = simulate_inference(gin_model, molhiv_sample[0])
        first = result.total_cycles
        result.layer_timings.clear()  # a second sum would now read 0 layer cycles
        assert result.total_cycles == first
        assert result.compute_cycles == first - result.loading_cycles - result.readout_cycles


# The four value types as the frozen dataclasses they used to be.
_OLD_LAYER_TIMING = dataclasses.make_dataclass(
    "LayerTiming",
    ["cycles", "nt_busy_cycles", "mp_busy_cycles", "nt_units", "mp_units", "strategy"],
    frozen=True,
)
_OLD_RESOURCE_ESTIMATE = dataclasses.make_dataclass("ResourceEstimate", ["dsp", "lut", "ff", "bram"], frozen=True)
_OLD_POWER_MODEL = dataclasses.make_dataclass("PowerModel", ["static_w", "dynamic_w"], frozen=True)
_OLD_ENERGY_REPORT = dataclasses.make_dataclass("EnergyReport", ["power", "latency_s"], frozen=True)


class TestValueTypes:
    def _values(self, model, graph, config):
        result = simulate_inference(model, graph, config)
        resources = estimate_resources(model, config)
        energy = estimate_energy(result, resources)
        old_power = _OLD_POWER_MODEL(*energy.power)
        return [
            *((timing, _OLD_LAYER_TIMING(*timing)) for timing in result.layer_timings),
            (resources, _OLD_RESOURCE_ESTIMATE(*resources)),
            (energy.power, old_power),
            (energy, _OLD_ENERGY_REPORT(old_power, energy.latency_s)),
        ]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_tuples_are_the_old_frozen_dataclasses_field_for_field(self, name, molhiv_sample):
        dims = dict(input_dim=molhiv_sample.node_feature_dim, edge_input_dim=molhiv_sample.edge_feature_dim)
        model = build_model(name, **dims)
        for config in FIG10_CORNERS[:2] + [ArchitectureConfig(pipeline="baseline_dataflow")]:
            for new, old in self._values(model, molhiv_sample[0], config):
                old_fields = [f.name for f in dataclasses.fields(old)]
                assert list(type(new)._fields) == old_fields
                assert [f.name for f in dataclasses.fields(new)] == old_fields
                assert dataclasses.astuple(new) == dataclasses.astuple(old)
                assert dataclasses.asdict(new) == dataclasses.asdict(old)
                assert repr(new) == repr(old)
                assert hash(new) == hash(old)
                assert dataclasses.replace(new) == new
                with pytest.raises(AttributeError):
                    setattr(new, old_fields[0], 0)


class TestDerivedTerms:
    @pytest.mark.parametrize("dataset", ["MolHIV", "HEP"])
    def test_terms_derived_once_equal_fresh_ones_over_the_fig10_grid(self, dataset):
        """Every zoo model; the configs interleave, so a term served under
        the wrong key would show.  Each fresh value is computed on a graph
        or profile that has derived nothing yet (``dataclasses.replace``
        starts each with an empty cache)."""
        data = load_dataset(dataset, num_graphs=3)
        graphs = list(data)
        configs = list(SweepSpec.parallelism_grid().configs()) + [
            ArchitectureConfig(loading_elements_per_cycle=7),
            ArchitectureConfig(include_graph_loading=False, include_weight_loading=False),
            ArchitectureConfig(pipeline="fixed_pipeline", num_nt_units=4),
        ]
        for name in MODEL_NAMES:
            model = build_model(name, input_dim=data.node_feature_dim, edge_input_dim=data.edge_feature_dim)
            profile = ModelProfile.of(model)
            for _ in range(2):
                for config in configs:
                    assert weight_loading_cycles(profile, config) == weight_loading_cycles(model, config)
                    for graph in graphs:
                        fresh_graph, fresh_profile = dataclasses.replace(graph), dataclasses.replace(profile)
                        loading = graph_loading_cycles(fresh_graph, config)
                        assert graph_loading_cycles(graph, config) == loading
                        readout = _readout_cycles(fresh_profile, fresh_graph, config)
                        assert _readout_cycles(profile, graph, config) == readout

    def test_replaced_graph_and_profile_do_not_inherit_stale_terms(self, molhiv_sample):
        graph = molhiv_sample[0]
        config = ArchitectureConfig()
        model = build_model("GIN+VN", input_dim=graph.node_feature_dim, edge_input_dim=graph.edge_feature_dim)
        profile = ModelProfile.of(model)
        loading = graph_loading_cycles(graph, config)
        readout = _readout_cycles(profile, graph, config)
        weights = weight_loading_cycles(profile, config)

        width = graph.node_feature_dim + 64
        wider = dataclasses.replace(graph, node_features=np.zeros((graph.num_nodes, width)))
        elements = graph.num_nodes * width + graph.num_edges * (2 + graph.edge_feature_dim)
        assert graph_loading_cycles(wider, config) == ceil(elements / config.loading_elements_per_cycle)
        assert graph_loading_cycles(wider, config) > loading
        larger = Graph(num_nodes=graph.num_nodes + 40, edge_index=graph.edge_index)
        assert _readout_cycles(profile, larger, config) > readout

        heavier = dataclasses.replace(profile, parameter_count=profile.parameter_count + 10**6)
        assert weight_loading_cycles(heavier, config) > weights
        assert weight_loading_cycles(profile, config) == weights
