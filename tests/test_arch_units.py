"""Tests for the NT unit, MP unit and the NT-to-MP multicast adapter."""

import numpy as np
import pytest

from repro.arch import (
    ArchitectureConfig,
    BankedBuffer,
    MPUnit,
    MulticastAdapter,
    NTUnit,
    mp_timing,
    nt_timing,
)
from repro.graph import Graph
from repro.nn import build_gin, segment_sum
from repro.nn.models.base import LayerSpec


def _spec(in_dim=100, out_dim=100, shapes=((100, 100),), message_dim=100, aggregation="sum",
          uses_edge_features=False, dataflow="nt_to_mp"):
    return LayerSpec(
        in_dim=in_dim,
        out_dim=out_dim,
        nt_linear_shapes=shapes,
        message_dim=message_dim,
        aggregated_dim=message_dim,
        aggregation=aggregation,
        uses_edge_features=uses_edge_features,
        dataflow=dataflow,
    )


class TestNTTiming:
    def test_accumulate_scales_with_input_dim_and_lanes(self):
        config = ArchitectureConfig(apply_parallelism=1)
        timing = nt_timing(_spec(), config)
        assert timing.accumulate_cycles == 100
        faster = nt_timing(_spec(), ArchitectureConfig(apply_parallelism=4))
        assert faster.accumulate_cycles == 25

    def test_mlp_chains_linears(self):
        config = ArchitectureConfig(apply_parallelism=2)
        timing = nt_timing(_spec(shapes=((100, 100), (100, 100))), config)
        assert timing.accumulate_cycles == 100  # two linears at 50 cycles each

    def test_interval_vs_latency(self):
        timing = nt_timing(_spec(), ArchitectureConfig(apply_parallelism=1))
        assert timing.node_latency >= timing.node_interval
        assert timing.node_interval == max(timing.accumulate_cycles, timing.output_cycles) + timing.overhead_cycles

    def test_more_lanes_never_slower(self):
        spec = _spec(shapes=((80, 80),), out_dim=80)
        previous = None
        for lanes in (1, 2, 4, 8, 16):
            cycles = nt_timing(spec, ArchitectureConfig(apply_parallelism=lanes)).node_latency
            if previous is not None:
                assert cycles <= previous
            previous = cycles


class TestMPTiming:
    def test_chunks_scale_with_scatter_lanes(self):
        assert mp_timing(_spec(), ArchitectureConfig(scatter_parallelism=1)).chunk_cycles == 100
        assert mp_timing(_spec(), ArchitectureConfig(scatter_parallelism=8)).chunk_cycles == 13

    def test_attention_needs_two_passes(self):
        attention_spec = _spec(aggregation="attention", dataflow="mp_to_nt")
        assert mp_timing(attention_spec, ArchitectureConfig()).passes == 2
        assert mp_timing(_spec(), ArchitectureConfig()).passes == 1

    def test_edge_features_add_overhead(self):
        config = ArchitectureConfig()
        with_edges = mp_timing(_spec(uses_edge_features=True), config)
        without = mp_timing(_spec(uses_edge_features=False), config)
        assert with_edges.overhead_cycles == without.overhead_cycles + 1

    def test_edge_latency_composition(self):
        timing = mp_timing(_spec(), ArchitectureConfig(scatter_parallelism=4))
        assert timing.edge_latency == timing.chunk_cycles * timing.passes + timing.overhead_cycles


class TestFunctionalUnits:
    def test_nt_unit_matches_layer_update(self):
        model = build_gin(input_dim=9, edge_input_dim=3, hidden_dim=8, num_layers=1, seed=1)
        layer = model.layers[0]
        unit = NTUnit(0, ArchitectureConfig())
        x = np.random.default_rng(0).standard_normal(8)
        m = np.random.default_rng(1).standard_normal(8)
        out = unit.transform(layer, x, m)
        expected = layer.update(x[None, :], m[None, :])[0]
        np.testing.assert_allclose(out, expected)
        assert unit.nodes_processed == 1

    def test_nt_unit_round_robin_ownership(self):
        unit0 = NTUnit(0, ArchitectureConfig())
        unit1 = NTUnit(1, ArchitectureConfig())
        assert unit0.owns_node(0, 2) and not unit1.owns_node(0, 2)
        assert unit1.owns_node(3, 2) and not unit0.owns_node(3, 2)

    def test_mp_units_banked_scatter_matches_reference_sum(self):
        """Edge-by-edge banked scatter reproduces the batched segment sum."""
        rng = np.random.default_rng(3)
        num_nodes, dim = 10, 6
        edges = [(int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes))) for _ in range(40)]
        graph = Graph(num_nodes=num_nodes, edge_index=edges)
        x = rng.standard_normal((num_nodes, dim))
        edge_embeddings = rng.standard_normal((len(edges), dim))

        model = build_gin(input_dim=dim, hidden_dim=dim, num_layers=1, seed=4)
        layer = model.layers[0]

        config = ArchitectureConfig(num_mp_units=4)
        buffer = BankedBuffer(num_nodes, dim, num_banks=4)
        units = [MPUnit(b, config) for b in range(4)]
        for edge_id, (src, dst) in enumerate(edges):
            unit = units[dst % 4]
            unit.scatter_edge(
                layer,
                buffer,
                source_embedding=x[src],
                destination_embedding=x[dst],
                destination=dst,
                edge_features=edge_embeddings[edge_id],
                reduction="sum",
            )
        # Reference: batched message computation followed by a segment sum.
        messages = layer.message(
            x[graph.sources], x[graph.destinations], edge_embeddings
        )
        expected = segment_sum(messages, graph.destinations, num_nodes)
        np.testing.assert_allclose(buffer.snapshot(), expected, atol=1e-9)
        assert sum(u.edges_processed for u in units) == len(edges)

    def test_mp_unit_rejects_non_running_reduction(self):
        model = build_gin(input_dim=4, hidden_dim=4, num_layers=1)
        unit = MPUnit(0, ArchitectureConfig())
        buffer = BankedBuffer(2, 4)
        with pytest.raises(ValueError):
            unit.scatter_edge(
                model.layers[0], buffer, np.zeros(4), np.zeros(4), 0, None, reduction="attention"
            )


class TestMulticastAdapter:
    def test_rebatching_offsets(self):
        adapter = MulticastAdapter(
            ArchitectureConfig(apply_parallelism=1, scatter_parallelism=4)
        )
        # The first 4-element chunk needs 4 output cycles at 1 element/cycle.
        assert adapter.first_chunk_ready_offset() == 4
        assert adapter.chunk_ready_offset(1) == 8
        assert adapter.rebatch_ratio() == 4.0

    def test_stream_complete_offset(self):
        adapter = MulticastAdapter(
            ArchitectureConfig(apply_parallelism=2, scatter_parallelism=4)
        )
        assert adapter.stream_complete_offset(100) == 50
