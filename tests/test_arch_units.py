"""Tests for the NT unit, MP unit and the NT-to-MP multicast adapter."""

from repro.arch import (
    ArchitectureConfig,
    MulticastAdapter,
    mp_timing,
    nt_timing,
)
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
