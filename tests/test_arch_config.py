"""Tests for the architecture configuration."""

import pytest

from repro.arch import (
    ArchitectureConfig,
    PipelineStrategy,
    ablation_configs,
    baseline_dataflow_config,
    default_flowgnn_config,
    fixed_pipeline_config,
    non_pipeline_config,
)


class TestValidation:
    def test_default_matches_paper_deployment(self):
        config = default_flowgnn_config()
        assert config.num_nt_units == 2
        assert config.num_mp_units == 4
        assert config.clock_mhz == 300.0
        assert config.pipeline == PipelineStrategy.FLOWGNN

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nt_units": 0},
            {"num_mp_units": 0},
            {"apply_parallelism": 0},
            {"scatter_parallelism": -1},
            {"clock_mhz": 0},
            {"pipeline": "warp_speed"},
            {"node_queue_depth": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArchitectureConfig(**kwargs)


    @pytest.mark.parametrize("field", ["num_nt_units", "num_mp_units"])
    def test_unit_counts_fit_in_int64(self, field):
        """Schedulers divide int64 node ids by the unit counts."""
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            ArchitectureConfig(**{field: 2**63})
        assert getattr(ArchitectureConfig(**{field: 2**63 - 1}), field) == 2**63 - 1


class TestDerivedQuantities:
    def test_cycle_time(self):
        config = ArchitectureConfig(clock_mhz=300.0)
        assert config.cycle_time_s == pytest.approx(1.0 / 300e6)
        assert config.cycles_to_seconds(300e6) == pytest.approx(1.0)

    def test_effective_units_clamped_for_single_unit_strategies(self):
        for factory in (non_pipeline_config, fixed_pipeline_config, baseline_dataflow_config):
            config = factory()
            assert config.effective_nt_units() == 1
            assert config.effective_mp_units() == 1
        flowgnn = default_flowgnn_config()
        assert flowgnn.effective_nt_units() == 2
        assert flowgnn.effective_mp_units() == 4

    def test_with_parallelism_replaces_selected_fields(self):
        config = default_flowgnn_config()
        modified = config.with_parallelism(apply_parallelism=8)
        assert modified.apply_parallelism == 8
        assert modified.num_nt_units == config.num_nt_units
        # Original is unchanged (frozen dataclass).
        assert config.apply_parallelism == 2

    def test_describe_mentions_all_factors(self):
        text = default_flowgnn_config().describe()
        for token in ("P_node=2", "P_edge=4", "P_apply=2", "P_scatter=4", "300 MHz"):
            assert token in text


class TestAblationConfigs:
    def test_six_configurations_in_paper_order(self):
        configs = ablation_configs()
        assert list(configs) == [
            "non_pipeline",
            "fixed_pipeline",
            "baseline_dataflow",
            "flowgnn_1_1",
            "flowgnn_1_2",
            "flowgnn_2_2",
        ]

    def test_non_flowgnn_configs_are_single_unit(self):
        configs = ablation_configs()
        for name in ("non_pipeline", "fixed_pipeline", "baseline_dataflow"):
            assert configs[name].effective_nt_units() == 1
            assert configs[name].effective_mp_units() == 1

    def test_flowgnn_variants_differ_only_in_lane_counts(self):
        configs = ablation_configs()
        assert configs["flowgnn_1_1"].apply_parallelism == 1
        assert configs["flowgnn_1_2"].scatter_parallelism == 2
        assert configs["flowgnn_2_2"].apply_parallelism == 2
        for name in ("flowgnn_1_1", "flowgnn_1_2", "flowgnn_2_2"):
            assert configs[name].num_nt_units == 2
            assert configs[name].num_mp_units == 4
