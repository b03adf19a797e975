"""Tests for the FPGA resource and energy models."""

import pytest

from repro.arch import (
    ALVEO_U50,
    ArchitectureConfig,
    FlowGNNAccelerator,
    ModelProfile,
    TABLE3_REFERENCE,
    estimate_energy,
    estimate_resources,
)
from repro.arch.energy import estimate_power
from repro.datasets import load_dataset
from repro.dse import SweepSpec
from repro.nn import MODEL_NAMES, build_model


@pytest.fixture(scope="module")
def paper_models():
    return {
        name: build_model(name, input_dim=9, edge_input_dim=3)
        for name in ("GCN", "GIN", "GAT", "PNA", "DGN")
    }


class TestResources:
    def test_all_models_fit_on_the_board(self, paper_models):
        config = ArchitectureConfig()
        for name, model in paper_models.items():
            estimate = estimate_resources(model, config)
            assert estimate.fits(ALVEO_U50), name
            assert estimate.dsp > 0 and estimate.lut > 0 and estimate.ff > 0 and estimate.bram > 0

    def test_dsp_order_of_magnitude_matches_paper(self, paper_models):
        """Estimates should land within ~4x of the paper's Table III DSP counts."""
        config = ArchitectureConfig()
        for name, model in paper_models.items():
            estimate = estimate_resources(model, config)
            reference = TABLE3_REFERENCE[name]["dsp"]
            assert reference / 4 <= estimate.dsp <= reference * 4, name

    def test_more_parallelism_uses_more_resources(self, paper_models):
        model = paper_models["GCN"]
        small = estimate_resources(model, ArchitectureConfig(num_nt_units=1, num_mp_units=1))
        large = estimate_resources(
            model,
            ArchitectureConfig(num_nt_units=4, num_mp_units=8, apply_parallelism=4, scatter_parallelism=8),
        )
        assert large.dsp > small.dsp
        assert large.lut > small.lut
        assert large.bram >= small.bram

    def test_pna_needs_more_bram_than_gcn(self, paper_models):
        """PNA's 12x-wide aggregated messages inflate the message buffers (as in Table III)."""
        config = ArchitectureConfig()
        pna = estimate_resources(paper_models["PNA"], config)
        gcn = estimate_resources(paper_models["GCN"], config)
        assert pna.bram > gcn.bram

    def test_attention_adds_dsps(self, paper_models):
        config = ArchitectureConfig()
        gat = estimate_resources(paper_models["GAT"], config)
        gcn = estimate_resources(paper_models["GCN"], config)
        assert gat.dsp > gcn.dsp

    def test_utilisation_fractions(self, paper_models):
        estimate = estimate_resources(paper_models["GCN"], ArchitectureConfig())
        usage = estimate.utilisation(ALVEO_U50)
        assert set(usage) == {"dsp", "lut", "ff", "bram"}
        assert all(0.0 < value <= 1.0 for value in usage.values())


    @pytest.mark.parametrize("dataset", ["MolHIV", "HEP"])
    def test_profile_widths_derived_once_match_a_fresh_model(self, dataset):
        """Every zoo model across the Fig. 10 grid: a profile that is asked
        again and again gives what the model itself gives."""
        data = load_dataset(dataset, num_graphs=1)
        configs = list(SweepSpec.parallelism_grid().configs())
        for name in MODEL_NAMES:
            model = build_model(name, input_dim=data.node_feature_dim, edge_input_dim=data.edge_feature_dim)
            profile = ModelProfile.of(model)
            for config in configs:
                expected = estimate_resources(model, config)
                assert estimate_resources(profile, config) == expected
                assert estimate_resources(profile, config) == expected

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_profile_shares_equal_layer_specs(self, name):
        model = build_model(name, input_dim=9, edge_input_dim=3)
        specs = ModelProfile.of(model).layer_specs
        assert specs == tuple(model.layer_specs())
        assert len({id(spec) for spec in specs}) == len(set(specs))


class TestEnergy:
    def test_power_in_fpga_range(self, paper_models, molhiv_sample):
        """Average power should sit in the tens of watts, ~4x below the GPU's."""
        model = paper_models["GIN"]
        config = ArchitectureConfig()
        resources = estimate_resources(model, config)
        result = FlowGNNAccelerator(model, config).run(molhiv_sample[0])
        report = estimate_energy(result, resources)
        assert 15.0 < report.power.total_w < 80.0

    def test_energy_efficiency_beats_baselines_by_orders_of_magnitude(
        self, paper_models, molhiv_sample
    ):
        from repro.baselines import GPUBaseline

        model = paper_models["GIN"]
        config = ArchitectureConfig()
        resources = estimate_resources(model, config)
        graph = molhiv_sample[0]
        result = FlowGNNAccelerator(model, config).run(graph)
        flowgnn_eff = estimate_energy(result, resources).graphs_per_kilojoule
        gpu_eff = GPUBaseline(model).graphs_per_kilojoule(graph)
        assert flowgnn_eff > 50 * gpu_eff

    def test_energy_scales_with_latency(self, paper_models, molhiv_sample):
        model = paper_models["GIN"]
        config = ArchitectureConfig()
        resources = estimate_resources(model, config)
        result = FlowGNNAccelerator(model, config).run(molhiv_sample[0])
        base = estimate_energy(result, resources)
        doubled = estimate_energy(result, resources, latency_s=2 * result.latency_s)
        assert doubled.energy_per_graph_j == pytest.approx(2 * base.energy_per_graph_j)

    def test_activity_increases_power(self, paper_models):
        resources = estimate_resources(paper_models["GIN"], ArchitectureConfig())
        idle = estimate_power(resources, nt_utilisation=0.0, mp_utilisation=0.0, loading_fraction=0.0)
        busy = estimate_power(resources, nt_utilisation=1.0, mp_utilisation=1.0, loading_fraction=0.2)
        assert busy.total_w > idle.total_w
        assert idle.total_w >= 20.0  # static floor
