"""Tests for the design-space exploration engine (``repro.dse``)."""

import copy
import dataclasses
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.dse.cache as dse_cache
import repro.dse.runner as dse_runner
from repro.arch import ALVEO_U50, ArchitectureConfig, FlowGNNAccelerator, schedule_layer
from repro.arch.config import PipelineStrategy
from repro.datasets import load_dataset
from repro.dse import fastpath
from repro.dse import (
    ScheduleCache,
    SweepRunner,
    SweepSpec,
    fast_schedule_layer,
    graph_signature,
    naive_sweep,
    pareto_frontier,
)
from repro.graph import Graph, molecule_like_graph
from repro.nn import MODEL_NAMES, build_model


@pytest.fixture(scope="module")
def molhiv():
    return load_dataset("MolHIV", num_graphs=6)


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec.parallelism_grid(
        node_values=(1, 2),
        edge_values=(1, 4),
        apply_values=(1, 2),
        scatter_values=(4,),
        num_graphs=4,
        board=None,
    )


@lru_cache(maxsize=None)
def zoo_layer_specs():
    """Every distinct ``LayerSpec`` of the model zoo, on both sweep datasets."""
    specs = set()
    for dataset_name in ("MolHIV", "HEP"):
        dataset = load_dataset(dataset_name, num_graphs=1)
        for name in MODEL_NAMES:
            model = build_model(
                name, input_dim=dataset.node_feature_dim, edge_input_dim=dataset.edge_feature_dim
            )
            specs.update(model.layer_specs())
    return sorted(specs, key=repr)


def differential_settings() -> settings:
    """Tier-1 runs a derandomised sample bounded to a few seconds.  The
    nightly CI run passes ``--hypothesis-profile=nightly`` (tests/conftest.py)
    and the loaded profile decides instead."""
    if settings.get_current_profile_name() == "nightly":
        return settings()
    return settings(max_examples=250, derandomize=True, deadline=None)


@st.composite
def small_graphs(draw):
    """Empty and edgeless graphs, self loops and multi-edges included."""
    num_nodes = draw(st.integers(0, 12))
    edges = []
    if num_nodes:
        node = st.integers(0, num_nodes - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return Graph(num_nodes=num_nodes, edge_index=np.array(edges, dtype=np.int64).reshape(-1, 2))


# Unit counts beyond the node count; overheads down to zero; P_apply and
# P_scatter that need not divide any width.
configs = st.builds(
    ArchitectureConfig,
    num_nt_units=st.integers(1, 16),
    num_mp_units=st.integers(1, 16),
    apply_parallelism=st.integers(1, 9),
    scatter_parallelism=st.integers(1, 9),
    nt_overhead_cycles=st.integers(0, 4),
    edge_overhead_cycles=st.integers(0, 4),
    layer_barrier_cycles=st.integers(0, 8),
)

EDGE_CASE_CONFIGS = [
    ArchitectureConfig(num_nt_units=16, num_mp_units=9, apply_parallelism=3, scatter_parallelism=7),
    ArchitectureConfig(num_nt_units=1, num_mp_units=1, nt_overhead_cycles=0, edge_overhead_cycles=0),
]

# Layout weights: an NT interval and an edge latency, zero included.
weight_pairs = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=4)


@st.composite
def bound_configs(draw):
    """2-4 configs over two distinct (P_apply, P_scatter) pairs, both used,
    so configs differ in a plan's constants and, from three configs on,
    some share them; unit counts, overheads and barriers drawn per config
    (equal schedule keys may occur)."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=2, max_size=2, unique=True))
    extra = draw(st.lists(st.integers(0, 1), max_size=2))
    return [
        ArchitectureConfig(
            num_nt_units=draw(st.integers(1, 16)),
            num_mp_units=draw(st.integers(1, 16)),
            apply_parallelism=pairs[pair][0],
            scatter_parallelism=pairs[pair][1],
            nt_overhead_cycles=draw(st.integers(0, 4)),
            edge_overhead_cycles=draw(st.integers(0, 4)),
            layer_barrier_cycles=draw(st.integers(0, 8)),
        )
        for pair in draw(st.permutations([0, 1, *extra]))
    ]


#: A call of a bound function: (config, graph, spec) indices, or None to
#: repeat the previous call.
bound_calls = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 7))),
    min_size=2,
    max_size=40,
)


def edges_graph(num_nodes, edges):
    return Graph(num_nodes=num_nodes, edge_index=np.array(edges, dtype=np.int64).reshape(-1, 2))


def scatter_points(graph, num_nt, num_mp):
    """``(pos, left)`` of every edge, straight from the definition: ``left``
    counts the edges of its destination bank at positions ``>= pos``."""
    edges = [(src // num_nt, dst % num_mp) for src, dst in graph.edge_index.tolist()]
    return [
        (pos, sum(1 for other, other_bank in edges if other_bank == bank and other >= pos))
        for pos, bank in edges
    ]


def tie_weights(points):
    """For every two staircase points, the weights at which they tie and
    weights just to either side: each vertex of the upper-right chain is
    the only maximum for one of them."""
    staircase = {p for p in points if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in points)}
    for (x0, y0), (x1, y1) in itertools.combinations(sorted(staircase), 2):
        a, b = abs(y1 - y0), abs(x1 - x0)
        yield from ((a, b), (1000 * a + 1, 1000 * b), (1000 * a, 1000 * b + 1))


def gather_points(graph, num_nt, num_mp):
    """``(left, prefix)`` of every node: the nodes of its NT unit from it on,
    and the in-degrees of its MP bank up to and including it."""
    degrees = graph.in_degrees().tolist()
    nodes = range(graph.num_nodes)
    return [
        (
            sum(1 for u in nodes if u >= v and u % num_nt == v % num_nt),
            sum(degrees[u] for u in nodes if u <= v and u % num_mp == v % num_mp),
        )
        for v in nodes
    ]


class TestSweepSpec:
    def test_point_enumeration_order_and_count(self, small_spec):
        points = list(small_spec.points())
        assert len(points) == small_spec.num_points() == 8
        # Grid order: apply slowest, then scatter, then node, then edge.
        knobs = [
            (p.config.apply_parallelism, p.config.num_nt_units, p.config.num_mp_units)
            for p in points
        ]
        assert knobs == [
            (1, 1, 1), (1, 1, 4), (1, 2, 1), (1, 2, 4),
            (2, 1, 1), (2, 1, 4), (2, 2, 1), (2, 2, 4),
        ]

    def test_empty_grid_sweeps_base_config(self):
        spec = SweepSpec(models=("GIN",), datasets=("HEP",))
        configs = list(spec.configs())
        assert configs == [spec.base_config]
        assert spec.num_points() == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            SweepSpec(models=("Transformer",))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            SweepSpec(datasets=("ImageNet",))

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match="not an ArchitectureConfig field"):
            SweepSpec(grid={"warp_size": (32,)})

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec(grid={"num_nt_units": ()})

    def test_invalid_config_value_rejected_eagerly(self):
        with pytest.raises(ValueError):
            SweepSpec(grid={"num_nt_units": (0,)})

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(models=("GCN", "GAT", "GCN")), "models repeats 'GCN'"),
            (dict(datasets=("MolHIV", "MolHIV")), "datasets repeats 'MolHIV'"),
            (dict(grid={"num_nt_units": (1, 2, 1)}), "grid for 'num_nt_units' repeats 1"),
            # Equal values make equal configs, whatever their type.
            (dict(grid={"clock_mhz": (300, 300.0)}), "grid for 'clock_mhz' repeats 300.0"),
        ],
        ids=["model", "dataset", "grid-value", "equal-grid-values"],
    )
    def test_repeated_values_rejected(self, fields, message):
        """A repeated value would sweep the same points twice."""
        with pytest.raises(ValueError, match=message):
            SweepSpec(**fields)

    def test_grid_over_non_parallelism_fields(self):
        spec = SweepSpec(grid={"node_queue_depth": (8, 32), "clock_mhz": (300.0,)})
        depths = [config.node_queue_depth for config in spec.configs()]
        assert depths == [8, 32]


class TestGraphSignature:
    def test_structure_determines_signature(self, rng):
        graph = molecule_like_graph(20, rng, 9, 3)
        same_structure = graph.with_node_features(np.ones((20, 9)))
        assert graph_signature(graph) == graph_signature(same_structure)

    def test_different_structure_differs(self, rng):
        a = molecule_like_graph(20, rng, 9, 3)
        b = molecule_like_graph(21, rng, 9, 3)
        assert graph_signature(a) != graph_signature(b)

    def test_reversed_edges_change_signature(self, rng):
        graph = molecule_like_graph(20, rng, 9, 3)
        assert graph_signature(graph) != graph_signature(graph.reversed())

    def test_signature_bytes_are_pinned(self):
        """The value from before edge lists were made contiguous: a
        contiguous input still hashes the same bytes."""
        graph = Graph(num_nodes=3, edge_index=np.array([[0, 1], [1, 2], [2, 0], [2, 2]]))
        assert graph_signature(graph) == "398e55b02d33d6fb558a1ae42eab63236a012c2b"

    def test_edgeless_graph_has_a_signature(self):
        """A byte view of an empty edge list cannot be cast: the cached
        simulator used to raise ``TypeError`` on any graph without edges."""
        signatures = {graph_signature(Graph(num_nodes=n, edge_index=np.zeros((0, 2)))) for n in (0, 1, 2)}
        assert len(signatures) == 3
        model = build_model("GCN", input_dim=1)
        graph = Graph(num_nodes=3, edge_index=np.zeros((0, 2)))
        cached = FlowGNNAccelerator(model).run(graph)
        reference = FlowGNNAccelerator(model, use_schedule_cache=False).run(graph)
        assert cached.layer_timings == reference.layer_timings

    def test_transposed_edge_list_is_stored_row_major(self):
        """``np.stack([src, dst]).T`` is not C-contiguous; hashing it used to
        raise ``TypeError`` in the cached simulator and in every sweep."""
        src, dst = np.array([0, 1, 2, 2]), np.array([1, 2, 0, 2])
        graph = Graph(num_nodes=3, edge_index=np.stack([src, dst]).T)
        assert graph.edge_index.flags.c_contiguous
        assert graph_signature(graph) == "398e55b02d33d6fb558a1ae42eab63236a012c2b"
        model = build_model("GCN", input_dim=1)
        cached = FlowGNNAccelerator(model).run(graph)
        reference = FlowGNNAccelerator(model, use_schedule_cache=False).run(graph)
        assert cached.layer_timings == reference.layer_timings

    def test_contiguous_edge_list_is_not_copied(self):
        edge_index = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert np.shares_memory(Graph(num_nodes=3, edge_index=edge_index).edge_index, edge_index)

    def test_replace_starts_with_an_empty_derived_cache(self):
        """``dataclasses.replace`` must not hand the copy the original's
        degrees, signature or bank layouts."""
        spec = build_model("GCN", input_dim=1).layer_specs()[0]
        config = ArchitectureConfig(num_nt_units=2, num_mp_units=3)
        graph = Graph(num_nodes=4, edge_index=np.array([[0, 1], [1, 2]]))
        graph.in_degrees()
        graph_signature(graph)
        fast_schedule_layer(graph, spec, config)
        other_edges = np.array([[2, 3], [3, 0], [0, 3], [1, 3]])
        replaced = dataclasses.replace(graph, edge_index=other_edges)
        fresh = Graph(num_nodes=4, edge_index=other_edges)
        np.testing.assert_array_equal(replaced.in_degrees(), fresh.in_degrees())
        assert graph_signature(replaced) == graph_signature(fresh)
        assert fast_schedule_layer(replaced, spec, config) == schedule_layer(fresh, spec, config)


class TestFastScheduler:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bit_identical_to_reference(self, name, molhiv):
        """The vectorised scheduler must reproduce every LayerTiming field."""
        model = build_model(
            name,
            input_dim=molhiv.node_feature_dim,
            edge_input_dim=molhiv.edge_feature_dim,
        )
        configs = [
            ArchitectureConfig(),
            ArchitectureConfig(
                num_nt_units=1, num_mp_units=1, apply_parallelism=1, scatter_parallelism=1
            ),
            ArchitectureConfig(
                num_nt_units=4, num_mp_units=8, apply_parallelism=4, scatter_parallelism=8
            ),
            ArchitectureConfig(num_nt_units=3, num_mp_units=5, nt_overhead_cycles=7),
        ]
        for graph in list(molhiv)[:3]:
            for config in configs:
                for spec in set(model.layer_specs()):
                    assert fast_schedule_layer(graph, spec, config) == schedule_layer(
                        graph, spec, config
                    )

    @differential_settings()
    @given(graph=small_graphs(), point_configs=st.lists(configs, min_size=2, max_size=3))
    @example(graph=Graph(num_nodes=0, edge_index=np.zeros((0, 2))), point_configs=EDGE_CASE_CONFIGS)
    @example(graph=Graph(num_nodes=5, edge_index=np.zeros((0, 2))), point_configs=EDGE_CASE_CONFIGS)
    @example(
        graph=Graph(num_nodes=3, edge_index=np.array([[0, 0], [1, 1], [2, 0], [2, 0], [0, 2]])),
        point_configs=EDGE_CASE_CONFIGS,
    )
    def test_generated_graphs_and_configs_match_reference(self, graph, point_configs):
        """Bit-identical on every zoo spec.  The second pass schedules the
        same graph object under alternating unit counts, so a bank layout
        served under the wrong ``(P_node, P_edge)`` would show."""
        for config in point_configs + point_configs:
            for spec in zoo_layer_specs():
                assert fast_schedule_layer(graph, spec, config) == schedule_layer(graph, spec, config)

    @differential_settings()
    @given(graphs=st.lists(small_graphs(), min_size=2, max_size=2), config=configs)
    @example(
        graphs=[edges_graph(3, [[0, 1], [1, 2]]), edges_graph(4, [[3, 0], [3, 1], [3, 2], [0, 3]])],
        config=EDGE_CASE_CONFIGS[0],
    )
    def test_bound_cache_shares_plans_across_graphs(self, graphs, config):
        """One bound function keeps one plan per spec for every graph it
        schedules: a plan that captured graph data would show on the second."""
        bound = ScheduleCache().bind(config)
        for graph in graphs:
            for spec in zoo_layer_specs():
                assert bound(graph, spec, config) == schedule_layer(graph, spec, config)

    @differential_settings()
    @given(graph=small_graphs(), num_nt=st.integers(1, 9), num_mp=st.integers(1, 9), weights=weight_pairs)
    # A single edge; all edges in one bank; duplicate edges; self loops.
    @example(graph=edges_graph(12, [[11, 5]]), num_nt=1, num_mp=9, weights=[(3, 7)])
    @example(
        graph=edges_graph(9, [[8, 0], [1, 3], [4, 6], [2, 0], [7, 3]]), num_nt=2, num_mp=3, weights=[(1, 1)]
    )
    @example(graph=edges_graph(4, [[1, 2], [1, 2], [1, 2], [3, 0]]), num_nt=1, num_mp=2, weights=[(1, 10**6)])
    @example(graph=edges_graph(5, [[0, 0], [2, 2], [4, 4], [4, 4]]), num_nt=2, num_mp=2, weights=[(10**6, 1)])
    def test_layout_hull_matches_every_point(self, graph, num_nt, num_mp, weights):
        """A bank layout's chain reaches the maximum of ``a * x + b * y``
        over every edge (scatter) or node (gather) for any ``a, b >= 0``;
        it is a staircase of real points, in Python ints."""
        layouts = []
        if graph.num_edges:
            layouts.append(
                (fastpath._scatter_layout(graph, num_nt, num_mp), scatter_points(graph, num_nt, num_mp))
            )
        if graph.num_nodes:
            layouts.append((fastpath._gather_layout(graph, num_nt, num_mp), gather_points(graph, num_nt, num_mp)))
        for hull, points in layouts:
            assert set(hull) <= set(points)
            assert all(type(value) is int for point in hull for value in point)
            assert all(x0 < x1 and y0 > y1 for (x0, y0), (x1, y1) in zip(hull, hull[1:]))
            for a, b in [*weights, (0, 0), (1, 0), (0, 1), *tie_weights(points)]:
                assert max(a * x + b * y for x, y in hull) == max(a * x + b * y for x, y in points)

    def test_sparse_banks_keep_layout_memory_linear_in_edges(self):
        """One MP bank per node and one node per position: a dense bank x
        position table would hold 3000**2 counts (72 MB)."""
        graph = edges_graph(3000, [[2999, 0], [0, 2999], [1500, 1500]])
        tracemalloc.start()
        try:
            hull = fastpath._scatter_layout(graph, 1, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hull == ((2999, 1),)
        assert peak < 1 << 20

    def test_int64_max_unit_counts_schedule_one_node_per_unit(self, molhiv):
        """At 2**63 - 1 NT and MP units every node has its own unit and
        bank, exactly as with one unit per node."""
        graph = molhiv[0]
        units = graph.num_nodes
        largest = ArchitectureConfig(num_nt_units=2**63 - 1, num_mp_units=2**63 - 1)
        one_per_node = ArchitectureConfig(num_nt_units=units, num_mp_units=units)
        for spec in zoo_layer_specs():
            timing = fast_schedule_layer(graph, spec, largest)
            assert dataclasses.replace(timing, nt_units=units, mp_units=units) == schedule_layer(
                graph, spec, one_per_node
            )

    def test_non_flowgnn_strategies_fall_through(self, molhiv):
        model = build_model("GCN", input_dim=molhiv.node_feature_dim)
        spec = model.layer_specs()[0]
        graph = molhiv[0]
        for strategy in PipelineStrategy.ALL:
            config = ArchitectureConfig(pipeline=strategy)
            assert fast_schedule_layer(graph, spec, config) == schedule_layer(
                graph, spec, config
            )


class TestCycleModelProperties:
    """Properties of the reference ``schedule_layer`` itself.  The
    differential above compares two schedulers, so a bug that both share
    would pass it; these properties need no second scheduler."""

    @differential_settings()
    @given(
        graph=small_graphs(),
        config=configs,
        strategy=st.sampled_from(PipelineStrategy.ALL),
        queue_depth=st.integers(1, 4),
        edge=st.tuples(st.integers(0, 11), st.integers(0, 11)),
    )
    def test_generated_layers_stay_in_bounds_and_monotone(self, graph, config, strategy, queue_depth, edge):
        """On every zoo spec: no unit type is busy for more cycle slots than
        the layer has, one more edge never makes the layer faster and one
        more NT unit never makes it slower.  One more MP unit can make a
        FlowGNN layer slower (docs/architecture.md), so that is not asserted."""
        config = dataclasses.replace(config, pipeline=strategy, node_queue_depth=queue_depth)
        more_nt = dataclasses.replace(config, num_nt_units=config.num_nt_units + 1)
        grown = None
        if graph.num_nodes:
            extra = [[edge[0] % graph.num_nodes, edge[1] % graph.num_nodes]]
            grown = Graph(num_nodes=graph.num_nodes, edge_index=np.concatenate([graph.edge_index, extra]))
        for spec in zoo_layer_specs():
            timing = schedule_layer(graph, spec, config)
            assert timing.nt_utilisation <= 1 and timing.mp_utilisation <= 1
            assert timing.cycles * timing.nt_units >= timing.nt_busy_cycles
            assert timing.cycles * timing.mp_units >= timing.mp_busy_cycles
            assert schedule_layer(graph, spec, more_nt).cycles <= timing.cycles
            if grown is not None:
                assert schedule_layer(grown, spec, config).cycles >= timing.cycles

    @pytest.mark.parametrize("num_mp, cycles", [(1, 191), (2, 164), (3, 191)])
    def test_documented_extra_mp_unit_slowdown(self, num_mp, cycles):
        """The docs/architecture.md example of why one more MP unit is not
        asserted: edges 2->0 and 3->3 share bank 0 at P_edge = 3."""
        dataset = load_dataset("MolHIV", num_graphs=1)
        model = build_model("GCN", input_dim=dataset.node_feature_dim, edge_input_dim=dataset.edge_feature_dim)
        hidden = [spec for spec in model.layer_specs() if (spec.in_dim, spec.out_dim) == (100, 100)][0]
        graph = Graph(num_nodes=4, edge_index=np.array([[2, 0], [3, 3]]))
        config = ArchitectureConfig(num_mp_units=num_mp)
        assert config.pipeline == PipelineStrategy.FLOWGNN
        assert schedule_layer(graph, hidden, config).cycles == cycles


class TestScheduleFnHook:
    def test_simulate_inference_accepts_schedule_fn(self, molhiv):
        from repro.arch import simulate_inference

        model = build_model(
            "GCN", input_dim=molhiv.node_feature_dim, edge_input_dim=molhiv.edge_feature_dim
        )
        reference = simulate_inference(model, molhiv[0])
        substituted = simulate_inference(model, molhiv[0], schedule_fn=fast_schedule_layer)
        assert substituted.total_cycles == reference.total_cycles
        assert substituted.layer_timings == reference.layer_timings


class TestScheduleCache:
    def test_hits_and_misses_counted(self, molhiv):
        model = build_model("GCN", input_dim=molhiv.node_feature_dim)
        cache = ScheduleCache()
        config = ArchitectureConfig()
        graph = molhiv[0]
        specs = model.layer_specs()  # 5 identical GCN layer specs
        timings = [cache.schedule(graph, spec, config) for spec in specs]
        assert cache.misses == 1 and cache.hits == len(specs) - 1
        assert all(t == timings[0] for t in timings)
        assert timings[0] == schedule_layer(graph, specs[0], config)

    def test_cache_ignores_schedule_irrelevant_fields(self, molhiv):
        """Configs differing only in clock / loading share cache entries."""
        model = build_model("GCN", input_dim=molhiv.node_feature_dim)
        cache = ScheduleCache()
        spec = model.layer_specs()[0]
        graph = molhiv[0]
        cache.schedule(graph, spec, ArchitectureConfig())
        cache.schedule(graph, spec, ArchitectureConfig(clock_mhz=150.0))
        cache.schedule(graph, spec, ArchitectureConfig(include_graph_loading=False))
        assert cache.misses == 1 and cache.hits == 2

    def test_bound_schedule_matches_unbound(self, molhiv):
        model = build_model("GIN", input_dim=molhiv.node_feature_dim, edge_input_dim=molhiv.edge_feature_dim)
        config = ArchitectureConfig(num_nt_units=3)
        cache = ScheduleCache()
        bound = cache.bind(config)
        graph = molhiv[0]
        for spec in model.layer_specs():
            assert bound(graph, spec, config) == schedule_layer(graph, spec, config)

    def test_bound_schedule_ignores_mismatched_config(self, molhiv):
        """bind(a) must never store timings computed under a different config."""
        bound_config = ArchitectureConfig(num_nt_units=1, num_mp_units=1)
        other_config = ArchitectureConfig(num_nt_units=4, num_mp_units=8)
        cache = ScheduleCache()
        bound = cache.bind(bound_config)
        model = build_model("GCN", input_dim=molhiv.node_feature_dim)
        spec = model.layer_specs()[0]
        graph = molhiv[0]
        # Misuse: pass a different config. The bound config must win.
        timing = bound(graph, spec, other_config)
        assert timing == schedule_layer(graph, spec, bound_config)
        # And the cached entry must serve future bound-config lookups correctly.
        assert cache.schedule(graph, spec, bound_config) == timing
        assert cache.hits == 1

    def test_reference_path_without_fast_scheduler(self, molhiv):
        cache = ScheduleCache(use_fast_path=False)
        model = build_model("GAT", input_dim=molhiv.node_feature_dim)
        spec = model.layer_specs()[0]
        config = ArchitectureConfig()
        assert cache.schedule(molhiv[0], spec, config) == schedule_layer(
            molhiv[0], spec, config
        )

    @differential_settings()
    @given(
        configs=bound_configs(),
        graphs=st.lists(small_graphs(), min_size=1, max_size=3),
        calls=bound_calls,
        clear_at=st.floats(0, 1),
    )
    @example(
        configs=[
            ArchitectureConfig(num_nt_units=2, num_mp_units=3, apply_parallelism=2, scatter_parallelism=4),
            ArchitectureConfig(
                num_nt_units=4,
                num_mp_units=1,
                apply_parallelism=2,
                scatter_parallelism=4,
                nt_overhead_cycles=0,
                layer_barrier_cycles=0,
            ),
            ArchitectureConfig(num_nt_units=2, num_mp_units=3, apply_parallelism=3, scatter_parallelism=1),
        ],
        graphs=[edges_graph(3, [[0, 1], [1, 2]]), edges_graph(3, [[0, 1], [1, 2]]), edges_graph(2, [[1, 0]])],
        # The clear falls before call 5, which repeats call 4.
        calls=[(0, 0, 0), None, (1, 0, 0), None, (0, 1, 0), None, (2, 2, 7), (0, 0, 0), (0, 0, 7), None],
        clear_at=0.5,
    )
    def test_one_cache_bound_to_many_configs_counts_distinct_keys(self, configs, graphs, calls, clear_at):
        """One cache bound to several configs, called in a random order with
        consecutive repeats, interleaved graphs, an equal copy of a spec and
        one ``clear()``: every timing is the reference's, and hits, misses
        and entries are what counting distinct (config key, signature,
        spec) keys gives."""
        specs = [*zoo_layer_specs(), copy.copy(zoo_layer_specs()[0])]
        cache = ScheduleCache()
        bound = [cache.bind(config) for config in configs]
        seen, hits, misses = set(), 0, 0
        # At least one call on each side of the clear.
        clear_index = 1 + int(clear_at * (len(calls) - 2))
        previous = (0, 0, 0)
        for index, call in enumerate(calls):
            if index == clear_index:
                cache.clear()
                seen, hits, misses = set(), 0, 0
            config_index, graph_index, spec_index = previous = call or previous
            config = configs[config_index % len(configs)]
            graph = graphs[graph_index % len(graphs)]
            spec = specs[spec_index % len(specs)]
            timing = bound[config_index % len(configs)](graph, spec, config)
            assert timing == schedule_layer(graph, spec, config)
            key = dse_cache.schedule_cache_key(graph, spec, config)
            hits += key in seen
            misses += key not in seen
            seen.add(key)
            assert (cache.hits, cache.misses, len(cache)) == (hits, misses, len(seen))

    def test_clear_resets_counters(self, molhiv):
        cache = ScheduleCache()
        model = build_model("GCN", input_dim=molhiv.node_feature_dim)
        cache.schedule(molhiv[0], model.layer_specs()[0], ArchitectureConfig())
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate == 0.0


class TestLayerPlans:
    def test_traced_scheduler_sees_every_miss_and_plan(self, small_spec, monkeypatch):
        """A wrapper on ``repro.dse.cache.fast_schedule_layer``, as perfbench's
        traced run installs, sees every miss, and every plan is built inside
        one of its calls."""
        scheduler = dse_cache.fast_schedule_layer
        plan = fastpath.layer_plan
        running = []  # one flag per call, True while the call runs
        plans_outside = []

        def traced(*args, **kwargs):
            running.append(True)
            try:
                return scheduler(*args, **kwargs)
            finally:
                running[-1] = False

        def tracked_plan(spec, config):
            if not (running and running[-1]):
                plans_outside.append(spec)
            return plan(spec, config)

        monkeypatch.setattr(dse_cache, "fast_schedule_layer", traced)
        monkeypatch.setattr(fastpath, "layer_plan", tracked_plan)
        result = SweepRunner(small_spec, workers=0).run()
        assert len(running) == result.cache_info["misses"] > 0
        assert plans_outside == []

    def test_one_plan_per_point_and_distinct_spec(self, monkeypatch):
        """A point builds one plan per distinct spec and shares it across
        its graphs (GAT has two distinct specs, GCN one)."""
        plan = fastpath.layer_plan
        built = []
        monkeypatch.setattr(fastpath, "layer_plan", lambda spec, config: built.append(spec) or plan(spec, config))
        spec = SweepSpec(
            models=("GCN", "GAT"),
            grid={"num_nt_units": (1, 2), "num_mp_units": (1, 3)},
            num_graphs=2,
            board=None,
        )
        result = SweepRunner(spec, workers=0).run()
        dataset = load_dataset("MolHIV", num_graphs=1)
        distinct_specs = sum(
            len(set(build_model(name, input_dim=dataset.node_feature_dim).layer_specs())) for name in ("GCN", "GAT")
        )
        assert distinct_specs == 3
        assert len(built) == len(list(spec.configs())) * distinct_specs
        assert result.cache_info["misses"] == 2 * len(built)


class TestSweepRunner:
    @pytest.mark.parametrize("dataset", ["MolHIV", "HEP"])
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_engine_matches_naive_loop_bit_for_bit(self, model, dataset, monkeypatch):
        """Whole rows, and no state left on the models: the engine derives
        what it needs once per job and keeps it off the model."""
        spec = SweepSpec.parallelism_grid(
            models=(model,),
            datasets=(dataset,),
            node_values=(1, 3),
            edge_values=(2, 5),
            apply_values=(1, 3),
            scatter_values=(4, 7),
            num_graphs=2,
            board=None,
        )
        built = []

        def build_and_snapshot(*args, **kwargs):
            built_model = build_model(*args, **kwargs)
            for part in (built_model, *built_model.layers):
                built.append((part, dict(vars(part))))
            return built_model

        monkeypatch.setattr(dse_runner, "build_model", build_and_snapshot)
        naive = naive_sweep(spec)
        engine = SweepRunner(spec, workers=0).run()
        assert len(engine.rows) == spec.num_points()
        assert engine.rows == naive.rows
        assert built
        for part, before in built:
            after = vars(part)
            assert after.keys() == before.keys()
            assert all(after[name] is before[name] for name in before)

    def test_engine_matches_accelerator_stream(self, molhiv):
        """Spot-check one point against the public accelerator API."""
        spec = SweepSpec(models=("GIN+VN",), num_graphs=6, board=None)
        engine = SweepRunner(spec, workers=0).run()
        model = build_model(
            "GIN+VN",
            input_dim=molhiv.node_feature_dim,
            edge_input_dim=molhiv.edge_feature_dim,
            seed=0,
        )
        stream = FlowGNNAccelerator(model, spec.base_config).run_stream(list(molhiv))
        assert engine.rows[0]["latency_ms"] == stream.mean_latency_ms
        assert engine.rows[0]["total_cycles"] == stream.total_cycles

    def test_cache_statistics_reported(self, small_spec):
        engine = SweepRunner(small_spec, workers=0).run()
        info = engine.cache_info
        assert info["misses"] > 0
        assert info["hits"] > info["misses"]  # 5 identical GCN layers per graph
        assert 0.0 < info["hit_rate"] < 1.0

    def test_disabling_cache_gives_same_rows(self, small_spec):
        cached = SweepRunner(small_spec, workers=0).run()
        uncached = SweepRunner(small_spec, workers=0, use_cache=False).run()
        assert uncached.rows == cached.rows
        assert uncached.cache_info["misses"] == 0

    def test_board_prefilter_skips_infeasible_points(self):
        spec = SweepSpec.parallelism_grid(
            models=("PNA",),
            node_values=(1, 16),
            edge_values=(4,),
            apply_values=(1, 16),
            scatter_values=(4,),
            num_graphs=2,
            board=ALVEO_U50,
        )
        result = SweepRunner(spec, workers=0).run()
        assert result.skipped, "expected the 16x16 PNA kernel to exceed the U50"
        assert len(result.rows) + len(result.skipped) == spec.num_points()
        for row in result.skipped:
            assert "exceeds Alveo U50" in row["reason"]
        assert all(row["dsp"] <= ALVEO_U50.dsp for row in result.rows)

    def test_find_best_and_column(self, small_spec):
        result = SweepRunner(small_spec, workers=0).run()
        base = result.find(p_node=1, p_edge=1, p_apply=1, p_scatter=4)
        assert len(base) == 1
        best = result.best("latency_ms")
        assert best["latency_ms"] == min(result.column("latency_ms"))

    def test_csv_export_roundtrip(self, small_spec, tmp_path):
        result = SweepRunner(small_spec, workers=0).run()
        path = tmp_path / "sweep.csv"
        text = result.to_csv(str(path))
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert len(lines) == len(result.rows) + 1
        assert lines[0].startswith("model,dataset,p_node,p_edge,p_apply,p_scatter")

    def test_multi_model_multi_dataset_sweep(self):
        spec = SweepSpec(
            models=("GCN", "GAT"),
            datasets=("MolHIV", "HEP"),
            grid={"num_nt_units": (1, 2)},
            num_graphs=2,
            board=None,
        )
        result = SweepRunner(spec, workers=0).run()
        assert len(result.rows) == 8
        assert {(row["model"], row["dataset"]) for row in result.rows} == {
            ("GCN", "MolHIV"), ("GCN", "HEP"), ("GAT", "MolHIV"), ("GAT", "HEP"),
        }

    def test_fig10_grid_engine_matches_naive_sweep(self):
        """The full Fig. 10 grid (108 configs, 12 MolHIV graphs): the engine
        replicates the ``StreamResult`` aggregation operation for operation."""
        spec = SweepSpec.parallelism_grid(num_graphs=12, board=None)
        naive = naive_sweep(spec)
        engine = SweepRunner(spec, workers=0).run()
        assert len(naive.rows) == len(engine.rows) == spec.num_points()
        for reference, candidate in zip(naive.rows, engine.rows):
            assert candidate["total_cycles"] == reference["total_cycles"], reference
            assert candidate["latency_ms"] == reference["latency_ms"], reference

    def test_dse_worker_fanout_matches_serial(self):
        """Rows from a multiprocessing run are identical to the serial run."""
        spec = SweepSpec.parallelism_grid(
            node_values=(1, 2), edge_values=(1, 4), apply_values=(2,), scatter_values=(4,),
            num_graphs=6, board=None,
        )
        serial = SweepRunner(spec, workers=0).run()
        fanned = SweepRunner(spec, workers=2).run()
        assert fanned.rows == serial.rows


class TestPareto:
    def test_dominated_rows_removed(self):
        rows = [
            {"latency_ms": 1.0, "dsp": 100, "bram": 10, "power_w": 5.0},
            {"latency_ms": 2.0, "dsp": 200, "bram": 20, "power_w": 6.0},  # dominated
            {"latency_ms": 0.5, "dsp": 400, "bram": 10, "power_w": 7.0},
        ]
        frontier = pareto_frontier(rows)
        assert rows[0] in frontier and rows[2] in frontier
        assert rows[1] not in frontier

    def test_single_objective_degenerates_to_min(self):
        rows = [{"latency_ms": value} for value in (3.0, 1.0, 2.0)]
        frontier = pareto_frontier(rows, objectives=("latency_ms",))
        assert frontier == [{"latency_ms": 1.0}]

    def test_missing_objective_raises(self):
        with pytest.raises(KeyError):
            pareto_frontier([{"latency_ms": 1.0}], objectives=("latency_ms", "dsp"))

    def test_sweep_pareto_contains_global_minima(self, small_spec):
        result = SweepRunner(small_spec, workers=0).run()
        frontier = result.pareto()
        assert frontier
        best_latency = result.best("latency_ms")
        assert any(row["latency_ms"] == best_latency["latency_ms"] for row in frontier)
        assert all(row in result.rows for row in frontier)


class TestCLIDse:
    def test_dse_command_runs_and_prints(self, capsys, tmp_path):
        from repro.cli import main

        csv_path = tmp_path / "dse.csv"
        code = main(
            [
                "dse",
                "--models", "GCN",
                "--datasets", "MolHIV",
                "--num-graphs", "2",
                "--p-node", "1,2",
                "--p-edge", "2",
                "--p-apply", "2",
                "--p-scatter", "4",
                "--workers", "0",
                "--pareto",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "design-space sweep" in out
        assert "Pareto frontier" in out
        assert "schedule cache" in out
        assert csv_path.exists()

    def test_dse_command_rejects_bad_model(self, capsys):
        from repro.cli import main

        assert main(["dse", "--models", "Transformer"]) == 2
        assert "invalid sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "repeated",
        [
            ["--p-node", "1,1"],
            ["--models", "GCN,GCN", "--datasets", "MolHIV,MolHIV"],
        ],
        ids=["grid-value", "model-and-dataset"],
    )
    def test_dse_command_rejects_repeated_values(self, capsys, repeated):
        """Each repeat used to print its rows again and exit 0."""
        from repro.cli import main

        argv = [
            "dse",
            "--models", "GCN",
            "--datasets", "MolHIV",
            "--num-graphs", "2",
            "--workers", "0",
            "--p-node", "1",
            "--p-edge", "1",
            "--p-apply", "1",
            "--p-scatter", "1",
        ]
        for flag, value in zip(repeated[::2], repeated[1::2]):
            argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid sweep: ")
        assert "repeats" in captured.err
        assert len(captured.err.splitlines()) == 1
