"""Tests for the real-time graph-stream model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import (
    GraphStream,
    molecule_like_graph,
    queue_depths_at_arrivals,
    simulate_stream_consumption,
)


@pytest.fixture
def five_graph_stream(rng):
    graphs = [molecule_like_graph(10, rng, 4, 2) for _ in range(5)]
    return GraphStream(graphs=graphs, arrival_interval_s=1e-3, name="test")


class TestGraphStream:
    def test_length_and_iteration(self, five_graph_stream):
        assert len(five_graph_stream) == 5
        assert sum(1 for _ in five_graph_stream) == 5

    def test_arrival_times_spacing(self, five_graph_stream):
        arrivals = five_graph_stream.arrival_times()
        np.testing.assert_allclose(np.diff(arrivals), 1e-3)

    def test_back_to_back_arrivals_default(self, rng):
        stream = GraphStream(graphs=[molecule_like_graph(5, rng)])
        assert stream.arrival_times().tolist() == [0.0]

    def test_totals(self, five_graph_stream):
        assert five_graph_stream.total_nodes() == sum(
            g.num_nodes for g in five_graph_stream.graphs
        )
        assert five_graph_stream.total_edges() == sum(
            g.num_edges for g in five_graph_stream.graphs
        )


class TestStreamConsumption:
    def test_fast_consumer_never_queues(self, five_graph_stream):
        stats = simulate_stream_consumption(five_graph_stream, lambda g: 1e-5)
        # Processing is 100x faster than arrivals: latency equals service time.
        np.testing.assert_allclose(stats.per_graph_latency_s, 1e-5)
        assert stats.deadline_miss_count() == 0
        assert stats.max_queue_depth == 0

    def test_slow_consumer_accumulates_latency(self, five_graph_stream):
        # Service takes 2x the arrival interval: queueing delay grows linearly.
        stats = simulate_stream_consumption(five_graph_stream, lambda g: 2e-3)
        latencies = stats.per_graph_latency_s
        assert latencies[0] == pytest.approx(2e-3)
        assert np.all(np.diff(latencies) > 0)
        assert stats.max_latency_s == pytest.approx(latencies[-1])

    def test_deadline_misses_counted(self, five_graph_stream):
        stats = simulate_stream_consumption(
            five_graph_stream, lambda g: 2e-3, deadline_s=3e-3
        )
        assert stats.deadline_miss_count() > 0
        assert 0.0 < stats.deadline_miss_rate() <= 1.0

    def test_no_deadline_means_no_misses(self, five_graph_stream):
        stats = simulate_stream_consumption(five_graph_stream, lambda g: 10.0)
        assert stats.deadline_miss_count() == 0
        assert stats.deadline_miss_rate() == 0.0

    def test_throughput_matches_service_rate_when_saturated(self, five_graph_stream):
        stats = simulate_stream_consumption(five_graph_stream, lambda g: 2e-3)
        # Saturated consumer: throughput approaches 1 / service_time.
        assert stats.throughput_graphs_per_s == pytest.approx(1.0 / 2e-3, rel=0.3)

    def test_latency_depends_on_graph(self, five_graph_stream):
        stats = simulate_stream_consumption(
            five_graph_stream, lambda g: g.num_nodes * 1e-6
        )
        expected = np.array([g.num_nodes * 1e-6 for g in five_graph_stream.graphs])
        np.testing.assert_allclose(stats.per_graph_latency_s, expected)

    def test_statistics_accessors_on_empty_stream(self):
        stream = GraphStream(graphs=[])
        stats = simulate_stream_consumption(stream, lambda g: 1.0)
        assert stats.mean_latency_s == 0.0
        assert stats.p99_latency_s == 0.0
        assert stats.throughput_graphs_per_s == 0.0


class TestStreamEdgeCases:
    def test_empty_stream_has_no_misses_and_no_queue(self):
        stats = simulate_stream_consumption(
            GraphStream(graphs=[]), lambda g: 1.0, deadline_s=1e-6
        )
        assert stats.deadline_miss_count() == 0
        assert stats.deadline_miss_rate() == 0.0
        assert stats.max_latency_s == 0.0
        assert stats.max_queue_depth == 0

    def test_deadline_exactly_equal_to_latency_is_not_a_miss(self, five_graph_stream):
        # A fast consumer's end-to-end latency equals its service time; a
        # deadline of exactly that service time is met, not missed.
        stats = simulate_stream_consumption(
            five_graph_stream, lambda g: 1e-4, deadline_s=1e-4
        )
        np.testing.assert_allclose(stats.per_graph_latency_s, 1e-4)
        assert stats.deadline_miss_count() == 0
        # A measurable overshoot (beyond float tolerance) is a miss everywhere.
        stats = simulate_stream_consumption(
            five_graph_stream, lambda g: 1e-4 * (1 + 1e-6), deadline_s=1e-4
        )
        assert stats.deadline_miss_count() == len(five_graph_stream)

    def test_generator_backed_stream_supports_multiple_consumers(self, rng):
        """Regression: ``graphs`` built from a generator used to be exhausted
        by its first consumer, so arrival bookkeeping (``total_nodes``,
        ``arrival_times``) silently starved every later consumer — exactly
        what happens when several serving replicas share one stream."""
        graphs = [molecule_like_graph(10, rng, 4, 2) for _ in range(4)]
        stream = GraphStream(
            graphs=(g for g in graphs), arrival_interval_s=1e-3
        )
        # Statistics consume nothing...
        assert len(stream) == 4
        assert stream.total_nodes() == sum(g.num_nodes for g in graphs)
        assert stream.arrival_times().shape == (4,)
        # ...and two independent consumers both see every graph.
        first = simulate_stream_consumption(stream, lambda g: 1e-5)
        second = simulate_stream_consumption(stream, lambda g: 1e-5)
        assert first.per_graph_latency_s.shape == (4,)
        np.testing.assert_array_equal(
            first.per_graph_latency_s, second.per_graph_latency_s
        )

    def test_stream_snapshot_is_immune_to_caller_mutation(self, rng):
        """Mutating the caller's list after construction must not change
        what consumers see (the stream is a value, not a view)."""
        graphs = [molecule_like_graph(10, rng, 4, 2) for _ in range(3)]
        stream = GraphStream(graphs=graphs, arrival_interval_s=1e-3)
        graphs.pop()
        assert len(stream) == 3
        stats = simulate_stream_consumption(stream, lambda g: 1e-5)
        assert stats.per_graph_latency_s.shape == (3,)

    def test_queue_depths_helper_matches_simulation(self, five_graph_stream):
        stats = simulate_stream_consumption(five_graph_stream, lambda g: 2e-3)
        recomputed = queue_depths_at_arrivals(
            five_graph_stream.arrival_times(), stats.completion_times_s
        )
        np.testing.assert_array_equal(stats.queue_depth_trace, recomputed)

    def test_queue_depths_fast_path_matches_reference_mask(self, rng):
        """The sorted-arrivals O(n log n) path must agree exactly with the
        brute-force pending mask, including out-of-order completions (a
        multi-replica cluster completes requests out of arrival order)."""
        n = 300
        arrivals = np.sort(rng.uniform(0, 1.0, size=n))
        completions = arrivals + rng.uniform(0, 0.3, size=n)  # not sorted
        fast = queue_depths_at_arrivals(arrivals, completions)
        reference = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            reference[i] = int(
                np.sum((arrivals[:i] <= arrivals[i]) & (completions[:i] > arrivals[i]))
            )
        np.testing.assert_array_equal(fast, reference)
        # Unsorted arrivals take the mask path and must also agree.
        shuffled = rng.permutation(n)
        np.testing.assert_array_equal(
            queue_depths_at_arrivals(arrivals[shuffled], completions[shuffled]),
            np.array(
                [
                    int(
                        np.sum(
                            (arrivals[shuffled][:i] <= arrivals[shuffled][i])
                            & (completions[shuffled][:i] > arrivals[shuffled][i])
                        )
                    )
                    for i in range(n)
                ],
                dtype=np.int64,
            ),
        )

    def test_zero_arrival_interval_is_a_burst(self, rng):
        graphs = [molecule_like_graph(10, rng, 4, 2) for _ in range(4)]
        stream = GraphStream(graphs=graphs, arrival_interval_s=0.0)
        assert stream.arrival_times().tolist() == [0.0] * 4
        stats = simulate_stream_consumption(stream, lambda g: 1e-3)
        # Everything arrives at t=0 and is served in order: latency ramps
        # linearly and the queue drains one graph per service time.
        np.testing.assert_allclose(
            stats.per_graph_latency_s, [1e-3, 2e-3, 3e-3, 4e-3]
        )
        assert stats.max_queue_depth == 3


def differential_settings() -> settings:
    """Tier-1 runs a derandomised sample bounded to a few seconds.  The
    nightly CI run passes ``--hypothesis-profile=nightly`` (tests/conftest.py)
    and the loaded profile decides instead."""
    if settings.get_current_profile_name() == "nightly":
        return settings()
    return settings(max_examples=300, derandomize=True, deadline=None)


@st.composite
def arrivals_and_completions(draw):
    """Sorted arrivals on a grid, so ties are common, and services of 0-4
    grid steps, so zero service is common and completions come out of
    order.  Sometimes a completion precedes its own arrival, or the rows
    are shuffled; both take the mask path."""
    n = draw(st.integers(0, 40))
    step = draw(st.sampled_from([1.0, 0.25, 1e-3]))
    gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    services = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    arrivals = np.cumsum(np.array(gaps, dtype=np.float64)) * step
    completions = arrivals + np.array(services, dtype=np.float64) * step
    if n and draw(st.integers(0, 9)) == 0:
        early = draw(st.integers(0, n - 1))
        completions[early] = arrivals[early] - step
    if n and draw(st.integers(0, 9)) == 0:
        order = draw(st.permutations(range(n)))
        arrivals, completions = arrivals[order], completions[order]
    return arrivals, completions


def _pending_mask_depths(arrivals, completions):
    """Depth ``i`` by definition: earlier rows arrived by ``a_i`` and not yet completed."""
    return np.array(
        [int(np.sum((arrivals[:i] <= arrivals[i]) & (completions[:i] > arrivals[i]))) for i in range(len(arrivals))],
        dtype=np.int64,
    )


class TestQueueDepthDifferential:
    @differential_settings()
    @given(arrivals_and_completions())
    # A tie group whose later row is served in no time: one sorted search
    # alone counts that row as done before its group-mate arrived.
    @example((np.array([0.0, 0.0]), np.array([1.0, 0.0])))
    def test_queue_depths_match_pending_mask_on_generated_ties(self, case):
        arrivals, completions = case
        depths = queue_depths_at_arrivals(arrivals, completions)
        assert depths.dtype == np.int64
        np.testing.assert_array_equal(depths, _pending_mask_depths(arrivals, completions))
