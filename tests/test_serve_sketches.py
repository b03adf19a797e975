"""Accuracy and exactness properties of the streaming accumulators.

Seeded sweeps over the three latency-distribution shapes the serving
simulator produces — lognormal (service-time-like), bimodal (queued vs.
unqueued requests) and Pareto heavy tail (bursty overload) — pinning the
accuracy contract documented in :mod:`repro.serve.sketches`:

* count / mean / min / max are **exact** in every sketch;
* the log-spaced histogram's p50/p99 are within ~2% of ``np.percentile``
  for *all three* shapes (its error is its bucket width, distribution
  independent) — which is why it backs :class:`~repro.serve.LatencySketch`.

The accuracy sweeps use plain seeded ``numpy`` generators, reproducible
everywhere.  The log-spaced histogram's index buckets are checked against
``searchsorted`` on every edge and its neighbours, on the special values and
on derandomised Hypothesis draws, and against one-value-at-a-time updates;
chunks under ``INDEX_MIN_VALUES`` and edges ``log_spaced`` did not build keep
the binary search.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import StreamStatistics
from repro.serve import (
    LatencySketch,
    StreamingHistogram,
    StreamingMoments,
    sketch_nbytes,
)
from repro.serve.sketches import INDEX_MIN_VALUES

SEEDS = list(range(10))
N = 4000


def _sample(shape: str, seed: int, n: int = N) -> np.ndarray:
    """One seeded draw of a latency-like positive sample."""
    rng = np.random.default_rng(seed)
    if shape == "lognormal":
        data = rng.lognormal(0.0, 1.0, n)
    elif shape == "bimodal":
        # Queueing's signature mix: a tight fast mode (unqueued requests,
        # latency ~ service time) and a slow mode an order of magnitude out.
        data = np.concatenate(
            [rng.normal(1.0, 0.05, n // 2), rng.normal(10.0, 0.5, n - n // 2)]
        ).clip(1e-6)
    elif shape == "heavy":
        data = rng.pareto(1.5, n) + 1.0
    else:  # pragma: no cover - guarded by parametrize
        raise ValueError(shape)
    rng.shuffle(data)  # streams arrive unsorted
    return data


SHAPES = ["lognormal", "bimodal", "heavy"]


# ---------------------------------------------------------------------------
# StreamingMoments: exactness
# ---------------------------------------------------------------------------
class TestStreamingMoments:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_count_mean_min_max_exact(self, shape, seed):
        data = _sample(shape, seed)
        moments = StreamingMoments()
        moments.update_many(data)
        assert moments.count == data.size
        assert moments.min == float(data.min())
        assert moments.max == float(data.max())
        # One update_many call reproduces numpy's reduction bit for bit.
        assert moments.total == float(np.sum(data))

    def test_chunked_updates_match_scalar_updates(self):
        data = _sample("lognormal", 0, 512)
        chunked, scalar = StreamingMoments(), StreamingMoments()
        for start in range(0, data.size, 100):
            chunked.update_many(data[start : start + 100])
        for value in data:
            scalar.update(float(value))
        assert chunked.count == scalar.count == data.size
        assert chunked.min == scalar.min
        assert chunked.max == scalar.max
        assert np.isclose(chunked.total, scalar.total, rtol=1e-12)

    def test_empty(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.mean == 0.0


# ---------------------------------------------------------------------------
# Log-spaced histogram: the distribution-independent quantile bound
# ---------------------------------------------------------------------------
class TestLogHistogramQuantiles:
    @pytest.mark.parametrize("q", [0.5, 0.99])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_within_two_percent_for_any_shape(self, q, shape, seed):
        data = _sample(shape, seed)
        hist = StreamingHistogram.log_spaced(low=1e-9, high=1e6)
        hist.update_many(data)
        truth = float(np.percentile(data, q * 100))
        assert abs(hist.quantile(q) - truth) <= 0.02 * truth

    def test_small_samples_stay_within_bucket_error(self):
        data = np.array([1.0, 100.0, 2.0])
        hist = StreamingHistogram.log_spaced()
        hist.update_many(data)
        for q in (0.0, 0.5, 0.99, 1.0):
            truth = float(np.percentile(data, q * 100))
            assert abs(hist.quantile(q) - truth) <= 0.03 * truth

    def test_extremes_are_exact(self):
        data = _sample("heavy", 0)
        hist = StreamingHistogram.log_spaced(low=1e-9, high=1e6)
        hist.update_many(data)
        assert hist.quantile(0.0) == float(data.min())
        assert hist.quantile(1.0) == float(data.max())

    def test_empty_and_validation(self):
        hist = StreamingHistogram.log_spaced()
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            StreamingHistogram.log_spaced(low=0.0)

    @pytest.mark.parametrize(
        "grid",
        [dict(low=5e-324, high=1e308), dict(low=1e-300, high=1e300), dict(rel=1e-320)],
        ids=["subnormal-low", "overflowing-ratio", "subnormal-rel"],
    )
    def test_infinite_bucket_count_is_a_value_error_naming_the_range(self, grid):
        """``high / low`` overflows, or ``log1p(rel)`` is subnormal: the
        bucket count is infinite, which must not reach ``int``."""
        with pytest.raises(ValueError, match=r"low=.*high=.*rel="):
            StreamingHistogram.log_spaced(**grid)


# ---------------------------------------------------------------------------
# Fixed-bucket histogram bookkeeping
# ---------------------------------------------------------------------------
class TestStreamingHistogram:
    def test_counts_match_np_histogram_convention(self):
        data = _sample("lognormal", 1, 1000)
        edges = [0.5, 1.0, 2.0, 4.0]
        hist = StreamingHistogram(edges)
        hist.update_many(data)
        assert int(hist.counts.sum()) == data.size
        # Bucket i holds edges[i-1] <= x < edges[i].
        assert hist.counts[0] == int(np.sum(data < 0.5))
        assert hist.counts[1] == int(np.sum((data >= 0.5) & (data < 1.0)))
        assert hist.counts[-1] == int(np.sum(data >= 4.0))

    def test_scalar_update_equals_vector_update(self):
        data = _sample("heavy", 2, 300)
        scalar = StreamingHistogram.power_of_two()
        vector = StreamingHistogram.power_of_two()
        for value in data:
            scalar.update(float(value))
        vector.update_many(data)
        np.testing.assert_array_equal(scalar.counts, vector.counts)
        assert scalar.mean == pytest.approx(vector.mean, rel=1e-12)
        assert scalar.max == vector.max

    @pytest.mark.parametrize(
        "make",
        [
            StreamingHistogram.log_spaced,
            StreamingHistogram.power_of_two,
            lambda: StreamingHistogram.integers(8),
        ],
        ids=["log_spaced", "power_of_two", "integers"],
    )
    def test_scalar_update_buckets_every_boundary_like_update_many(self, make):
        """Each value lands where ``update_many`` puts it: on every edge, one
        ulp either side, outside the edge range, and at +-inf and NaN."""
        edges = make().edges
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [edges[0] / 2, 0.0, -0.0, -1.0, edges[-1] * 2],
                [np.inf, -np.inf, np.nan],
            ]
        )
        scalar, vector = make(), make()
        for value in values.tolist():
            scalar.update(value)
            vector.update_many(np.array([value]))
            np.testing.assert_array_equal(scalar.counts, vector.counts)
        assert int(scalar.counts.sum()) == values.size

    def test_integer_buckets_are_lossless(self):
        sizes = np.array([1, 4, 2, 4, 4, 1], dtype=np.float64)
        hist = StreamingHistogram.integers(4)
        hist.update_many(sizes)
        assert hist.counts[1] == 2  # batch size 1
        assert hist.counts[2] == 1  # batch size 2
        assert hist.counts[4] == 3  # batch size 4
        assert hist.mean == pytest.approx(sizes.mean())

    def test_memory_does_not_grow_with_samples(self):
        hist = StreamingHistogram.log_spaced()
        hist.update_many(_sample("lognormal", 0, 100))
        before = sketch_nbytes(hist)
        hist.update_many(_sample("lognormal", 1, 100_000))
        assert sketch_nbytes(hist) == before


# ---------------------------------------------------------------------------
# Log-spaced buckets by index: exactly searchsorted's
# ---------------------------------------------------------------------------
#: ``log_spaced`` at its defaults, coarse and wide, fine and narrow, with its
#: fewest edges (two), and far up and far down the float range.
LOG_GRIDS = [
    {},
    {"low": 1e-6, "high": 1e3, "rel": 0.05},
    {"low": 1e-3, "high": 10.0, "rel": 0.001},
    {"low": 1.0, "high": 1.5, "rel": 1.0},
    {"low": 1e200, "high": 1e300, "rel": 0.3},
    {"low": 1e-300, "high": 1e-250, "rel": 0.1},
]
LOG_GRID_IDS = ["defaults", "coarse", "fine", "two-edges", "huge", "tiny"]
SPECIAL_VALUES = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e308]


def differential_settings() -> settings:
    """Tier-1 runs a derandomised sample bounded to a few seconds.  The
    nightly CI run passes ``--hypothesis-profile=nightly`` (tests/conftest.py)
    and the loaded profile decides instead."""
    if settings.get_current_profile_name() == "nightly":
        return settings()
    return settings(max_examples=200, derandomize=True, deadline=None)


def _edge_probes(hist):
    """Every edge of ``hist``, both float neighbours of each and the special
    values, repeated up to a chunk that ``_count`` sends down the index path."""
    edges = hist.edges
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), SPECIAL_VALUES])
    return np.tile(values, -(-INDEX_MIN_VALUES // values.size))


def _log_uniform(seed, size, low=1e-12, high=1e7):
    return np.exp(np.random.default_rng(seed).uniform(math.log(low), math.log(high), size))


def _assert_buckets_match_searchsorted(hist, values):
    """The index buckets of a fresh ``hist`` are ``searchsorted``'s, and its
    ``_count`` adds the counts a searching histogram on its edges adds."""
    expected = hist.edges.searchsorted(values, side="right")
    assert hist._log_buckets(values).tolist() == expected.tolist()
    searching = StreamingHistogram(hist.edges)
    hist._count(values)
    searching._count(values)
    assert hist.counts.tolist() == searching.counts.tolist()


class TestLogBuckets:
    @pytest.mark.parametrize("grid", LOG_GRIDS, ids=LOG_GRID_IDS)
    def test_every_edge_its_neighbours_and_special_values(self, grid):
        hist = StreamingHistogram.log_spaced(**grid)
        _assert_buckets_match_searchsorted(hist, _edge_probes(hist))

    @differential_settings()
    @given(
        grid=st.sampled_from(range(len(LOG_GRIDS))),
        size=st.integers(INDEX_MIN_VALUES, 4 * INDEX_MIN_VALUES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_values_bucket_like_searchsorted(self, grid, size, seed):
        """Log-uniform values from 1e-12 to 1e7 and over the grid's own span
        widened by a factor of e each way, inside and outside the grid."""
        hist = StreamingHistogram.log_spaced(**LOG_GRIDS[grid])
        low, high = hist.edges[0] / math.e, hist.edges[-1] * math.e
        values = np.concatenate([_log_uniform(seed, size), _log_uniform(seed + 1, size, low, high)])
        _assert_buckets_match_searchsorted(hist, values)

    @pytest.mark.parametrize("grid", LOG_GRIDS, ids=LOG_GRID_IDS)
    def test_chunk_counts_equal_one_value_at_a_time(self, grid):
        """A chunk through ``update_many`` (the index path) counts what
        ``update`` counts one value at a time (a bisect per value, the
        path of the event loop's per-request sink)."""
        chunked = StreamingHistogram.log_spaced(**grid)
        values = _edge_probes(chunked)
        with np.errstate(invalid="ignore"):  # the chunk's sum adds inf and -inf
            chunked.update_many(values)
        one_by_one = StreamingHistogram.log_spaced(**grid)
        for value in values.tolist():
            one_by_one.update(value)
        assert chunked.counts.tolist() == one_by_one.counts.tolist()

    @pytest.mark.parametrize("size", [1, INDEX_MIN_VALUES - 1, INDEX_MIN_VALUES, 3 * INDEX_MIN_VALUES])
    def test_index_path_takes_chunks_from_index_min_values(self, size):
        """Smaller chunks keep the binary search, and both paths count alike."""
        hist = StreamingHistogram.log_spaced()
        values = _log_uniform(size, size)
        index_path = mock.patch.object(
            StreamingHistogram, "_log_buckets", autospec=True, side_effect=StreamingHistogram._log_buckets
        )
        with index_path as log_buckets:
            hist._count(values)
        assert log_buckets.called == (size >= INDEX_MIN_VALUES)
        searching = StreamingHistogram(hist.edges)
        searching._count(values)
        assert hist.counts.tolist() == searching.counts.tolist()

    @pytest.mark.parametrize(
        "make",
        [
            StreamingHistogram.power_of_two,
            lambda: StreamingHistogram.integers(64),
            lambda: StreamingHistogram([0.5, 1.0, 3.0]),
            lambda: StreamingHistogram([1.0]),
        ],
        ids=["power-of-two", "integers", "caller-edges", "one-edge"],
    )
    def test_other_edge_sets_keep_the_binary_search(self, make):
        """Edges ``log_spaced`` did not build never reach the index path,
        however large the chunk."""
        hist = make()
        values = np.concatenate([_log_uniform(0, 4 * INDEX_MIN_VALUES, 1e-3, 1e3), SPECIAL_VALUES])
        index_path = mock.patch.object(StreamingHistogram, "_log_buckets", side_effect=AssertionError("index path"))
        with index_path, np.errstate(invalid="ignore"):  # the chunk's sum adds inf and -inf
            hist.update_many(values)
        expected = np.bincount(hist.edges.searchsorted(values, side="right"), minlength=hist.counts.size)
        assert hist.counts.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# LatencySketch: the per-tenant aggregate
# ---------------------------------------------------------------------------
def _observe_one_group(sketch, latencies, services, energies, replicas):
    """The grouped fast-path update with ``sketch`` as its only group."""
    served = np.bincount(replicas, minlength=1)[None, :] > 0
    depths = np.zeros(latencies.size, dtype=np.int64)
    LatencySketch.observe_groups([sketch], [0, latencies.size], latencies, services, energies, served, depths)


class TestLatencySketch:
    def test_observe_matches_observe_groups(self):
        latencies = _sample("bimodal", 3, 500) * 1e-3
        services = latencies * 0.5
        energies = np.full(500, 1e-4)
        replicas = np.arange(500) % 3
        scalar = LatencySketch(deadline_s=2e-3)
        block = LatencySketch(deadline_s=2e-3)
        for i in range(500):
            scalar.observe(
                latency_s=float(latencies[i]),
                service_s=float(services[i]),
                energy_j=float(energies[i]),
                replica=int(replicas[i]),
                batch_size=1,
            )
        _observe_one_group(block, latencies, services, energies, replicas)
        assert scalar.completed == block.completed == 500
        assert scalar.latency.max == block.latency.max
        assert scalar.deadline_misses == block.deadline_misses
        assert scalar.replicas == block.replicas == {0, 1, 2}
        np.testing.assert_array_equal(
            scalar.quantiles.counts, block.quantiles.counts
        )
        assert scalar.p99_s() == block.p99_s()
        assert np.isclose(scalar.energy_j_total, block.energy_j_total, rtol=1e-12)

    def test_observe_groups_matches_per_group_updates(self):
        """Several groups, one of them empty: order-free state equals
        observing row by row, and each float total equals ``update_many``
        on the group's rows."""
        rng = np.random.default_rng(11)
        sizes = [40, 0, 1, 300]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        n = int(bounds[-1])
        latencies = _sample("bimodal", 4, n) * 1e-3
        # Two rows land exactly on (and within 1e-9 of) group 3's deadline.
        latencies[bounds[3]] = 2e-3
        latencies[bounds[3] + 1] = 2e-3 * (1 + 1e-12)
        services = rng.uniform(1e-4, 1e-3, n)
        energies = rng.uniform(0.0, 1e-3, n)
        replicas = rng.integers(0, 4, n)
        depths = rng.integers(0, 50, n)
        deadlines = [1e-3, 1e-3, None, 2e-3]
        grouped = [LatencySketch(deadline_s=d) for d in deadlines]
        served = np.zeros((len(sizes), 4), dtype=bool)
        for g in range(len(sizes)):
            served[g, replicas[bounds[g] : bounds[g + 1]]] = True
        LatencySketch.observe_groups(grouped, bounds, latencies, services, energies, served, depths)
        for g, sketch in enumerate(grouped):
            rows = slice(bounds[g], bounds[g + 1])
            rowwise = LatencySketch(deadline_s=deadlines[g])
            for i in range(bounds[g], bounds[g + 1]):
                rowwise.observe(latencies[i], services[i], energies[i], int(replicas[i]), 1)
                rowwise.queue.update(float(depths[i]))
            assert sketch.completed == rowwise.completed == sizes[g]
            assert sketch.deadline_misses == rowwise.deadline_misses
            assert sketch.replicas == rowwise.replicas
            np.testing.assert_array_equal(sketch.quantiles.counts, rowwise.quantiles.counts)
            for name in ("service", "latency", "batch", "queue"):
                a, b = getattr(sketch, name), getattr(rowwise, name)
                assert (a.count, a.min, a.max) == (b.count, b.min, b.max), name
            assert sketch.batch.total == rowwise.batch.total
            assert sketch.queue.total == rowwise.queue.total
            for name, column in (("service", services), ("latency", latencies)):
                reference = StreamingMoments()
                reference.update_many(column[rows])
                assert getattr(sketch, name).total.hex() == reference.total.hex(), name
            assert sketch.quantiles.moments.total == sketch.latency.total
            expected_energy = float(energies[rows].sum()) if sizes[g] else 0.0
            assert sketch.energy_j_total.hex() == expected_energy.hex()
        assert grouped[3].deadline_misses > 0

    @pytest.mark.parametrize("update", ["observe_groups", "observe_sequence"])
    def test_grouped_buckets_match_observe_across_the_index_cut_over(self, update):
        """Groups just under, at and over :data:`INDEX_MIN_VALUES` rows (the
        search, then the index path) bucket their latencies as ``observe``
        does row by row."""
        sizes = [INDEX_MIN_VALUES - 1, INDEX_MIN_VALUES, 3000]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        n = int(bounds[-1])
        latencies = np.concatenate([_sample("bimodal", 6, n) * 1e-3, _sample("heavy", 7, n) * 1e-6])[::2]
        latencies[:: n // 16] = SPECIAL_VALUES[0]  # exact zeros in every group
        services = np.full(n, 1e-4)
        energies = np.zeros(n)
        grouped = [LatencySketch() for _ in sizes]
        if update == "observe_groups":
            served = np.ones((len(sizes), 1), dtype=bool)
            depths = np.zeros(n, dtype=np.int64)
            LatencySketch.observe_groups(grouped, bounds, latencies, services, energies, served, depths)
        else:
            batch_sizes = np.ones(n, dtype=np.int64)
            LatencySketch.observe_sequence(grouped, bounds, latencies, services, energies, batch_sizes)
        for g, sketch in enumerate(grouped):
            rowwise = LatencySketch()
            for i in range(bounds[g], bounds[g + 1]):
                rowwise.observe(float(latencies[i]), 1e-4, 0.0, 0, 1)
            assert sketch.completed == rowwise.completed == sizes[g]
            assert sketch.quantiles.counts.tolist() == rowwise.quantiles.counts.tolist(), g

    def test_deadline_predicate_matches_stream_statistics(self):
        """Bit-for-bit the same miss count as the exact-mode oracle."""
        rng = np.random.default_rng(5)
        deadline = 1e-3
        arrivals = np.sort(rng.uniform(0, 0.01, 64))
        completions = arrivals + rng.uniform(0.5e-3, 2e-3, 64)
        latencies = completions - arrivals
        # Exact path: StreamStatistics' tolerant predicate.
        stats = StreamStatistics(
            per_graph_latency_s=latencies,
            completion_times_s=completions,
            deadline_s=deadline,
        )
        sketch = LatencySketch(deadline_s=deadline)
        _observe_one_group(
            sketch,
            latencies,
            np.full(64, 1e-4),
            np.zeros(64),
            np.zeros(64, dtype=int),
        )
        assert sketch.deadline_misses == stats.deadline_miss_count()
        # Boundary case: latency exactly at the deadline (within 1e-9
        # relative) must not count as a miss in either implementation.
        edge = LatencySketch(deadline_s=deadline)
        edge.observe(deadline * (1 + 1e-12), 1e-5, 0.0, 0, 1)
        assert edge.deadline_misses == 0
        edge.observe(deadline * 1.01, 1e-5, 0.0, 0, 1)
        assert edge.deadline_misses == 1

    def test_memory_constant_in_request_count(self):
        sketch = LatencySketch()
        _observe_one_group(
            sketch,
            _sample("lognormal", 0, 100) * 1e-3,
            np.full(100, 1e-4),
            np.zeros(100),
            np.zeros(100, dtype=int),
        )
        before = sketch_nbytes(sketch)
        _observe_one_group(
            sketch,
            _sample("lognormal", 1, 50_000) * 1e-3,
            np.full(50_000, 1e-4),
            np.zeros(50_000),
            np.zeros(50_000, dtype=int),
        )
        assert sketch_nbytes(sketch) == before
