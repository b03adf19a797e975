"""Accuracy and exactness properties of the streaming accumulators.

Seeded sweeps over the three latency-distribution shapes the serving
simulator produces — lognormal (service-time-like), bimodal (queued vs.
unqueued requests) and Pareto heavy tail (bursty overload) — pinning the
accuracy contract documented in :mod:`repro.serve.sketches`:

* count / mean / min / max are **exact** in every sketch;
* the log-spaced histogram's p50/p99 are within ~2% of ``np.percentile``
  for *all three* shapes (its error is its bucket width, distribution
  independent) — which is why it backs :class:`~repro.serve.LatencySketch`;
* P² holds its documented bands on unimodal shapes and is demonstrably
  unbounded on bimodal ones (the regression that motivated the histogram).

No external property-testing dependency: plain seeded ``numpy`` generators
keep the sweep reproducible everywhere.
"""

import numpy as np
import pytest

from repro.graph import StreamStatistics
from repro.serve import (
    LatencySketch,
    P2Quantile,
    QuantileSketch,
    StreamingHistogram,
    StreamingMoments,
    sketch_nbytes,
)

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
# P²: documented bands on unimodal shapes, documented failure on bimodal
# ---------------------------------------------------------------------------
class TestP2Quantile:
    @pytest.mark.parametrize("shape", ["lognormal", "heavy"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_p50_within_two_percent_on_unimodal(self, shape, seed):
        data = _sample(shape, seed)
        sketch = P2Quantile(0.5)
        sketch.update_many(data)
        truth = float(np.percentile(data, 50))
        assert abs(sketch.estimate() - truth) <= 0.02 * truth

    @pytest.mark.parametrize(
        "shape,tolerance", [("lognormal", 0.15), ("heavy", 0.25)]
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_p99_within_documented_band(self, shape, tolerance, seed):
        data = _sample(shape, seed)
        sketch = P2Quantile(0.99)
        sketch.update_many(data)
        truth = float(np.percentile(data, 99))
        assert abs(sketch.estimate() - truth) <= tolerance * truth

    def test_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        sketch.update_many(np.array([3.0, 1.0, 2.0]))
        assert sketch.estimate() == float(np.percentile([3.0, 1.0, 2.0], 50))

    def test_bimodal_p50_is_unbounded_which_is_why_latency_uses_histogram(self):
        """The documented P² failure mode: markers stuck between modes.

        This is a *characterisation* test — if P² ever starts handling
        bimodal medians, the serving sketches could go back to it.
        """
        worst = 0.0
        for seed in SEEDS:
            data = _sample("bimodal", seed)
            sketch = P2Quantile(0.5)
            sketch.update_many(data)
            truth = float(np.percentile(data, 50))
            worst = max(worst, abs(sketch.estimate() - truth) / truth)
        assert worst > 0.10  # >10% off, vs the histogram's 2% bound below

    def test_quantile_sketch_bundles_markers(self):
        data = _sample("lognormal", 0)
        bundle = QuantileSketch((0.5, 0.99))
        bundle.update_many(data)
        single = P2Quantile(0.5)
        single.update_many(data)
        assert bundle.estimate(0.5) == single.estimate()


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
