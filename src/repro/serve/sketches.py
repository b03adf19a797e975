"""Online accumulators backing the streaming (sketch-mode) serving report.

Exact-mode serving stores a per-request latency array and derives every
statistic from it afterwards; at datacenter scale that array *is* the memory
bound.  This module provides the O(1)-memory replacements:

* :class:`StreamingMoments` — count / sum (mean) / min / max, exactly.  The
  chunked update sums each chunk with ``.sum()`` so a single ``update_many``
  call reproduces numpy's reduction bit for bit (the property tests pin
  this); across chunks only summation order differs.
* :class:`P2Quantile` — the P² algorithm (Jain & Chlamtac, 1985): one
  quantile estimated from five markers, no samples stored.  Below five
  observations the estimate is exact (the samples are the markers).
* :class:`QuantileSketch` — a bundle of :class:`P2Quantile` markers (p50 and
  p99 by default) sharing one update call.
* :class:`StreamingHistogram` — fixed, caller-chosen bucket edges with
  vectorised chunk updates, plus exact count/sum/min/max so means and maxima
  never degrade to bucket resolution.  :meth:`StreamingHistogram.log_spaced`
  builds HDR-style geometric buckets whose :meth:`~StreamingHistogram.quantile`
  estimates carry a distribution-independent relative-error bound.
* :class:`LatencySketch` — the per-tenant aggregation the serving simulator
  feeds: exact service/energy moments, end-to-end latency moments with
  log-histogram percentiles, and the float-tolerant deadline-miss counter
  that mirrors :meth:`~repro.graph.StreamStatistics.deadline_miss_count`
  exactly.

Accuracy contract (pinned by ``tests/test_serve_sketches.py``):

* the log-spaced histogram's p50/p99 are within ~3% relative error of
  ``np.percentile`` for *any* sample inside its [1 ns, 10 000 s] range —
  bucket width (2%) plus interpolation slack — which is why it backs the
  serving report: queueing produces bimodal latency mixtures (fast unqueued
  vs. slow queued requests) on which marker estimators fail badly;
* P² p50 is within ~2% on unimodal lognormal/Pareto samples of >= 2k
  observations and p99 within ~15% (lognormal) / ~25% (Pareto heavy tail),
  but is documented (and tested) as *unbounded* on strongly bimodal data —
  it remains exported as the constant-memory primitive for metrics without
  a natural bucket range.
  P² is order-dependent, so estimates are deterministic for a deterministic
  stream (everything in :mod:`repro.serve` is) but may differ within the
  band between event orderings;
* count, mean, min and max are exact in all sketches.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StreamingMoments",
    "P2Quantile",
    "QuantileSketch",
    "StreamingHistogram",
    "LatencySketch",
    "sketch_nbytes",
]


class StreamingMoments:
    """Exact streaming count / sum / min / max (and mean) of a sample."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def update(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order: the running sum adds them one at a time."""
        total, low, high = self.total, self.min, self.max
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self.count += len(values)
        self.total, self.min, self.max = total, low, high

    def update_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self.merge(int(values.size), float(values.sum()), float(values.min()), float(values.max()))

    def merge(self, count: int, total: float, low: float, high: float) -> None:
        """Fold in ``count`` samples summing to ``total`` with extrema ``low``/``high``."""
        self.count += count
        self.total += total
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class P2Quantile:
    """The P² single-quantile estimator: five markers, no stored samples.

    ``estimate()`` is exact until five observations arrive (the markers are
    the sorted sample); afterwards the middle markers track the ``q``-th
    quantile by piecewise-parabolic interpolation.  ``update_many`` is a
    per-sample loop by necessity (the algorithm is sequential), written
    against local bindings so the 10M-request scale gate stays affordable.
    """

    __slots__ = ("q", "heights", "positions", "desired", "increments", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = float(q)
        self.heights: List[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self.increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    # -- update ---------------------------------------------------------------
    def update(self, value: float) -> None:
        self.update_many((value,))

    def update_many(self, values: Sequence[float]) -> None:
        if isinstance(values, np.ndarray):
            values = values.tolist()
        heights = self.heights
        count = self.count
        # Bootstrap: the first five observations are stored verbatim.
        index = 0
        total = len(values)
        while count < 5 and index < total:
            heights.append(float(values[index]))
            index += 1
            count += 1
            if count == 5:
                heights.sort()
        self.count = count
        if index >= total:
            return
        positions = self.positions
        desired = self.desired
        increments = self.increments
        h0, h1, h2, h3, h4 = heights
        n0, n1, n2, n3, n4 = positions
        d1, d2, d3 = desired[1], desired[2], desired[3]
        i1, i2, i3 = increments[1], increments[2], increments[3]
        for raw in values[index:]:
            x = float(raw)
            # Locate the cell and clamp the extreme markers.
            if x < h0:
                h0 = x
                k = 0
            elif x < h1:
                k = 0
            elif x < h2:
                k = 1
            elif x < h3:
                k = 2
            elif x <= h4:
                k = 3
            else:
                h4 = x
                k = 3
            if k < 1:
                n1 += 1.0
            if k < 2:
                n2 += 1.0
            if k < 3:
                n3 += 1.0
            n4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            # Adjust the three middle markers toward their desired positions.
            delta = d1 - n1
            if (delta >= 1.0 and n2 - n1 > 1.0) or (delta <= -1.0 and n0 - n1 < -1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = _parabolic(step, n0, n1, n2, h0, h1, h2)
                if h0 < candidate < h2:
                    h1 = candidate
                else:
                    h1 = _linear(step, n0, n1, n2, h0, h1, h2)
                n1 += step
            delta = d2 - n2
            if (delta >= 1.0 and n3 - n2 > 1.0) or (delta <= -1.0 and n1 - n2 < -1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = _parabolic(step, n1, n2, n3, h1, h2, h3)
                if h1 < candidate < h3:
                    h2 = candidate
                else:
                    h2 = _linear(step, n1, n2, n3, h1, h2, h3)
                n2 += step
            delta = d3 - n3
            if (delta >= 1.0 and n4 - n3 > 1.0) or (delta <= -1.0 and n2 - n3 < -1.0):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = _parabolic(step, n2, n3, n4, h2, h3, h4)
                if h2 < candidate < h4:
                    h3 = candidate
                else:
                    h3 = _linear(step, n2, n3, n4, h2, h3, h4)
                n3 += step
        heights[0], heights[1], heights[2], heights[3], heights[4] = h0, h1, h2, h3, h4
        positions[0], positions[1], positions[2], positions[3], positions[4] = (
            n0, n1, n2, n3, n4,
        )
        desired[1], desired[2], desired[3] = d1, d2, d3
        self.count = count + (total - index)

    # -- query ----------------------------------------------------------------
    def estimate(self) -> float:
        if not self.count:
            return 0.0
        if self.count < 5:
            # Exact small-sample quantile, matching np.percentile's default
            # linear interpolation.
            return float(np.percentile(np.array(self.heights[: self.count]), self.q * 100))
        return float(self.heights[2])


def _parabolic(step, n_prev, n, n_next, h_prev, h, h_next) -> float:
    return h + step / (n_next - n_prev) * (
        (n - n_prev + step) * (h_next - h) / (n_next - n)
        + (n_next - n - step) * (h - h_prev) / (n - n_prev)
    )


def _linear(step, n_prev, n, n_next, h_prev, h, h_next) -> float:
    if step > 0:
        return h + (h_next - h) / (n_next - n)
    return h - (h_prev - h) / (n_prev - n)


class QuantileSketch:
    """A bundle of :class:`P2Quantile` estimators sharing one update path."""

    __slots__ = ("quantiles",)

    def __init__(self, qs: Sequence[float] = (0.5, 0.99)) -> None:
        self.quantiles: Dict[float, P2Quantile] = {float(q): P2Quantile(q) for q in qs}

    def update_many(self, values: Sequence[float]) -> None:
        for sketch in self.quantiles.values():
            sketch.update_many(values)

    def estimate(self, q: float) -> float:
        return self.quantiles[float(q)].estimate()


class StreamingHistogram:
    """Fixed-bucket streaming histogram with exact count/sum/min/max.

    ``edges`` are the interior bucket boundaries: value ``x`` lands in bucket
    ``i`` such that ``edges[i-1] <= x < edges[i]`` (bucket 0 is everything
    below ``edges[0]``, the last bucket everything at or above ``edges[-1]``)
    — i.e. ``np.searchsorted(edges, x, side="right")``.  Memory is
    ``len(edges) + 1`` counters regardless of how many samples stream
    through.
    """

    __slots__ = ("edges", "counts", "moments")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.size == 0 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be non-empty and strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.size + 1, dtype=np.int64)
        self.moments = StreamingMoments()

    @classmethod
    def power_of_two(cls, max_exponent: int = 20) -> "StreamingHistogram":
        """Buckets [0,1), [1,2), [2,4), ... — the queue-depth default."""
        return cls([1.0] + [float(2 ** e) for e in range(1, max_exponent + 1)])

    @classmethod
    def integers(cls, upper: int) -> "StreamingHistogram":
        """One bucket per integer in ``[0, upper]`` (lossless for batch sizes)."""
        return cls(np.arange(1, upper + 2, dtype=np.float64))

    @classmethod
    def log_spaced(
        cls, low: float = 1e-9, high: float = 1e4, rel: float = 0.02
    ) -> "StreamingHistogram":
        """Geometric buckets with relative width ``rel`` (HDR-histogram style).

        The latency-quantile default: ~1.6k buckets spanning 1 ns to 10 000 s
        at 2% width, so :meth:`quantile` is within ~``rel`` relative error of
        the true order statistic for *any* distribution in range — unlike
        marker-based estimators, whose error on heavy-tailed queueing
        mixtures is unbounded.
        """
        if not 0 < low < high or not rel > 0:
            raise ValueError("need 0 < low < high and rel > 0")
        count = int(math.ceil(math.log(high / low) / math.log1p(rel)))
        edges = low * np.power(1.0 + rel, np.arange(count + 1))
        return cls(edges)

    def _order_stat(self, k: int, cumulative: np.ndarray) -> float:
        """Estimate of the ``k``-th (0-based) order statistic."""
        bucket = int(np.searchsorted(cumulative, k + 1, side="left"))
        low = self.edges[bucket - 1] if bucket > 0 else self.moments.min
        high = self.edges[bucket] if bucket < self.edges.size else self.moments.max
        low = max(float(low), self.moments.min)
        high = min(float(high), self.moments.max)
        if high <= low:
            return low
        # Geometric midpoint halves the relative error of log-spaced buckets;
        # arithmetic fallback keeps buckets touching zero sane.
        return math.sqrt(low * high) if low > 0 else 0.5 * (low + high)

    def quantile(self, q: float) -> float:
        """Quantile estimate, interpolated like ``np.percentile`` (linear).

        Locates the two order statistics bracketing the fractional rank
        ``q * (count - 1)``, estimates each to within its bucket's width,
        and interpolates — so accuracy is the bucket's relative width even
        when adjacent order statistics span a large gap (heavy tails).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        n = self.count
        if not n:
            return 0.0
        if q == 0.0:
            return self.moments.min  # tracked exactly by the moments
        if q == 1.0:
            return self.moments.max
        rank = q * (n - 1)
        k_low = int(math.floor(rank))
        cumulative = np.cumsum(self.counts)
        value_low = self._order_stat(k_low, cumulative)
        if rank == k_low:
            return value_low
        value_high = self._order_stat(k_low + 1, cumulative)
        return value_low + (rank - k_low) * (value_high - value_low)

    def update(self, value: float) -> None:
        # bisect_right on the edges array is searchsorted(side="right") for
        # one value, NaN included (it lands past the last edge), without
        # numpy's per-call wrapper.
        self.counts[bisect_right(self.edges, value)] += 1
        self.moments.update(value)

    def update_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return
        self._count(values)
        self.moments.update_many(values)

    def _count(self, values: np.ndarray) -> None:
        buckets = self.edges.searchsorted(values, side="right")
        self.counts += np.bincount(buckets, minlength=self.counts.size)

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> float:
        return self.moments.mean

    @property
    def max(self) -> float:
        return self.moments.max if self.moments.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            **self.moments.to_dict(),
        }


class LatencySketch:
    """Everything the serving report needs about one tenant, in O(1) memory.

    Tracks, without storing per-request data:

    * **service** moments (the backend-time view exact mode stores in
      ``per_graph_latency_ms``) — count/sum, exactly;
    * **end-to-end** latency moments + log-bucketed p50/p99 (queueing and
      batching delay included, the view ``stream_statistics`` holds in exact
      mode) — a :meth:`StreamingHistogram.log_spaced` histogram, because
      marker-based P² can be arbitrarily wrong on the bimodal/heavy-tailed
      latency mixtures queueing produces, while the log histogram's error is
      bounded by its 2% bucket width for *any* distribution;
    * **energy** sum (exact);
    * **deadline misses**, with the same float-tolerant predicate as
      :meth:`~repro.graph.StreamStatistics.deadline_miss_count`:
      ``latency > deadline`` and not within relative 1e-9 of it;
    * the set of replicas that served the tenant and the dispatch batch-size
      mean (both O(replicas) / O(1)).
    """

    __slots__ = (
        "deadline_s",
        "service",
        "latency",
        "quantiles",
        "energy_j_total",
        "deadline_misses",
        "replicas",
        "batch",
        "queue",
    )

    def __init__(self, deadline_s: Optional[float] = None) -> None:
        self.deadline_s = deadline_s
        self.service = StreamingMoments()
        self.latency = StreamingMoments()
        self.quantiles = StreamingHistogram.log_spaced()
        self.energy_j_total = 0.0
        self.deadline_misses = 0
        self.replicas: set = set()
        self.batch = StreamingMoments()
        self.queue = StreamingMoments()

    @property
    def completed(self) -> int:
        return self.latency.count

    def observe(
        self,
        latency_s: float,
        service_s: float,
        energy_j: float,
        replica: int,
        batch_size: int,
    ) -> None:
        """One completed request."""
        self.observe_batch([latency_s], [service_s], [energy_j], replica, batch_size)

    def observe_batch(
        self, latencies: List[float], services: List[float], energies: List[float], replica: int, batch_size: int
    ) -> None:
        """The completions of one dispatched batch (the event loop's unit),
        folded in order as :meth:`observe` on each would, with no call per
        row.  The batch-size sum adds one exact product (integer floats)."""
        self.service.extend(services)
        self.latency.extend(latencies)
        self.quantiles.moments.extend(latencies)
        counts, edges, deadline = self.quantiles.counts, self.quantiles.edges, self.deadline_s
        for latency_s in latencies:
            counts[bisect_right(edges, latency_s)] += 1
            if deadline is not None and latency_s > deadline and abs(latency_s - deadline) > 1e-9 * abs(deadline):
                self.deadline_misses += 1
        for energy_j in energies:
            self.energy_j_total += energy_j
        self.replicas.add(replica)
        size = float(batch_size)
        self.batch.merge(len(latencies), size * len(latencies), size, size)

    @staticmethod
    def observe_groups(
        sketches: Sequence["LatencySketch"],
        bounds: Sequence[int],
        latencies_s: np.ndarray,
        services_s: np.ndarray,
        energies_j: np.ndarray,
        served: np.ndarray,
        queue_depths: np.ndarray,
    ) -> None:
        """Batch-1 completions of many sketches at once (the FIFO fast path).

        The columns are grouped: rows ``bounds[g]:bounds[g + 1]`` belong to
        ``sketches[g]``, in the order it saw them.  ``served[g, r]`` says
        whether replica ``r`` served any of them, and ``queue_depths`` holds
        each row's (integer) queue depth at its arrival.  Counts, extrema, buckets,
        deadline misses, replica sets and the integer queue moments are
        what observing the rows one by one gives.  Each float total is one
        ``.sum()`` of the group's contiguous rows, as
        :meth:`StreamingMoments.update_many` adds it.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        sizes = np.diff(bounds)
        present = np.flatnonzero(sizes)
        if not present.size:
            return
        firsts = bounds[present]
        lat_low = np.minimum.reduceat(latencies_s, firsts).tolist()
        lat_high = np.maximum.reduceat(latencies_s, firsts).tolist()
        svc_low = np.minimum.reduceat(services_s, firsts).tolist()
        svc_high = np.maximum.reduceat(services_s, firsts).tolist()
        misses = [0] * present.size
        deadlines = np.array(
            [math.nan if s.deadline_s is None else s.deadline_s for s in sketches],
            dtype=np.float64,
        )
        if not np.isnan(deadlines).all():
            # The float-tolerant predicate of observe(), row by row.
            per_row = np.repeat(deadlines, sizes)
            over = latencies_s > per_row
            tolerance = np.repeat(1e-9 * np.abs(deadlines), sizes)
            np.subtract(latencies_s, per_row, out=per_row)
            over &= ~(np.abs(per_row, out=per_row) <= tolerance)
            del per_row, tolerance
            misses = np.add.reduceat(over, firsts, dtype=np.int64).tolist()
        queue_total = np.add.reduceat(queue_depths, firsts).tolist()
        queue_low = np.minimum.reduceat(queue_depths, firsts).tolist()
        queue_high = np.maximum.reduceat(queue_depths, firsts).tolist()
        served_rows = served.tolist()
        edges = bounds.tolist()
        for j, g in enumerate(present.tolist()):
            sketch = sketches[g]
            lo, hi = edges[g], edges[g + 1]
            count = hi - lo
            latencies = latencies_s[lo:hi]
            sketch.service.merge(count, float(services_s[lo:hi].sum()), svc_low[j], svc_high[j])
            latency_total = float(latencies.sum())
            sketch.latency.merge(count, latency_total, lat_low[j], lat_high[j])
            sketch.quantiles.moments.merge(count, latency_total, lat_low[j], lat_high[j])
            sketch.quantiles._count(latencies)
            sketch.energy_j_total += float(energies_j[lo:hi].sum())
            sketch.replicas.update(compress(range(len(served_rows[g])), served_rows[g]))
            sketch.batch.merge(count, float(count), 1.0, 1.0)
            sketch.deadline_misses += misses[j]
            sketch.queue.merge(count, float(queue_total[j]), float(queue_low[j]), float(queue_high[j]))

    def p50_s(self) -> float:
        return self.quantiles.quantile(0.5)

    def p99_s(self) -> float:
        return self.quantiles.quantile(0.99)


def sketch_nbytes(obj) -> int:
    """Rough, recursion-free memory footprint of a sketch object in bytes.

    Used by the scale gate and the tier-1 memory smoke to assert that report
    memory does not grow with request count: every sketch above is a fixed
    set of scalars plus fixed-size numpy arrays, so this walks ``__slots__``
    and sums scalar slots, array ``nbytes`` and container lengths.

    The walk stops at :class:`~repro.serve.Workload` objects: a workload is
    scenario *input* (its memoised request resolution holds the tenant's
    graph pool and model, shared with the :class:`~repro.serve.Cluster`),
    not state the report accumulated, so counting it would hide whether the
    streaming side stays O(tenants + replicas).
    """
    from .workload import Workload  # late import: workload does not need sketches

    total = 0
    stack = [obj]
    seen = set()
    while stack:
        item = stack.pop()
        # Scalars are counted unconditionally: interned ints/floats share
        # identity, so id-dedup would make the total value-dependent.
        if isinstance(item, (int, float, bool)) or item is None:
            total += 8
            continue
        if isinstance(item, str):
            total += len(item)
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Workload):
            continue
        if isinstance(item, np.ndarray):
            total += int(item.nbytes)
        elif isinstance(item, (list, tuple, set, frozenset)):
            total += 8 * max(len(item), 1)
            stack.extend(item)
        elif isinstance(item, dict):
            total += 8 * max(len(item), 1)
            stack.extend(item.keys())
            stack.extend(item.values())
        elif hasattr(item, "__slots__"):
            slots: Tuple[str, ...] = tuple(item.__slots__)
            stack.extend(getattr(item, name) for name in slots if hasattr(item, name))
        elif hasattr(item, "__dict__"):
            stack.append(item.__dict__)
    return total
