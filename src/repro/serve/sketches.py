"""Online accumulators backing the streaming (sketch-mode) serving report.

Exact-mode serving stores a per-request latency array and derives every
statistic from it afterwards; at datacenter scale that array *is* the memory
bound.  This module provides the O(1)-memory replacements:

* :class:`StreamingMoments` — count / sum (mean) / min / max, exactly.  The
  chunked update sums each chunk with ``.sum()`` so a single ``update_many``
  call reproduces numpy's reduction bit for bit (the property tests pin
  this); across chunks only summation order differs.
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
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

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


#: Chunks smaller than this are bucketed by binary search even on
#: log-spaced edges: the index path costs about a dozen numpy calls,
#: which below this size take longer than the search itself.
INDEX_MIN_VALUES = 1024


class StreamingHistogram:
    """Fixed-bucket streaming histogram with exact count/sum/min/max.

    ``edges`` are the interior bucket boundaries: value ``x`` lands in bucket
    ``i`` such that ``edges[i-1] <= x < edges[i]`` (bucket 0 is everything
    below ``edges[0]``, the last bucket everything at or above ``edges[-1]``)
    — i.e. ``np.searchsorted(edges, x, side="right")``, NaN in the last
    bucket.  Memory is ``len(edges) + 1`` counters regardless of how many
    samples stream through.

    Chunks are bucketed by a binary search over the edges, except chunks of
    at least :data:`INDEX_MIN_VALUES` values on :meth:`log_spaced` edges,
    whose buckets come from each value's logarithm and one comparison with
    each neighbouring edge (:meth:`_log_buckets`).
    """

    __slots__ = ("edges", "counts", "moments", "_log_grid")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.size == 0 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be non-empty and strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.size + 1, dtype=np.int64)
        self.moments = StreamingMoments()
        # (log(edges[0]), edges per unit of log): set by log_spaced only.
        self._log_grid: Optional[Tuple[float, float]] = None

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

        The edges are ``low * (1 + rel)**k``, so large chunks find their
        buckets by index rather than by binary search; the grid that index
        uses is read off the edges themselves, so every bucket is still
        exactly ``searchsorted``'s.
        """
        if not 0 < low < high or not rel > 0:
            raise ValueError("need 0 < low < high and rel > 0")
        count = math.log(high / low) / math.log1p(rel)
        if not math.isfinite(count):
            raise ValueError(f"low={low!r}, high={high!r} and rel={rel!r} give no finite bucket count")
        count = int(math.ceil(count))
        edges = low * np.power(1.0 + rel, np.arange(count + 1))
        histogram = cls(edges)
        first, last = float(edges[0]), float(edges[-1])
        histogram._log_grid = (math.log(first), count / math.log(last / first))
        return histogram

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
        if self._log_grid is None or values.size < INDEX_MIN_VALUES:
            buckets = self.edges.searchsorted(values, side="right")
        else:
            buckets = self._log_buckets(values)
        self.counts += np.bincount(buckets, minlength=self.counts.size)

    def _log_buckets(self, values: np.ndarray) -> np.ndarray:
        """``edges.searchsorted(values, side="right")`` on geometric edges.

        ``k = floor((log(x) - log(edges[0])) * step)``, clipped to ``[0,
        len(edges) - 2]``, is the index of the last edge ``<= x`` give or take
        one (rounding), so the bucket is ``k + 2`` less one for each of
        ``edges[k + 1]`` and ``edges[k]`` above ``x``.  Values are clipped to
        the edge range first, so the logarithm sees only finite positive
        numbers; NaN passes the clip, ``fmin`` sends it to the top index and
        no comparison holds for it, so it lands past the last edge.
        """
        edges = self.edges
        origin, step = self._log_grid
        index = np.clip(values, edges[0], edges[-1])
        np.log(index, out=index)
        index -= origin
        index *= step
        np.fmin(index, edges.size - 2, out=index)
        k = index.astype(np.intp)
        del index
        above_next = values < edges[1:][k]
        above = values < edges[k]
        k += 2
        k -= above_next
        k -= above
        return k

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
      mode) — a :meth:`StreamingHistogram.log_spaced` histogram, whose own
      moments are :attr:`latency`, because
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
        self.quantiles = StreamingHistogram.log_spaced()
        self.energy_j_total = 0.0
        self.deadline_misses = 0
        self.replicas: set = set()
        self.batch = StreamingMoments()
        self.queue = StreamingMoments()

    @property
    def latency(self) -> StreamingMoments:
        """End-to-end latency moments: the latency histogram's own."""
        return self.quantiles.moments

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
        self.service.update(service_s)
        self.quantiles.update(latency_s)
        deadline = self.deadline_s
        if deadline is not None and latency_s > deadline and abs(latency_s - deadline) > 1e-9 * abs(deadline):
            self.deadline_misses += 1
        self.energy_j_total += energy_j
        self.replicas.add(replica)
        self.batch.update(float(batch_size))

    @staticmethod
    def observe_sequence(
        sketches: Sequence["LatencySketch"],
        bounds: Sequence[int],
        latencies_s: np.ndarray,
        services_s: np.ndarray,
        energies_j: np.ndarray,
        batch_sizes: np.ndarray,
    ) -> None:
        """Completions of many sketches at once, bit for bit as :meth:`observe`
        on each row in turn (the scalar event loop's sink).

        The columns are grouped as for :meth:`observe_groups`: rows
        ``bounds[g]:bounds[g + 1]`` belong to ``sketches[g]``, in the order
        it saw them, and ``batch_sizes`` holds each row's dispatch batch
        size.  The service, latency and energy totals continue each
        sketch's running total row by row: ``np.add.accumulate`` is the
        left fold ``total += x``, where ``.sum()`` and ``np.add.reduceat``
        add pairwise.  Batch sizes are integers, which sum exactly in any
        order.  Replica sets are the caller's, as they are per batch.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        present, firsts = _fold_groups(sketches, bounds, latencies_s, services_s)
        if not present:
            return
        size_total = np.add.reduceat(batch_sizes, firsts).tolist()
        size_low = np.minimum.reduceat(batch_sizes, firsts).tolist()
        size_high = np.maximum.reduceat(batch_sizes, firsts).tolist()
        floats = np.stack((services_s, latencies_s, energies_j))
        edges = bounds.tolist()
        for j, g in enumerate(present):
            sketch = sketches[g]
            lo, hi = edges[g], edges[g + 1]
            service, latency = sketch.service, sketch.latency
            # Each running total leads its rows; the last column is the fold.
            start = np.array([[service.total], [latency.total], [sketch.energy_j_total]])
            folded = np.add.accumulate(np.concatenate((start, floats[:, lo:hi]), axis=1), axis=1)
            service.total, latency.total, sketch.energy_j_total = folded[:, -1].tolist()
            sketch.batch.merge(hi - lo, float(size_total[j]), float(size_low[j]), float(size_high[j]))

    @staticmethod
    def observe_groups(
        sketches: Sequence["LatencySketch"],
        bounds: Sequence[int],
        latencies_s: np.ndarray,
        services_s: np.ndarray,
        energies_j: np.ndarray,
        served: np.ndarray,
        queue_depths: np.ndarray,
        segments: Optional[np.ndarray] = None,
    ) -> None:
        """Batch-1 completions of many sketches at once (the FIFO fast path).

        The columns are grouped: rows ``bounds[g]:bounds[g + 1]`` belong to
        ``sketches[g]``, in the order it saw them.  ``served[g, r]`` says
        whether replica ``r`` served any of them, and ``queue_depths`` holds
        each row's (integer) queue depth at its arrival.  Counts, extrema, buckets,
        deadline misses, replica sets and the integer queue moments are
        what observing the rows one by one gives.

        ``segments`` are the sorted rows where float-total segments start;
        every non-empty group starts one, and by default each group is one
        segment.  A group's service, latency and energy totals add one
        ``.sum()`` of each of its segments' contiguous rows, in row order,
        as :meth:`StreamingMoments.update_many` on each segment would.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        present, firsts = _fold_groups(sketches, bounds, latencies_s, services_s)
        if not present:
            return
        queue_total = np.add.reduceat(queue_depths, firsts).tolist()
        queue_low = np.minimum.reduceat(queue_depths, firsts).tolist()
        queue_high = np.maximum.reduceat(queue_depths, firsts).tolist()
        # The float totals, one .sum() per segment (np.add.reduceat would
        # add in another order).  Group j's segments are
        # first_seg[j]:first_seg[j + 1].
        cuts = firsts if segments is None else np.asarray(segments, dtype=np.int64)
        first_seg = cuts.searchsorted(firsts).tolist() + [cuts.size]
        cuts = cuts.tolist()
        spans = list(zip(cuts, cuts[1:] + [int(bounds[-1])]))
        service_sums = [float(services_s[lo:hi].sum()) for lo, hi in spans]
        latency_sums = [float(latencies_s[lo:hi].sum()) for lo, hi in spans]
        energy_sums = [float(energies_j[lo:hi].sum()) for lo, hi in spans]
        served_rows = served.tolist()
        edges = bounds.tolist()
        for j, g in enumerate(present):
            sketch = sketches[g]
            lo, hi = edges[g], edges[g + 1]
            count = hi - lo
            for k in range(first_seg[j], first_seg[j + 1]):
                sketch.service.total += service_sums[k]
                sketch.latency.total += latency_sums[k]
                sketch.energy_j_total += energy_sums[k]
            sketch.replicas.update(compress(range(len(served_rows[g])), served_rows[g]))
            sketch.batch.merge(count, float(count), 1.0, 1.0)
            sketch.queue.merge(count, float(queue_total[j]), float(queue_low[j]), float(queue_high[j]))

    def p50_s(self) -> float:
        return self.quantiles.quantile(0.5)

    def p99_s(self) -> float:
        return self.quantiles.quantile(0.99)


def _fold_groups(
    sketches: Sequence[LatencySketch],
    bounds: np.ndarray,
    latencies_s: np.ndarray,
    services_s: np.ndarray,
) -> Tuple[List[int], np.ndarray]:
    """Fold what every grouped observation shares into each sketch with rows.

    Rows ``bounds[g]:bounds[g + 1]`` are ``sketches[g]``'s.  Each non-empty
    group's service and latency moments gain its row count and extrema (a
    ``+ 0.0`` total, which leaves a running total unchanged: it is never
    ``-0.0``), its latencies land in their buckets and its deadline misses
    are counted with :meth:`LatencySketch.observe`'s float-tolerant
    predicate.  ``fmin``/``fmax`` skip NaN as ``observe``'s comparisons do.
    Returns the non-empty groups and their first rows; the totals are the
    caller's.
    """
    sizes = np.diff(bounds)
    present = np.flatnonzero(sizes)
    if not present.size:
        return [], present
    firsts = bounds[present]
    lat_low = np.fmin.reduceat(latencies_s, firsts).tolist()
    lat_high = np.fmax.reduceat(latencies_s, firsts).tolist()
    svc_low = np.fmin.reduceat(services_s, firsts).tolist()
    svc_high = np.fmax.reduceat(services_s, firsts).tolist()
    misses = [0] * present.size
    deadlines = np.array(
        [math.nan if s.deadline_s is None else s.deadline_s for s in sketches],
        dtype=np.float64,
    )
    if not np.isnan(deadlines).all():
        per_row = np.repeat(deadlines, sizes)
        over = latencies_s > per_row
        tolerance = np.repeat(1e-9 * np.abs(deadlines), sizes)
        np.subtract(latencies_s, per_row, out=per_row)
        over &= ~(np.abs(per_row, out=per_row) <= tolerance)
        del per_row, tolerance
        misses = np.add.reduceat(over, firsts, dtype=np.int64).tolist()
    edges = bounds.tolist()
    groups = present.tolist()
    for j, g in enumerate(groups):
        sketch = sketches[g]
        lo, hi = edges[g], edges[g + 1]
        sketch.service.merge(hi - lo, 0.0, svc_low[j], svc_high[j])
        sketch.latency.merge(hi - lo, 0.0, lat_low[j], lat_high[j])
        sketch.quantiles._count(latencies_s[lo:hi])
        sketch.deadline_misses += misses[j]
    return groups, firsts


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
