"""Graph streaming: the real-time, batch-size-1 input model of the paper.

FlowGNN's target applications (high-energy-physics triggers, LIDAR point
clouds) deliver graphs one at a time at a fixed arrival rate, and every graph
must be processed before buffers overflow.  ``GraphStream`` models that
arrival process; ``StreamStatistics`` summarises what a consumer achieved
against it (latency distribution, deadline misses, buffer occupancy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "GraphStream",
    "StreamStatistics",
    "simulate_stream_consumption",
    "queue_depths_at_arrivals",
]


@dataclass
class GraphStream:
    """A finite sequence of graphs with optional arrival timestamps.

    Parameters
    ----------
    graphs:
        The graphs, in arrival order.
    arrival_interval_s:
        Fixed inter-arrival time in seconds.  ``None`` means graphs are
        available immediately (back-to-back processing, the default for
        latency measurements).
    """

    graphs: Sequence[Graph]
    arrival_interval_s: Optional[float] = None
    name: str = "stream"

    def __post_init__(self) -> None:
        # Snapshot into an immutable tuple: a generator-backed ``graphs``
        # would be exhausted by whichever consumer iterates first (arrival
        # bookkeeping, ``total_nodes``, each replica of a serving cluster),
        # and a caller-held list could shrink between the arrival-time
        # computation and consumption.  One stream must mean the same
        # sequence of graphs to every consumer.
        self.graphs = tuple(self.graphs)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)

    def arrival_times(self) -> np.ndarray:
        """Arrival timestamp (seconds) of each graph."""
        if self.arrival_interval_s is None:
            return np.zeros(len(self.graphs))
        return np.arange(len(self.graphs)) * float(self.arrival_interval_s)

    def total_nodes(self) -> int:
        return int(sum(g.num_nodes for g in self.graphs))

    def total_edges(self) -> int:
        return int(sum(g.num_edges for g in self.graphs))


@dataclass
class StreamStatistics:
    """Outcome of consuming a :class:`GraphStream` with a given latency model."""

    per_graph_latency_s: np.ndarray
    completion_times_s: np.ndarray
    deadline_s: Optional[float] = None
    queue_depth_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.per_graph_latency_s)) if self.per_graph_latency_s.size else 0.0

    @property
    def p99_latency_s(self) -> float:
        if not self.per_graph_latency_s.size:
            return 0.0
        return float(np.percentile(self.per_graph_latency_s, 99))

    @property
    def max_latency_s(self) -> float:
        return float(np.max(self.per_graph_latency_s)) if self.per_graph_latency_s.size else 0.0

    @property
    def throughput_graphs_per_s(self) -> float:
        if not self.completion_times_s.size:
            return 0.0
        makespan = float(self.completion_times_s[-1])
        if makespan <= 0:
            return float("inf")
        return len(self.completion_times_s) / makespan

    def deadline_miss_count(self) -> int:
        """Number of graphs whose processing latency exceeded the deadline.

        Finishing *exactly* at the deadline is a hit, and the comparison is
        float-tolerant (relative 1e-9): latencies are ``completion - arrival``
        differences, whose rounding noise must not flip the boundary case.
        """
        if self.deadline_s is None:
            return 0
        latencies = self.per_graph_latency_s
        missed = (latencies > self.deadline_s) & ~np.isclose(
            latencies, self.deadline_s, rtol=1e-9, atol=0.0
        )
        return int(np.sum(missed))

    def deadline_miss_rate(self) -> float:
        if self.deadline_s is None or not self.per_graph_latency_s.size:
            return 0.0
        return self.deadline_miss_count() / self.per_graph_latency_s.size

    @property
    def max_queue_depth(self) -> int:
        """Worst-case number of graphs waiting in the input buffer."""
        if not self.queue_depth_trace.size:
            return 0
        return int(np.max(self.queue_depth_trace))


def queue_depths_at_arrivals(
    arrivals: np.ndarray, completions: np.ndarray
) -> np.ndarray:
    """Input-buffer depth observed at each arrival instant.

    Entry ``i`` counts the graphs that arrived no later than graph ``i`` but
    had not yet completed when it arrived.  Both the single-consumer
    simulation below and the per-tenant view of the serving simulator
    (:mod:`repro.serve`) derive their queue traces from this one definition,
    so their statistics agree exactly.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    completions = np.asarray(completions, dtype=np.float64)
    n = len(arrivals)
    if n > 1 and np.all(np.diff(arrivals) >= 0) and np.all(completions >= arrivals):
        # Sorted arrivals, none completed before it arrived (every stream
        # and per-tenant serving trace): all i earlier requests have
        # arrived, so the depth is i minus those of them completed by a_i.
        # One search counts #{j: c_j <= a_i} over every j; a later j can
        # only be in it with c_j == a_j == a_i, so the zero-service requests
        # from i to the end of i's tie group are counted back.
        done = np.searchsorted(np.sort(completions), arrivals, side="right")
        instant = np.append(np.cumsum((completions == arrivals)[::-1])[::-1], 0)
        tie_end = np.searchsorted(arrivals, arrivals, side="right")
        return np.arange(n, dtype=np.int64) - done + instant[:-1] - instant[tie_end]
    depths = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        earlier_arrived = arrivals[:i] <= arrivals[i]
        still_pending = completions[:i] > arrivals[i]
        depths[i] = int(np.sum(earlier_arrived & still_pending))
    return depths


def simulate_stream_consumption(
    stream: GraphStream,
    latency_fn: Callable[[Graph], float],
    deadline_s: Optional[float] = None,
) -> StreamStatistics:
    """Simulate a single consumer draining the stream in arrival order.

    ``latency_fn`` maps a graph to its processing time in seconds (e.g. the
    FlowGNN accelerator's cycle count divided by the clock frequency).  The
    consumer processes graphs strictly in order; a graph that arrives while
    the consumer is busy waits in an unbounded input buffer.  End-to-end
    latency is measured from arrival to completion, so queueing delay counts
    against the deadline — exactly the HEP trigger scenario the paper
    motivates.
    """
    arrivals = stream.arrival_times()
    service_times = np.array([float(latency_fn(g)) for g in stream.graphs])
    completions = np.zeros_like(service_times)

    busy_until = 0.0
    for i, (arrival, service) in enumerate(zip(arrivals, service_times)):
        start = max(arrival, busy_until)
        busy_until = start + service
        completions[i] = busy_until

    queue_depths = queue_depths_at_arrivals(arrivals, completions)
    latencies = completions - arrivals
    return StreamStatistics(
        per_graph_latency_s=latencies,
        completion_times_s=completions,
        deadline_s=deadline_s,
        queue_depth_trace=queue_depths,
    )
