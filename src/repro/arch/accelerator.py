"""The public accelerator API: compile a model, stream graphs, report latency.

``FlowGNNAccelerator`` is the object a downstream user interacts with.  It
wraps one GNN model and one :class:`ArchitectureConfig`, and exposes:

* :meth:`run` — process a single graph (cycle count + optional output);
* :meth:`run_stream` — process a stream of graphs back-to-back or at a fixed
  arrival rate, returning aggregate latency/throughput statistics with the
  one-time weight load amortised over the stream;
* :meth:`latency_seconds` — a convenience callable suitable for the
  :func:`repro.graph.streaming.simulate_stream_consumption` harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..graph import Graph, GraphStream, StreamStatistics, simulate_stream_consumption
from ..nn.models.base import GNNModel, GNNOutput
from .config import ArchitectureConfig
from .simulator import (
    ModelProfile,
    SimulationResult,
    _mean,
    simulate_inference,
    weight_loading_cycles,
)

__all__ = ["StreamResult", "FlowGNNAccelerator"]


@dataclass
class StreamResult:
    """Aggregate result of streaming many graphs through the accelerator."""

    per_graph_results: List[SimulationResult]
    weight_loading_cycles: int
    config: ArchitectureConfig
    stream_statistics: Optional[StreamStatistics] = None

    @property
    def num_graphs(self) -> int:
        return len(self.per_graph_results)

    @property
    def mean_latency_s(self) -> float:
        """Mean per-graph latency including the amortised weight load.

        The floats of ``np.mean`` over the per-graph cycles plus each one's
        share of the weight load, computed without an array.
        """
        results = self.per_graph_results
        if not results:
            return 0.0
        share = self.weight_loading_cycles / len(results)
        return self.config.cycles_to_seconds(_mean([r.total_cycles + share for r in results]))

    @property
    def mean_latency_ms(self) -> float:
        return self.mean_latency_s * 1e3

    @property
    def total_cycles(self) -> int:
        return int(
            sum(r.total_cycles for r in self.per_graph_results) + self.weight_loading_cycles
        )

    @property
    def throughput_graphs_per_s(self) -> float:
        """Back-to-back throughput (graphs per second)."""
        total_s = self.config.cycles_to_seconds(self.total_cycles)
        return self.num_graphs / total_s if total_s > 0 else 0.0

    def latencies_ms(self) -> np.ndarray:
        """Per-graph latencies in milliseconds (weight load excluded)."""
        return np.array([r.latency_ms for r in self.per_graph_results])


class FlowGNNAccelerator:
    """One FlowGNN hardware instance compiled for one GNN model.

    Layer schedules are memoised in a :class:`repro.dse.ScheduleCache` keyed
    on the graph's *structural* signature, so streams containing repeated or
    structurally identical graphs (e.g. near-duplicate HEP events) schedule
    each distinct structure once.  The cached scheduler is bit-identical to
    the reference one; ``schedule_cache_info`` reports hit statistics, and
    ``use_schedule_cache=False`` restores the historical recompute-everything
    behaviour (used by :func:`repro.dse.naive_sweep` as a benchmark baseline).

    The model's :class:`ModelProfile` is derived once, when the accelerator
    is built, and every timing-only simulation reads it; like any profile it
    is a snapshot of the model at that moment.
    """

    def __init__(
        self,
        model: GNNModel,
        config: Optional[ArchitectureConfig] = None,
        use_schedule_cache: bool = True,
    ) -> None:
        self.model = model
        self.config = config or ArchitectureConfig()
        self.profile = ModelProfile.of(model)
        self._weight_loading_cycles = weight_loading_cycles(self.profile, self.config)
        self._use_schedule_cache = use_schedule_cache
        self._schedule_fn = None  # built lazily: importing repro.dse here would cycle

    def _schedule(self):
        if not self._use_schedule_cache:
            return None  # simulate_inference falls back to the reference scheduler
        if self._schedule_fn is None:
            from ..dse.cache import ScheduleCache

            self._schedule_cache = ScheduleCache()
            self._schedule_fn = self._schedule_cache.bind(self.config)
        return self._schedule_fn

    @property
    def schedule_cache_info(self) -> dict:
        """Hit/miss statistics of the layer-schedule cache."""
        if self._schedule_fn is None:
            return {"entries": 0, "hits": 0, "misses": 0, "hit_rate": 0.0}
        return self._schedule_cache.info()

    # -- single graph ---------------------------------------------------------
    def run(self, graph: Graph, functional: bool = False) -> SimulationResult:
        """Process a single graph; returns cycles, latency and optional output."""
        return simulate_inference(
            self._simulated(functional), graph, self.config, functional=functional,
            schedule_fn=self._schedule(),
        )

    def _simulated(self, functional: bool):
        """What :func:`simulate_inference` reads: the profile, unless the
        simulation also runs the model's arithmetic."""
        return self.model if functional else self.profile

    def infer(self, graph: Graph) -> GNNOutput:
        """Functional inference only (reference-exact output, no timing focus)."""
        result = self.run(graph, functional=True)
        assert result.functional_output is not None
        return result.functional_output

    def latency_seconds(self, graph: Graph) -> float:
        """Latency of one graph in seconds (for stream-consumption harnesses)."""
        return self.run(graph).latency_s

    def latency_ms(self, graph: Graph) -> float:
        return self.latency_seconds(graph) * 1e3

    # -- streams ----------------------------------------------------------------
    def run_stream(
        self,
        graphs: Iterable[Graph],
        functional: bool = False,
        arrival_interval_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> StreamResult:
        """Process a stream of graphs in arrival order.

        When ``arrival_interval_s`` is given, a real-time arrival process is
        simulated and queueing statistics (deadline misses, buffer depth) are
        attached to the result.
        """
        graph_list: List[Graph] = list(graphs)
        schedule_fn = self._schedule()
        model = self._simulated(functional)
        results = [
            simulate_inference(
                model, graph, self.config, functional=functional,
                schedule_fn=schedule_fn,
            )
            for graph in graph_list
        ]
        stream_statistics = None
        if arrival_interval_s is not None and graph_list:
            latency_by_id = {id(g): r.latency_s for g, r in zip(graph_list, results)}
            stream = GraphStream(
                graphs=graph_list, arrival_interval_s=arrival_interval_s
            )
            stream_statistics = simulate_stream_consumption(
                stream, lambda g: latency_by_id[id(g)], deadline_s=deadline_s
            )
        return StreamResult(
            per_graph_results=results,
            weight_loading_cycles=self._weight_loading_cycles,
            config=self.config,
            stream_statistics=stream_statistics,
        )

    def mean_latency_ms(self, graphs: Sequence[Graph]) -> float:
        """Mean per-graph latency (ms) over ``graphs`` with amortised weights."""
        return self.run_stream(graphs).mean_latency_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowGNNAccelerator(model={self.model.name!r}, config={self.config.describe()})"
