"""Layer-level scheduling: the four pipeline strategies of Fig. 4.

Given the per-node NT cost, the per-edge MP cost and the graph structure,
each strategy computes how many cycles one GNN layer takes and how busy the
units were.  The strategies are:

``non_pipeline``
    NT for all nodes, then MP for all edges, strictly serialised (Fig. 4a).

``fixed_pipeline``
    MP of node *k* overlaps NT of node *k+1* in rigid lockstep (Fig. 4b);
    imbalance between a node's NT time and its MP time becomes idle time.

``baseline_dataflow``
    One NT unit and one MP unit decoupled by a bounded node queue (Fig. 4c,
    Sec. III-C); the queue absorbs imbalance until it fills up.

``flowgnn``
    Multiple NT units, multiple MP units, the NT-to-MP multicast adapter,
    and within-node pipelining: an MP unit starts consuming a node's
    embedding chunks while the NT unit is still streaming them out (Fig. 4d).

All strategies also support the reversed MP-to-NT dataflow (gather first,
then transform) used by anisotropic models such as GAT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TypeVar

import numpy as np

from ..graph import Graph
from ..nn.models.base import LayerSpec
from .adapter import MulticastAdapter
from .config import ArchitectureConfig, PipelineStrategy
from .mp_unit import MPTiming, mp_timing
from .nt_unit import NTTiming, nt_timing

__all__ = ["LayerTiming", "schedule_layer"]

_Record = TypeVar("_Record")


def dataclass_fields(cls: _Record) -> _Record:
    """Give a ``NamedTuple`` value type the field table of a frozen dataclass.

    The cycle, resource and energy models return tuples rather than frozen
    dataclasses: building a tuple skips the frozen ``__init__``'s
    ``object.__setattr__`` per field, which a design-space sweep would pay
    for thousands of values per run, as a serving trace would for each
    :class:`~repro.serve.arrivals.ServingRequest`.  With the field table,
    ``dataclasses.fields``, ``replace`` and ``asdict`` still read each one
    as the frozen dataclass it used to be.
    """
    namespace = {"__annotations__": dict(cls.__annotations__), **cls._field_defaults}
    template = dataclass(frozen=True)(type(cls.__name__, (), namespace))
    cls.__dataclass_fields__ = template.__dataclass_fields__
    return cls


@dataclass_fields
class LayerTiming(NamedTuple):
    """Timing result of one GNN layer on one graph."""

    cycles: int
    nt_busy_cycles: int
    mp_busy_cycles: int
    nt_units: int
    mp_units: int
    strategy: str

    @property
    def nt_utilisation(self) -> float:
        """Fraction of NT-unit cycle slots doing useful work."""
        total_slots = self.cycles * self.nt_units
        return self.nt_busy_cycles / total_slots if total_slots else 0.0

    @property
    def mp_utilisation(self) -> float:
        """Fraction of MP-unit cycle slots doing useful work."""
        total_slots = self.cycles * self.mp_units
        return self.mp_busy_cycles / total_slots if total_slots else 0.0

    @property
    def idle_cycles(self) -> int:
        """Total idle cycle slots across all units (the Fig. 4 shaded gaps)."""
        total_slots = self.cycles * (self.nt_units + self.mp_units)
        return int(total_slots - self.nt_busy_cycles - self.mp_busy_cycles)


def _per_node_mp_cost(graph: Graph, mp: MPTiming, reverse: bool) -> np.ndarray:
    """MP cycles attributable to each node (its out-edges, or in-edges if reversed)."""
    degrees = graph.in_degrees() if reverse else graph.out_degrees()
    return degrees.astype(np.int64) * mp.edge_latency


def schedule_layer(
    graph: Graph, spec: LayerSpec, config: ArchitectureConfig
) -> LayerTiming:
    """Schedule one layer of ``spec`` over ``graph`` under ``config``."""
    nt = nt_timing(spec, config)
    mp = mp_timing(spec, config)
    reverse = spec.dataflow == "mp_to_nt"

    if config.pipeline == PipelineStrategy.NON_PIPELINE:
        return _schedule_non_pipeline(graph, nt, mp, config)
    if config.pipeline == PipelineStrategy.FIXED_PIPELINE:
        return _schedule_fixed_pipeline(graph, nt, mp, config, reverse)
    if config.pipeline == PipelineStrategy.BASELINE_DATAFLOW:
        return _schedule_baseline_dataflow(graph, nt, mp, config, reverse)
    if config.pipeline == PipelineStrategy.FLOWGNN:
        if reverse:
            return _schedule_flowgnn_gather_first(graph, spec, nt, mp, config)
        return _schedule_flowgnn(graph, spec, nt, mp, config)
    raise ValueError(f"unknown pipeline strategy {config.pipeline!r}")


# ---------------------------------------------------------------------------
# Strategy (a): no pipelining
# ---------------------------------------------------------------------------
def _schedule_non_pipeline(
    graph: Graph, nt: NTTiming, mp: MPTiming, config: ArchitectureConfig
) -> LayerTiming:
    nt_busy = graph.num_nodes * nt.node_interval
    # First node additionally pays the pipeline-fill latency of the NT unit.
    nt_total = nt_busy + (nt.node_latency - nt.node_interval if graph.num_nodes else 0)
    mp_busy = graph.num_edges * mp.edge_latency
    cycles = nt_total + mp_busy + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(cycles),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=1,
        mp_units=1,
        strategy=PipelineStrategy.NON_PIPELINE,
    )


# ---------------------------------------------------------------------------
# Strategy (b): rigid lockstep pipeline
# ---------------------------------------------------------------------------
def _schedule_fixed_pipeline(
    graph: Graph,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
    reverse: bool,
) -> LayerTiming:
    per_node_mp = _per_node_mp_cost(graph, mp, reverse)
    nt_busy = graph.num_nodes * nt.node_interval
    mp_busy = int(per_node_mp.sum())
    if graph.num_nodes == 0:
        cycles = config.layer_barrier_cycles
    else:
        # Stage k overlaps NT of node k+1 with MP of node k; each stage lasts
        # as long as the slower of the two, which is where imbalance hurts.
        stages = np.maximum(nt.node_interval, per_node_mp[:-1]) if graph.num_nodes > 1 else np.zeros(0)
        cycles = (
            nt.node_latency
            + int(stages.sum())
            + int(per_node_mp[-1])
            + config.layer_barrier_cycles
        )
    return LayerTiming(
        cycles=int(cycles),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=1,
        mp_units=1,
        strategy=PipelineStrategy.FIXED_PIPELINE,
    )


# ---------------------------------------------------------------------------
# Strategy (c): single NT / single MP decoupled by a node queue
# ---------------------------------------------------------------------------
def _schedule_baseline_dataflow(
    graph: Graph,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
    reverse: bool,
) -> LayerTiming:
    per_node_mp = _per_node_mp_cost(graph, mp, reverse)
    num_nodes = graph.num_nodes
    queue_depth = config.node_queue_depth

    nt_busy = num_nodes * nt.node_interval
    mp_busy = int(per_node_mp.sum())

    if num_nodes == 0:
        cycles = config.layer_barrier_cycles
    elif reverse:
        # Gather-first: MP produces aggregated nodes into the queue, NT consumes.
        producer_done = np.zeros(num_nodes)
        consumer_done = np.zeros(num_nodes)
        for k in range(num_nodes):
            prev_producer = producer_done[k - 1] if k else 0.0
            backpressure = consumer_done[k - queue_depth] if k >= queue_depth else 0.0
            producer_done[k] = max(prev_producer, backpressure) + per_node_mp[k]
            prev_consumer = consumer_done[k - 1] if k else nt.node_latency - nt.node_interval
            consumer_done[k] = max(prev_consumer, producer_done[k]) + nt.node_interval
        cycles = consumer_done[-1] + config.layer_barrier_cycles
    else:
        # Transform-first: NT produces transformed nodes, MP consumes and scatters.
        producer_done = np.zeros(num_nodes)
        consumer_done = np.zeros(num_nodes)
        for k in range(num_nodes):
            prev_producer = producer_done[k - 1] if k else nt.node_latency - nt.node_interval
            backpressure = consumer_done[k - queue_depth] if k >= queue_depth else 0.0
            producer_done[k] = max(prev_producer, backpressure) + nt.node_interval
            prev_consumer = consumer_done[k - 1] if k else 0.0
            consumer_done[k] = max(prev_consumer, producer_done[k]) + per_node_mp[k]
        cycles = consumer_done[-1] + config.layer_barrier_cycles

    return LayerTiming(
        cycles=int(round(cycles)),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=1,
        mp_units=1,
        strategy=PipelineStrategy.BASELINE_DATAFLOW,
    )


# ---------------------------------------------------------------------------
# Strategy (d): FlowGNN, NT-to-MP dataflow
# ---------------------------------------------------------------------------
def _schedule_flowgnn(
    graph: Graph,
    spec: LayerSpec,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
) -> LayerTiming:
    num_nt = config.num_nt_units
    num_mp = config.num_mp_units
    adapter = MulticastAdapter(config)

    # --- NT schedule: nodes round-robin across NT units, in id order. ---
    # out_start[v]: cycle at which node v's embedding starts streaming out.
    out_start = np.zeros(graph.num_nodes)
    out_done = np.zeros(graph.num_nodes)
    acc_free = np.zeros(num_nt)   # when each unit's accumulate stage frees up
    out_free = np.zeros(num_nt)   # when each unit's output stage frees up
    for v in range(graph.num_nodes):
        unit = v % num_nt
        acc_done = acc_free[unit] + nt.accumulate_cycles + nt.overhead_cycles
        start = max(acc_done, out_free[unit])
        out_start[v] = start
        out_done[v] = start + nt.output_cycles
        acc_free[unit] = acc_done
        out_free[unit] = out_done[v]

    nt_busy = graph.num_nodes * nt.node_interval
    nt_finish = float(out_done.max()) if graph.num_nodes else 0.0

    # --- MP schedule: edges grouped by destination bank. ---
    first_chunk = adapter.first_chunk_ready_offset()
    last_chunk = adapter.stream_complete_offset(spec.out_dim)

    mp_busy = 0
    mp_finish = 0.0
    if graph.num_edges:
        sources = graph.sources
        destinations = graph.destinations
        banks = destinations % num_mp
        # Process each bank's edges in order of source-embedding availability.
        for bank in range(num_mp):
            edge_ids = np.nonzero(banks == bank)[0]
            if edge_ids.size == 0:
                continue
            order = np.argsort(out_start[sources[edge_ids]], kind="stable")
            edge_ids = edge_ids[order]
            busy = 0.0
            for e in edge_ids:
                src = int(sources[e])
                data_first = out_start[src] + first_chunk
                data_last = out_start[src] + last_chunk
                start = max(busy, data_first)
                finish = max(start + mp.edge_latency, data_last + mp.overhead_cycles)
                busy = finish
                mp_busy += mp.edge_latency
            mp_finish = max(mp_finish, busy)

    cycles = max(nt_finish, mp_finish) + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(round(cycles)),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=num_nt,
        mp_units=num_mp,
        strategy=PipelineStrategy.FLOWGNN,
    )


# ---------------------------------------------------------------------------
# Strategy (d'): FlowGNN, MP-to-NT (gather-first) dataflow — used by GAT
# ---------------------------------------------------------------------------
def _schedule_flowgnn_gather_first(
    graph: Graph,
    spec: LayerSpec,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
) -> LayerTiming:
    num_nt = config.num_nt_units
    num_mp = config.num_mp_units

    # --- MP schedule: each MP unit gathers the in-edges of its bank of
    # destination nodes, walking destinations in id order. ---
    gather_done = np.zeros(graph.num_nodes)
    mp_busy = 0
    if graph.num_edges:
        destinations = graph.destinations
        banks = destinations % num_mp
        in_degrees = graph.in_degrees()
        for bank in range(num_mp):
            busy = 0.0
            bank_nodes = np.arange(bank, graph.num_nodes, num_mp)
            for v in bank_nodes:
                edge_cycles = int(in_degrees[v]) * mp.edge_latency
                busy += edge_cycles
                gather_done[v] = busy
                mp_busy += edge_cycles
    mp_finish = float(gather_done.max()) if graph.num_nodes else 0.0

    # --- NT schedule: a node can be transformed once its gather completes. ---
    nt_busy = graph.num_nodes * nt.node_interval
    unit_free = np.zeros(num_nt)
    nt_finish = 0.0
    for v in range(graph.num_nodes):
        unit = v % num_nt
        start = max(unit_free[unit], gather_done[v])
        done = start + nt.node_interval
        unit_free[unit] = done
        nt_finish = max(nt_finish, done)
    if graph.num_nodes:
        nt_finish += nt.node_latency - nt.node_interval  # drain the last node

    cycles = max(mp_finish, nt_finish) + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(round(cycles)),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=num_nt,
        mp_units=num_mp,
        strategy=PipelineStrategy.FLOWGNN,
    )
