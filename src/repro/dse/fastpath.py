"""Closed-form layer scheduling, bit-identical to the reference scheduler.

The reference FlowGNN schedulers in :mod:`repro.arch.pipeline` walk nodes and
edges in Python loops.  That is the right shape for a readable cycle model,
but a design-space sweep calls them tens of thousands of times.  This module
re-derives the same schedules in closed form:

* **NT schedule (scatter-first)** — with nodes round-robined over identical
  NT units, node ``v`` is the ``pos = v // P_node``-th node on its unit and
  starts streaming out at ``A + pos * I``, where ``A`` is the accumulate
  time (incl. overhead) and ``I = max(A, O)`` with ``O`` the output time:
  the unit is limited by whichever phase is longer, and the first node
  always waits for a full accumulate.
* **MP schedule** — per destination bank the busy-time recurrence
  ``busy_k = max(max(busy_{k-1}, first_k) + L, last_k + V)`` is max-plus
  linear, so a bank of ``n`` edges, taken in order of readiness, finishes at
  ``max_k(a_k + (n - k) * L)`` with ``a_k = max(first_k, last_k + V - L)``:
  the bank cannot finish before edge ``k`` is ready and the ``n - k`` edges
  from ``k`` on have each taken ``L`` cycles.
* **Gather-first (GAT)** — per-bank gather completion is ``L`` times a
  prefix sum of in-degrees; the NT consumption recurrence collapses to the
  same form, with ``node_interval`` in place of ``I``.

Edge ``e`` is ready at ``A + c + I * pos_e``, where ``c = max(first, last +
V - L)`` is constant per (layer, config) and ``I >= 0``, so ordering a bank
by readiness is ordering it by position.  The MP finish time is therefore
``A + c + max_e(I * pos_e + L * left_e)``, with ``left_e`` the number of
edges of the bank at or after ``pos_e``; the gather-first NT finish is the
same maximum over nodes, of ``I * left_v + L * prefix_v``.

Both weights are non-negative integers, and the maximum of a linear function
with non-negative weights over a finite point set is reached on the
upper-right chain of the set's convex hull.  The points depend on the graph
and ``(P_node, P_edge)`` alone, so that chain — the *bank layout* — is built
once per (graph, ``P_node``, ``P_edge``) with exact integer cross products
and kept in the graph's private cache dict, next to its degrees and the
schedule cache's signature.  It is a tuple of a few Python ``int`` pairs
(at most 8 on the sweep's graphs, which have 28 to 896 edges), so a cache
miss is a handful of integer operations and no numpy call.

What a miss reads from the ``(spec, config)`` pair is a :class:`LayerPlan`.
Its constants — :func:`nt_timing`, :func:`mp_timing`, the multicast
adapter's two offsets and the integers derived from them — read only the
spec, ``P_apply``, ``P_scatter`` and the two overheads, so they are derived
once per spec and those knobs and kept on the spec; a plan adds the point's
unit counts, barrier and layout key.  :func:`fast_schedule_layer` takes an
optional dict of plans for one configuration;
:meth:`~repro.dse.ScheduleCache.bind` keeps one, so a sweep point builds
each distinct spec's plan once instead of once per graph.

Every quantity is an exact integer, so the results match the reference
scheduler *bit for bit* (asserted over the model zoo, generated graphs and
configurations, and the whole Fig. 10 grid in ``tests/test_dse.py``).

Strategies other than ``flowgnn`` are already cheap (closed-form or a single
short loop), so they fall through to the reference implementation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..arch.adapter import MulticastAdapter
from ..arch.config import ArchitectureConfig, PipelineStrategy
from ..arch.mp_unit import mp_timing
from ..arch.nt_unit import nt_timing
from ..arch.pipeline import LayerTiming, schedule_layer
from ..graph import Graph
from ..nn.models.base import LayerSpec

__all__ = ["LayerPlan", "fast_schedule_layer", "layer_plan"]

_SCATTER_SLOT = "_dse_scatter_layout"
_GATHER_SLOT = "_dse_gather_layout"

#: Upper-right convex chain of a point set: ``(x, y)`` pairs, ``x`` rising.
Hull = Tuple[Tuple[int, int], ...]


#: The knobs a plan's constants read besides the spec.
_CONSTANT_KNOBS = attrgetter("apply_parallelism", "scatter_parallelism", "nt_overhead_cycles", "edge_overhead_cycles")


class LayerPlan(NamedTuple):
    """What a FlowGNN schedule reads from one ``(spec, config)`` pair.

    The fields up to ``edge_latency`` are the plan's constants: they read
    only the spec, ``P_apply``, ``P_scatter`` and the two overheads.
    ``interval`` weighs a layout point's ``x`` (the NT step between
    consecutive nodes of a unit) and ``edge_latency`` its ``y``;
    ``layout_key`` is where the graph's cache keeps the bank layout.
    """

    gather_first: bool
    node_interval: int
    accumulate: int
    interval: int
    output: int
    ready_offset: int
    drain: int
    edge_latency: int
    nt_units: int
    mp_units: int
    barrier: int
    layout_key: Tuple[str, int, int]


def _plan_constants(spec: LayerSpec, config: ArchitectureConfig) -> Tuple:
    """The first eight fields of the plan of ``spec`` under ``config``."""
    nt = nt_timing(spec, config)
    mp = mp_timing(spec, config)
    adapter = MulticastAdapter(config)
    first_chunk = adapter.first_chunk_ready_offset()
    last_chunk = adapter.stream_complete_offset(spec.out_dim)
    gather_first = spec.dataflow == "mp_to_nt"
    accumulate = nt.accumulate_cycles + nt.overhead_cycles
    edge_latency = mp.edge_latency
    return (
        gather_first,
        nt.node_interval,
        accumulate,
        nt.node_interval if gather_first else max(accumulate, nt.output_cycles),
        nt.output_cycles,
        # ready_offset (c above) folds both constraints of the busy recurrence.
        max(first_chunk, last_chunk + mp.overhead_cycles - edge_latency),
        nt.node_latency - nt.node_interval,
        edge_latency,
    )


def layer_plan(spec: LayerSpec, config: ArchitectureConfig) -> LayerPlan:
    """The :class:`LayerPlan` of ``spec`` under a FlowGNN ``config``.

    Its constants are derived on the spec's first plan under the same
    ``P_apply``, ``P_scatter`` and overheads, and kept on the spec (a
    frozen dataclass, so in its ``__dict__``; not a field).
    """
    memo = vars(spec).setdefault("_plan_constants", {})
    knobs = _CONSTANT_KNOBS(config)
    constants = memo.get(knobs)
    if constants is None:
        constants = memo[knobs] = _plan_constants(spec, config)
    num_nt, num_mp = config.num_nt_units, config.num_mp_units
    layout_key = (_GATHER_SLOT if constants[0] else _SCATTER_SLOT, num_nt, num_mp)
    return LayerPlan(*constants, num_nt, num_mp, config.layer_barrier_cycles, layout_key)


def fast_schedule_layer(
    graph: Graph,
    spec: LayerSpec,
    config: ArchitectureConfig,
    plans: Optional[Dict[LayerSpec, LayerPlan]] = None,
) -> LayerTiming:
    """Drop-in replacement for :func:`repro.arch.schedule_layer`.

    Dispatches to the closed-form FlowGNN schedulers below and to the
    reference implementation for the (already cheap) baseline strategies.
    ``plans`` memoises :func:`layer_plan` by spec; a caller that passes it
    must pass the same dict only with the same ``config``.
    """
    if config.pipeline != PipelineStrategy.FLOWGNN:
        return schedule_layer(graph, spec, config)
    plan = plans.get(spec) if plans is not None else None
    if plan is None:
        plan = layer_plan(spec, config)
        if plans is not None:
            plans[spec] = plan
    num_nodes = graph.num_nodes
    num_edges = graph.num_edges
    if plan.gather_first:
        finish = _gather_first_finish(graph, plan, num_nodes)
    else:
        finish = _scatter_first_finish(graph, plan, num_nodes, num_edges)
    return LayerTiming(
        int(finish + plan.barrier),
        int(num_nodes * plan.node_interval),
        int(num_edges * plan.edge_latency),
        plan.nt_units,
        plan.mp_units,
        PipelineStrategy.FLOWGNN,
    )


def _hull(best: np.ndarray, offset: int = 0) -> Hull:
    """Upper-right convex chain of the points ``(k + offset, best[k])``.

    For any weights ``a, b >= 0`` the maximum of ``a * x + b * y`` over the
    points is reached on the chain: at a staircase point (one no other point
    equals or exceeds in both coordinates) that lies strictly above the
    segment joining its neighbours on the staircase.  ``best`` holds
    non-negative integers.
    """
    later = np.maximum.accumulate(best[::-1])[::-1]
    staircase = np.flatnonzero(best[:-1] > later[1:]).tolist()
    staircase.append(best.size - 1)
    values = best.tolist()
    chain = []
    for k in staircase:
        x, y = k + offset, values[k]
        while len(chain) > 1:
            (x0, y0), (x1, y1) = chain[-2], chain[-1]
            if (x1 - x0) * (y - y0) < (y1 - y0) * (x - x0):
                break
            chain.pop()
        chain.append((x, y))
    return tuple(chain)


def _zero_padded_rows(values: np.ndarray, width: int) -> np.ndarray:
    """``values`` in rows of ``width``, the last row padded with zeros."""
    padded = np.zeros(-(-values.size // width) * width, dtype=np.int64)
    padded[: values.size] = values
    return padded.reshape(-1, width)


def _scatter_layout(graph: Graph, num_nt: int, num_mp: int) -> Hull:
    """Chain of the points ``(pos, left)`` of a graph with edges.

    ``left`` counts the edges of one destination bank at positions ``>=
    pos``; per position only the largest count over banks matters.  With
    the edges sorted by (bank, position), those of a bank at or after the
    ``i``-th run from ``i`` to the bank's end; edges of equal position and
    bank share the count of the first, the largest of theirs.
    """
    key = (_SCATTER_SLOT, num_nt, num_mp)
    layout = graph._degree_cache.get(key)
    if layout is None:
        positions = graph.sources // num_nt
        banks = graph.destinations % num_mp
        width = int(positions.max()) + 1
        sorted_banks, sorted_positions = np.divmod(np.sort(banks * width + positions), width)
        left = np.bincount(banks).cumsum()[sorted_banks] - np.arange(graph.num_edges)
        best = np.zeros(width, dtype=np.int64)
        np.maximum.at(best, sorted_positions, left)
        layout = _hull(best)
        graph._degree_cache[key] = layout
    return layout


def _gather_layout(graph: Graph, num_nt: int, num_mp: int) -> Hull:
    """Chain of the points ``(left, prefix)`` of a graph with nodes.

    ``prefix`` is a node's in-degree sum over its MP bank up to and
    including it; ``left`` counts the nodes of its NT unit from it on.  The
    first point has the largest ``prefix``.
    """
    key = (_GATHER_SLOT, num_nt, num_mp)
    layout = graph._degree_cache.get(key)
    if layout is None:
        num_nodes = graph.num_nodes
        in_degrees = _zero_padded_rows(graph.in_degrees(), min(num_mp, num_nodes))
        prefix = in_degrees.cumsum(axis=0).ravel()[:num_nodes]
        # Row r of the reversed prefixes holds the nodes with left == r + 1.
        best = _zero_padded_rows(prefix[::-1], min(num_nt, num_nodes)).max(axis=1)
        layout = _hull(best, offset=1)
        graph._degree_cache[key] = layout
    return layout


def _scatter_first_finish(graph: Graph, plan: LayerPlan, num_nodes: int, num_edges: int) -> int:
    """When the last NT output or MP edge of a scatter-first layer ends."""
    nt_finish = 0
    if num_nodes:
        last_position = (num_nodes - 1) // plan.nt_units
        nt_finish = plan.accumulate + last_position * plan.interval + plan.output
    if not num_edges:
        return nt_finish
    layout = graph._degree_cache.get(plan.layout_key) or _scatter_layout(graph, plan.nt_units, plan.mp_units)
    interval, edge_latency = plan.interval, plan.edge_latency
    latest = 0  # every term is non-negative
    for pos, left in layout:
        value = pos * interval + left * edge_latency
        if value > latest:
            latest = value
    return max(nt_finish, plan.accumulate + plan.ready_offset + latest)


def _gather_first_finish(graph: Graph, plan: LayerPlan, num_nodes: int) -> int:
    """When the last gather or NT node of a gather-first layer ends."""
    if not num_nodes:
        return 0
    layout = graph._degree_cache.get(plan.layout_key) or _gather_layout(graph, plan.nt_units, plan.mp_units)
    interval, edge_latency = plan.interval, plan.edge_latency
    nt_finish = 0  # every term is non-negative
    for left, prefix in layout:
        value = left * interval + prefix * edge_latency
        if value > nt_finish:
            nt_finish = value
    mp_finish = edge_latency * layout[0][1]
    return max(mp_finish, nt_finish + plan.drain)  # drain the last node
