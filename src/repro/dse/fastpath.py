"""Vectorised layer scheduling, bit-identical to the reference scheduler.

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
  same form, with ``node_interval`` in place of ``L``.

Only a few numbers in those formulas depend on the configuration beyond the
unit counts.  Everything else depends on the graph and ``(P_node, P_edge)``
alone, so it is derived once per (graph, ``P_node``, ``P_edge``) as a *bank
layout* and kept in the graph's private cache dict, next to its degrees and
the schedule cache's signature:

* scatter-first: each edge's source position ``src // P_node`` and the
  number of edges of its destination bank ordered at or after it (banks
  sorted by position).  Edge ``e`` is ready at ``A + c + I * pos_e``, where
  ``c = max(first, last + V - L)`` is constant per (layer, config) and
  ``I >= 0``, so ordering a bank by readiness is ordering it by position —
  a property of the graph and the two unit counts only;
* gather-first: each node's in-degree prefix sum along its MP bank, and the
  number of nodes of its NT unit at or after it.

A cache miss then evaluates ``A + c + max(I * pos + L * left)`` (or its
gather-first analogue): one whole-array maximum, no per-bank loop.

Every quantity involved is an integer held in ``int64``, so the rewritten
arithmetic is exact and the results match the reference scheduler *bit for
bit* (asserted over the model zoo, generated graphs and configurations, and
the whole Fig. 10 grid in ``tests/test_dse.py``).

Strategies other than ``flowgnn`` are already cheap (closed-form or a single
short loop), so they fall through to the reference implementation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..arch.adapter import MulticastAdapter
from ..arch.config import ArchitectureConfig, PipelineStrategy
from ..arch.mp_unit import MPTiming, mp_timing
from ..arch.nt_unit import NTTiming, nt_timing
from ..arch.pipeline import LayerTiming, schedule_layer
from ..graph import Graph
from ..nn.models.base import LayerSpec

__all__ = ["fast_schedule_layer"]

_SCATTER_SLOT = "_dse_scatter_layout"
_GATHER_SLOT = "_dse_gather_layout"


def fast_schedule_layer(
    graph: Graph, spec: LayerSpec, config: ArchitectureConfig
) -> LayerTiming:
    """Drop-in replacement for :func:`repro.arch.schedule_layer`.

    Dispatches to the vectorised FlowGNN schedulers below and to the
    reference implementation for the (already cheap) baseline strategies.
    """
    if config.pipeline != PipelineStrategy.FLOWGNN:
        return schedule_layer(graph, spec, config)
    nt = nt_timing(spec, config)
    mp = mp_timing(spec, config)
    if spec.dataflow == "mp_to_nt":
        return _fast_flowgnn_gather_first(graph, nt, mp, config)
    return _fast_flowgnn(graph, spec, nt, mp, config)


def _runs(groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of equal labels in ``groups``
    (non-negative labels, sorted)."""
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    return starts, np.diff(starts, append=groups.size)


def _scatter_layout(graph: Graph, num_nt: int, num_mp: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(pos, left)`` per edge, grouped by destination bank and sorted by ``pos``.

    ``left`` counts the edges of the bank from this one on.
    """
    key = (_SCATTER_SLOT, num_nt, num_mp)
    layout = graph._degree_cache.get(key)
    if layout is None:
        positions = graph.sources // num_nt
        banks = graph.destinations % num_mp
        order = np.lexsort((positions, banks))
        starts, counts = _runs(banks[order])
        left = np.repeat(starts + counts, counts) - np.arange(order.size)
        layout = (positions[order], left)
        graph._degree_cache[key] = layout
    return layout


def _gather_layout(graph: Graph, num_nt: int, num_mp: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(prefix, left, max(prefix))`` per node, grouped by MP bank.

    ``prefix`` is the in-degree sum over the node's MP bank up to and
    including the node; ``left`` counts the nodes of its NT unit from it on.
    """
    key = (_GATHER_SLOT, num_nt, num_mp)
    layout = graph._degree_cache.get(key)
    if layout is None:
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
        banks = nodes % num_mp
        order = np.argsort(banks, kind="stable")
        degrees = graph.in_degrees()[order]
        totals = np.cumsum(degrees)
        starts, counts = _runs(banks[order])
        prefix = totals - np.repeat(totals[starts] - degrees[starts], counts)
        left = (graph.num_nodes - 1 - order) // num_nt + 1
        layout = (prefix, left, int(prefix.max()) if prefix.size else 0)
        graph._degree_cache[key] = layout
    return layout


def _fast_flowgnn(
    graph: Graph,
    spec: LayerSpec,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
) -> LayerTiming:
    num_nt = config.num_nt_units
    num_mp = config.num_mp_units

    accumulate = nt.accumulate_cycles + nt.overhead_cycles
    interval = max(accumulate, nt.output_cycles)
    nt_busy = graph.num_nodes * nt.node_interval
    nt_finish = 0
    if graph.num_nodes:
        last_position = (graph.num_nodes - 1) // num_nt
        nt_finish = accumulate + last_position * interval + nt.output_cycles

    edge_latency = mp.edge_latency
    mp_busy = graph.num_edges * edge_latency
    mp_finish = 0
    if graph.num_edges:
        # ready_offset (c above) folds both constraints of the busy recurrence.
        adapter = MulticastAdapter(config)
        first_chunk = adapter.first_chunk_ready_offset()
        last_chunk = adapter.stream_complete_offset(spec.out_dim)
        ready_offset = max(first_chunk, last_chunk + mp.overhead_cycles - edge_latency)
        positions, left = _scatter_layout(graph, num_nt, num_mp)
        latest = int((positions * interval + left * edge_latency).max())
        mp_finish = accumulate + ready_offset + latest

    cycles = max(nt_finish, mp_finish) + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(cycles),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=num_nt,
        mp_units=num_mp,
        strategy=PipelineStrategy.FLOWGNN,
    )


def _fast_flowgnn_gather_first(
    graph: Graph, nt: NTTiming, mp: MPTiming, config: ArchitectureConfig
) -> LayerTiming:
    num_nt = config.num_nt_units
    num_mp = config.num_mp_units
    edge_latency = mp.edge_latency
    interval = nt.node_interval

    mp_busy = graph.num_edges * edge_latency
    mp_finish = 0
    nt_finish = 0
    if graph.num_nodes:
        prefix, left, max_prefix = _gather_layout(graph, num_nt, num_mp)
        mp_finish = edge_latency * max_prefix
        nt_finish = int((prefix * edge_latency + left * interval).max())
        nt_finish += nt.node_latency - nt.node_interval  # drain the last node

    cycles = max(mp_finish, nt_finish) + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(cycles),
        nt_busy_cycles=int(graph.num_nodes * nt.node_interval),
        mp_busy_cycles=int(mp_busy),
        nt_units=num_nt,
        mp_units=num_mp,
        strategy=PipelineStrategy.FLOWGNN,
    )
