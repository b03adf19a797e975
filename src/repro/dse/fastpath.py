"""Vectorised layer scheduling, bit-identical to the reference scheduler.

The reference FlowGNN schedulers in :mod:`repro.arch.pipeline` walk nodes and
edges in Python loops.  That is the right shape for a readable cycle model,
but a design-space sweep calls them tens of thousands of times.  This module
re-derives the same schedules in closed form / as ``numpy`` recurrences:

* **NT schedule (scatter-first)** — with nodes round-robined over identical
  NT units, the j-th node on a unit starts streaming out at
  ``A + j * max(A, O)`` where ``A`` is the accumulate time (incl. overhead)
  and ``O`` the output time: the unit is limited by whichever phase is
  longer, and the first node always waits for a full accumulate.
* **MP schedule** — per destination bank the busy-time recurrence
  ``busy_k = max(max(busy_{k-1}, first_k) + L, last_k + V)`` is max-plus
  linear, so it collapses to a running maximum:
  ``busy_k = (k + 1) * L + cummax(a_k - k * L)`` with
  ``a_k = max(first_k, last_k + V - L)``.
* **Gather-first (GAT)** — per-bank gather completion is a cumulative sum;
  the NT consumption recurrence collapses to the same cummax form.

Every quantity involved is an integer held in ``int64``/``float64``, so the
rewritten arithmetic is exact and the results match the reference scheduler
*bit for bit* (asserted over the full model zoo and the whole Fig. 10 grid
in ``tests/test_dse.py``).

Strategies other than ``flowgnn`` are already cheap (closed-form or a single
short loop), so they fall through to the reference implementation.
"""

from __future__ import annotations

import numpy as np

from ..arch.adapter import MulticastAdapter
from ..arch.config import ArchitectureConfig, PipelineStrategy
from ..arch.mp_unit import MPTiming, mp_timing
from ..arch.nt_unit import NTTiming, nt_timing
from ..arch.pipeline import LayerTiming, schedule_layer
from ..graph import Graph
from ..nn.models.base import LayerSpec

__all__ = ["fast_schedule_layer"]


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


def _nt_out_start(num_nodes: int, num_nt: int, nt: NTTiming) -> np.ndarray:
    """Cycle each node's embedding starts streaming out of its NT unit.

    Node ``v`` is the ``(v // num_nt)``-th node on its unit; the unit admits
    a new node every ``max(A, O)`` cycles after the first accumulate.
    """
    accumulate = nt.accumulate_cycles + nt.overhead_cycles
    interval = max(accumulate, nt.output_cycles)
    positions = np.arange(num_nodes, dtype=np.int64) // num_nt
    return accumulate + positions * interval


def _fast_flowgnn(
    graph: Graph,
    spec: LayerSpec,
    nt: NTTiming,
    mp: MPTiming,
    config: ArchitectureConfig,
) -> LayerTiming:
    num_nt = config.num_nt_units
    num_mp = config.num_mp_units
    adapter = MulticastAdapter(config)

    out_start = _nt_out_start(graph.num_nodes, num_nt, nt)
    nt_busy = graph.num_nodes * nt.node_interval
    nt_finish = int(out_start[-1]) + nt.output_cycles if graph.num_nodes else 0

    first_chunk = adapter.first_chunk_ready_offset()
    last_chunk = adapter.stream_complete_offset(spec.out_dim)
    edge_latency = mp.edge_latency

    mp_busy = 0
    mp_finish = 0
    if graph.num_edges:
        mp_busy = graph.num_edges * edge_latency
        src_start = out_start[graph.sources]
        # a_k folds both constraints of the busy recurrence into one term.
        ready = np.maximum(
            src_start + first_chunk,
            src_start + last_chunk + mp.overhead_cycles - edge_latency,
        )
        banks = graph.destinations % num_mp
        for bank in range(num_mp):
            edge_ids = np.nonzero(banks == bank)[0]
            if edge_ids.size == 0:
                continue
            order = np.argsort(src_start[edge_ids], kind="stable")
            bank_ready = ready[edge_ids[order]]
            steps = np.arange(bank_ready.size, dtype=np.int64)
            busy_last = bank_ready.size * edge_latency + int(
                np.maximum.accumulate(bank_ready - steps * edge_latency)[-1]
            )
            mp_finish = max(mp_finish, busy_last)

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
    num_nodes = graph.num_nodes

    gather_done = np.zeros(num_nodes, dtype=np.int64)
    mp_busy = 0
    if graph.num_edges:
        edge_cycles = graph.in_degrees() * mp.edge_latency
        mp_busy = int(edge_cycles.sum())
        for bank in range(num_mp):
            bank_nodes = np.arange(bank, num_nodes, num_mp)
            gather_done[bank_nodes] = np.cumsum(edge_cycles[bank_nodes])
    mp_finish = int(gather_done.max()) if num_nodes else 0

    nt_busy = num_nodes * nt.node_interval
    interval = nt.node_interval
    nt_finish = 0
    for unit in range(num_nt):
        unit_gather = gather_done[unit::num_nt]
        if unit_gather.size == 0:
            continue
        steps = np.arange(unit_gather.size, dtype=np.int64)
        done_last = unit_gather.size * interval + int(
            np.maximum.accumulate(unit_gather - steps * interval)[-1]
        )
        nt_finish = max(nt_finish, done_last)
    if num_nodes:
        nt_finish += nt.node_latency - nt.node_interval  # drain the last node

    cycles = max(mp_finish, nt_finish) + config.layer_barrier_cycles
    return LayerTiming(
        cycles=int(cycles),
        nt_busy_cycles=int(nt_busy),
        mp_busy_cycles=int(mp_busy),
        nt_units=num_nt,
        mp_units=num_mp,
        strategy=PipelineStrategy.FLOWGNN,
    )
