"""Destination-node bank partitioning and workload-imbalance analysis.

FlowGNN assigns every edge to the MP unit that owns the edge's *destination*
node.  Because the assignment is a fixed function of the node id (no graph
preprocessing allowed), some MP units may receive more edges than others.
Table VII of the paper quantifies this imbalance — defined as the largest
difference in per-unit edge counts as a percentage of the total edge count —
and finds it stays below ~9% across all datasets and ``P_edge`` values.

Two assignment policies are provided:

* ``modulo`` — unit ``dst % P_edge`` owns the edge.  This is the hardware
  policy: it needs no knowledge of the graph size and interleaves node ids
  across banks, which is what an HLS memory partition does.
* ``contiguous`` — unit ``dst // ceil(N / P_edge)`` owns the edge.  Included
  to show why interleaving matters (contiguous assignment performs much worse
  on graphs whose node ordering correlates with degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "BankPartition",
    "partition_by_destination",
    "workload_imbalance",
    "imbalance_table",
]


@dataclass(frozen=True)
class BankPartition:
    """Assignment of every edge (and destination node) to an MP-unit bank."""

    num_banks: int
    policy: str
    edge_to_bank: np.ndarray
    node_to_bank: np.ndarray

    def edges_per_bank(self) -> np.ndarray:
        """Number of edges owned by each bank (the MP workload)."""
        return np.bincount(self.edge_to_bank, minlength=self.num_banks).astype(
            np.int64
        )

    def bank_edge_ids(self, bank: int) -> np.ndarray:
        """Indices (into the COO list) of the edges owned by ``bank``."""
        return np.nonzero(self.edge_to_bank == bank)[0]


def _node_bank_assignment(num_nodes: int, num_banks: int, policy: str) -> np.ndarray:
    nodes = np.arange(num_nodes, dtype=np.int64)
    if policy == "modulo":
        return nodes % num_banks
    if policy == "contiguous":
        bank_size = int(np.ceil(num_nodes / num_banks)) if num_nodes else 1
        return np.minimum(nodes // bank_size, num_banks - 1)
    raise ValueError(f"unknown partition policy {policy!r}")


def partition_by_destination(
    graph: Graph, num_banks: int, policy: str = "modulo"
) -> BankPartition:
    """Assign each edge to the bank owning its destination node."""
    if num_banks < 1:
        raise ValueError("num_banks must be >= 1")
    node_to_bank = _node_bank_assignment(graph.num_nodes, num_banks, policy)
    if graph.num_edges:
        edge_to_bank = node_to_bank[graph.destinations]
    else:
        edge_to_bank = np.zeros(0, dtype=np.int64)
    return BankPartition(
        num_banks=num_banks,
        policy=policy,
        edge_to_bank=edge_to_bank,
        node_to_bank=node_to_bank,
    )


def workload_imbalance(graph: Graph, num_banks: int, policy: str = "modulo") -> float:
    """Workload imbalance as defined in Table VII of the paper.

    Returns ``(max_bank_edges - min_bank_edges) / total_edges``, i.e. the
    largest difference in workloads between any two MP units as a fraction of
    the total workload.  0.0 means perfectly balanced; 1.0 means one unit
    handles everything.
    """
    if graph.num_edges == 0:
        return 0.0
    partition = partition_by_destination(graph, num_banks, policy)
    per_bank = partition.edges_per_bank()
    return float(per_bank.max() - per_bank.min()) / float(graph.num_edges)


def dataset_workload_imbalance(
    graphs: Sequence[Graph], num_banks: int, policy: str = "modulo"
) -> float:
    """Average workload imbalance over a collection of graphs.

    The paper streams thousands of small graphs per dataset; the table entry
    is the mean per-graph imbalance.
    """
    if not graphs:
        return 0.0
    values = [workload_imbalance(g, num_banks, policy) for g in graphs]
    return float(np.mean(values))


def imbalance_table(
    datasets: Dict[str, Sequence[Graph]],
    edge_parallelism_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    policy: str = "modulo",
) -> Dict[int, Dict[str, float]]:
    """Reproduce the structure of Table VII.

    Returns ``{P_edge: {dataset_name: imbalance}}`` with imbalance expressed
    as a fraction (multiply by 100 for the paper's percentage format).
    """
    table: Dict[int, Dict[str, float]] = {}
    for p_edge in edge_parallelism_values:
        row: Dict[str, float] = {}
        for name, graphs in datasets.items():
            row[name] = dataset_workload_imbalance(list(graphs), p_edge, policy)
        table[p_edge] = row
    return table
