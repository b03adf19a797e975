"""Graph substrate: the COO graph, generators, partitioning and streams."""

from .graph import Graph, GraphValidationError
from .generators import (
    erdos_renyi_graph,
    barabasi_albert_graph,
    powerlaw_cluster_graph,
    knn_point_cloud_graph,
    molecule_like_graph,
    random_features,
)
from .partition import (
    BankPartition,
    partition_by_destination,
    workload_imbalance,
    imbalance_table,
)
from .streaming import (
    GraphStream,
    StreamStatistics,
    queue_depths_at_arrivals,
    simulate_stream_consumption,
)

__all__ = [
    "Graph",
    "GraphValidationError",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "powerlaw_cluster_graph",
    "knn_point_cloud_graph",
    "molecule_like_graph",
    "random_features",
    "BankPartition",
    "partition_by_destination",
    "workload_imbalance",
    "imbalance_table",
    "GraphStream",
    "StreamStatistics",
    "queue_depths_at_arrivals",
    "simulate_stream_consumption",
]
