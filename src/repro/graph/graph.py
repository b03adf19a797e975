"""Core graph data structure used throughout the FlowGNN reproduction.

The paper streams graphs into the accelerator in *raw edge-list (COO) format*
with zero CPU intervention or preprocessing.  ``Graph`` therefore stores the
edge list exactly as it arrives: a ``(num_edges, 2)`` integer array of
``(source, destination)`` pairs, plus optional dense node and edge feature
matrices.  Nothing converts it to CSR or CSC: the derived views (degree
tables, bank partitions) are computed lazily from the edge list itself, so
that the "no preprocessing" property of the accelerator can be evaluated
honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "GraphValidationError"]


class GraphValidationError(ValueError):
    """Raised when a :class:`Graph` is constructed from inconsistent arrays."""


def _as_int_array(values: Iterable[int], name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 2 or (array.size and array.shape[1] != 2):
        raise GraphValidationError(
            f"{name} must have shape (num_edges, 2); got {array.shape}"
        )
    # Contiguous rows: a transposed ``(2, E)`` input would otherwise keep its
    # strides, and byte-level consumers (the schedule cache's signature) need
    # the row-major layout.  Contiguous inputs pass through uncopied.
    return np.ascontiguousarray(array.reshape(-1, 2))


def _as_feature_matrix(values, rows: int, name: str) -> Optional[np.ndarray]:
    if values is None:
        return None
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise GraphValidationError(f"{name} must be 2-dimensional; got {matrix.ndim}D")
    if matrix.shape[0] != rows:
        raise GraphValidationError(
            f"{name} has {matrix.shape[0]} rows but expected {rows}"
        )
    return matrix


@dataclass(frozen=True)
class Graph:
    """An attributed directed graph in raw COO form.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Node ids are the contiguous integers
        ``0 .. num_nodes - 1``.
    edge_index:
        ``(num_edges, 2)`` array of ``(source, destination)`` pairs.  Multiple
        edges and self loops are permitted (GNN datasets contain both).
    node_features:
        Optional ``(num_nodes, F)`` dense feature matrix.
    edge_features:
        Optional ``(num_edges, D)`` dense edge-feature matrix.  Edge features
        are the capability that distinguishes FlowGNN from SpMM-style
        accelerators, so the class keeps them first-class.
    graph_label:
        Optional scalar or vector label, carried through untouched.
    name:
        Optional identifier, used in experiment reports.
    """

    num_nodes: int
    edge_index: np.ndarray
    node_features: Optional[np.ndarray] = None
    edge_features: Optional[np.ndarray] = None
    graph_label: Optional[np.ndarray] = None
    name: str = ""
    # Values derived from the graph (degrees, the schedule cache's signature,
    # bank layouts and loading cycles).  Not an init field, so
    # ``dataclasses.replace`` starts the copy with an empty cache.
    _degree_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edge_index = _as_int_array(self.edge_index, "edge_index")
        object.__setattr__(self, "edge_index", edge_index)
        if self.num_nodes < 0:
            raise GraphValidationError("num_nodes must be non-negative")
        if edge_index.size:
            low = int(edge_index.min())
            high = int(edge_index.max())
            if low < 0 or high >= self.num_nodes:
                raise GraphValidationError(
                    "edge_index refers to node ids outside "
                    f"[0, {self.num_nodes - 1}]: range [{low}, {high}]"
                )
        node_features = _as_feature_matrix(
            self.node_features, self.num_nodes, "node_features"
        )
        edge_features = _as_feature_matrix(
            self.edge_features, edge_index.shape[0], "edge_features"
        )
        object.__setattr__(self, "node_features", node_features)
        object.__setattr__(self, "edge_features", edge_features)
        if self.graph_label is not None:
            object.__setattr__(
                self, "graph_label", np.atleast_1d(np.asarray(self.graph_label))
            )

    # ------------------------------------------------------------------
    # Basic shape accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.edge_index.shape[0])

    @property
    def node_feature_dim(self) -> int:
        """Width of the node-feature matrix (0 when absent)."""
        if self.node_features is None:
            return 0
        return int(self.node_features.shape[1])

    @property
    def edge_feature_dim(self) -> int:
        """Width of the edge-feature matrix (0 when absent)."""
        if self.edge_features is None:
            return 0
        return int(self.edge_features.shape[1])

    @property
    def has_edge_features(self) -> bool:
        return self.edge_feature_dim > 0

    @property
    def sources(self) -> np.ndarray:
        """Source node id of every edge."""
        return self.edge_index[:, 0]

    @property
    def destinations(self) -> np.ndarray:
        """Destination node id of every edge."""
        return self.edge_index[:, 1]

    # ------------------------------------------------------------------
    # Degree utilities
    # ------------------------------------------------------------------
    def in_degrees(self) -> np.ndarray:
        """In-degree of each node (messages received during gather)."""
        if "in" not in self._degree_cache:
            counts = np.bincount(self.destinations, minlength=self.num_nodes)
            self._degree_cache["in"] = counts.astype(np.int64)
        return self._degree_cache["in"]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of each node (messages sent during scatter)."""
        if "out" not in self._degree_cache:
            counts = np.bincount(self.sources, minlength=self.num_nodes)
            self._degree_cache["out"] = counts.astype(np.int64)
        return self._degree_cache["out"]

    def average_degree(self) -> float:
        """Mean in-degree; equals mean out-degree for any directed graph."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbourhood of ``node`` (destination ids of its edges)."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return self.destinations[self.sources == node]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbourhood of ``node`` (source ids of edges pointing at it)."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return self.sources[self.destinations == node]

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_node_features(self, node_features: np.ndarray) -> "Graph":
        """Return a copy of this graph with replaced node features."""
        return Graph(
            num_nodes=self.num_nodes,
            edge_index=self.edge_index,
            node_features=node_features,
            edge_features=self.edge_features,
            graph_label=self.graph_label,
            name=self.name,
        )

    def with_edge_features(self, edge_features: Optional[np.ndarray]) -> "Graph":
        """Return a copy of this graph with replaced edge features."""
        return Graph(
            num_nodes=self.num_nodes,
            edge_index=self.edge_index,
            node_features=self.node_features,
            edge_features=edge_features,
            graph_label=self.graph_label,
            name=self.name,
        )

    def reversed(self) -> "Graph":
        """Return the graph with every edge direction flipped.

        Used when switching between the NT-to-MP (scatter along out-edges)
        and MP-to-NT (gather along in-edges) dataflows.
        """
        flipped = self.edge_index[:, ::-1].copy()
        return Graph(
            num_nodes=self.num_nodes,
            edge_index=flipped,
            node_features=self.node_features,
            edge_features=self.edge_features,
            graph_label=self.graph_label,
            name=self.name,
        )

    def add_self_loops(self) -> "Graph":
        """Return a copy with one self loop appended for every node.

        GCN-style normalisation uses ``A + I``; the paper's GCN kernel adds
        the identity contribution during aggregation.  Newly added self-loop
        edges receive zero edge features when edge features are present.
        """
        loops = np.arange(self.num_nodes, dtype=np.int64)
        loop_edges = np.stack([loops, loops], axis=1)
        edge_index = np.concatenate([self.edge_index, loop_edges], axis=0)
        edge_features = self.edge_features
        if edge_features is not None:
            pad = np.zeros((self.num_nodes, edge_features.shape[1]))
            edge_features = np.concatenate([edge_features, pad], axis=0)
        return Graph(
            num_nodes=self.num_nodes,
            edge_index=edge_index,
            node_features=self.node_features,
            edge_features=edge_features,
            graph_label=self.graph_label,
            name=self.name,
        )

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph over ``nodes``; node ids are relabelled 0..k-1."""
        nodes = np.asarray(sorted(set(int(n) for n in nodes)), dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise IndexError("subgraph nodes out of range")
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size)
        keep = (remap[self.sources] >= 0) & (remap[self.destinations] >= 0)
        edge_index = np.stack(
            [remap[self.sources[keep]], remap[self.destinations[keep]]], axis=1
        )
        node_features = (
            self.node_features[nodes] if self.node_features is not None else None
        )
        edge_features = (
            self.edge_features[keep] if self.edge_features is not None else None
        )
        return Graph(
            num_nodes=int(nodes.size),
            edge_index=edge_index,
            node_features=node_features,
            edge_features=edge_features,
            name=f"{self.name}/subgraph" if self.name else "subgraph",
        )

    def with_virtual_node(self) -> Tuple["Graph", int]:
        """Append a virtual node connected bidirectionally to every node.

        Returns the augmented graph and the id of the virtual node.  The
        virtual node starts with zero features, and virtual edges carry zero
        edge features, mirroring the paper's VN model.
        """
        vn = self.num_nodes
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        to_vn = np.stack([nodes, np.full_like(nodes, vn)], axis=1)
        from_vn = np.stack([np.full_like(nodes, vn), nodes], axis=1)
        edge_index = np.concatenate([self.edge_index, to_vn, from_vn], axis=0)
        node_features = self.node_features
        if node_features is not None:
            node_features = np.concatenate(
                [node_features, np.zeros((1, node_features.shape[1]))], axis=0
            )
        edge_features = self.edge_features
        if edge_features is not None:
            pad = np.zeros((2 * self.num_nodes, edge_features.shape[1]))
            edge_features = np.concatenate([edge_features, pad], axis=0)
        graph = Graph(
            num_nodes=self.num_nodes + 1,
            edge_index=edge_index,
            node_features=node_features,
            edge_features=edge_features,
            graph_label=self.graph_label,
            name=self.name,
        )
        return graph, vn

    # ------------------------------------------------------------------
    # Descriptive helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary used in logs and experiment reports."""
        return (
            f"Graph(name={self.name or 'unnamed'!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, node_dim={self.node_feature_dim}, "
            f"edge_dim={self.edge_feature_dim})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
