"""Base classes shared by every GNN model.

A :class:`GNNModel` is a stack of :class:`GNNLayer` objects plus an input
encoder, a pooling function and a prediction head.  Each layer exposes two
faces:

* a **functional** face (``message`` / ``aggregate`` / ``update`` /
  ``forward``) used by the reference library and by the simulator's
  functional mode, and
* a **structural** face (:class:`LayerSpec`) that describes the work an NT
  unit and an MP unit must perform per node / per edge — linear-layer shapes,
  message width, aggregation kind, preferred dataflow direction — which is
  what the cycle-level simulator and the resource/energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...graph import Graph
from ..layers import Linear
from ..pooling import POOLING

__all__ = ["LayerSpec", "GNNLayer", "GNNOutput", "GNNModel"]


@dataclass(frozen=True)
class LayerSpec:
    """Structural description of one GNN layer for the cycle/resource models.

    Attributes
    ----------
    in_dim / out_dim:
        Node-embedding width entering and leaving the layer.
    nt_linear_shapes:
        ``(in, out)`` of every dense layer the NT unit evaluates per node,
        in order.  An MLP contributes one tuple per linear layer.
    message_dim:
        Width of each per-edge message produced by ``phi``.
    aggregated_dim:
        Width of the aggregated message entering the node transformation
        (PNA multiplies this up by aggregators x scalers).
    aggregation:
        Name of the aggregation kind: ``sum``, ``mean``, ``max``, ``min``,
        ``std``, ``pna``, ``directional`` or ``attention``.
    uses_edge_features:
        Whether ``phi`` reads a per-edge feature/embedding vector.
    edge_ops_per_element:
        Extra scalar operations per message element in the MP unit beyond
        the plain pass-through (e.g. add edge embedding, multiply by
        attention coefficient).
    dataflow:
        ``"nt_to_mp"`` (transform then scatter, the default) or
        ``"mp_to_nt"`` (gather then transform — used by GAT).
    attention_heads:
        Number of attention heads (0 when the layer has no attention).
    """

    in_dim: int
    out_dim: int
    nt_linear_shapes: Tuple[Tuple[int, int], ...]
    message_dim: int
    aggregated_dim: int
    aggregation: str
    uses_edge_features: bool = False
    edge_ops_per_element: int = 1
    dataflow: str = "nt_to_mp"
    attention_heads: int = 0

    _hash = None  # not a field: set on the first hash

    def __hash__(self) -> int:
        # The generated hash rehashes all ten fields per call, and every
        # schedule-cache lookup hashes a spec: the same value, taken once.
        if self._hash is None:
            fields_hash = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", fields_hash)
        return self._hash

    def __getstate__(self) -> dict:
        # A str hashes differently in another process, so a copy or an
        # unpickled spec takes its own hash, and derives its own scheduler
        # constants (repro.dse.fastpath.layer_plan keeps them here).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_plan_constants", None)
        return state

    def nt_macs_per_node(self) -> int:
        """Multiply-accumulate operations per node in the NT unit."""
        return int(sum(i * o for i, o in self.nt_linear_shapes))

    def mp_ops_per_edge(self) -> int:
        """Scalar operations per edge in the MP unit."""
        return int(self.message_dim * self.edge_ops_per_element)


class GNNLayer:
    """Functional interface of one message-passing layer.

    Subclasses implement ``forward`` (and usually ``message``/``update``),
    and ``spec`` returning the structural description.  The default
    ``forward`` composes message → aggregate → update using the sum
    aggregator; models with richer aggregation override it.
    """

    def spec(self) -> LayerSpec:
        raise NotImplementedError

    # -- functional pieces --------------------------------------------------
    def message(
        self,
        x_src: np.ndarray,
        x_dst: np.ndarray,
        edge_features: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-edge message phi; default passes the source embedding through."""
        return x_src

    def aggregate(
        self,
        messages: np.ndarray,
        destinations: np.ndarray,
        sources: np.ndarray,
        num_nodes: int,
        graph: Graph,
    ) -> np.ndarray:
        """Aggregate per-edge messages into per-node vectors (default: sum)."""
        out = np.zeros((num_nodes, messages.shape[1]))
        np.add.at(out, destinations, messages)
        return out

    def update(self, x: np.ndarray, aggregated: np.ndarray) -> np.ndarray:
        """Node transformation gamma; default returns the aggregate."""
        return aggregated

    def forward(self, graph: Graph, x: np.ndarray) -> np.ndarray:
        """Full layer: materialise messages, aggregate, update."""
        if graph.num_edges:
            x_src = x[graph.sources]
            x_dst = x[graph.destinations]
            messages = self.message(x_src, x_dst, self.edge_inputs(graph))
            aggregated = self.aggregate(
                messages, graph.destinations, graph.sources, graph.num_nodes, graph
            )
        else:
            aggregated = np.zeros((graph.num_nodes, self.spec().message_dim))
        return self.update(x, aggregated)

    def edge_inputs(self, graph: Graph) -> Optional[np.ndarray]:
        """Edge-feature matrix the layer consumes (None when unused)."""
        if self.spec().uses_edge_features:
            return graph.edge_features
        return None

    def parameter_count(self) -> int:
        """Scalar parameter count; overridden by layers holding weights."""
        return 0


@dataclass
class GNNOutput:
    """Result of a full-model forward pass."""

    node_embeddings: np.ndarray
    graph_output: Optional[np.ndarray] = None
    pooled: Optional[np.ndarray] = None


class GNNModel:
    """A complete GNN: input encoder, layer stack, pooling, prediction head."""

    def __init__(
        self,
        name: str,
        input_encoder: Optional[Linear],
        layers: Sequence[GNNLayer],
        head=None,
        pooling: str = "mean",
        edge_encoders: Optional[Sequence[Optional[Linear]]] = None,
    ) -> None:
        if not layers:
            raise ValueError("a GNN model needs at least one layer")
        if pooling not in POOLING:
            raise ValueError(f"unknown pooling {pooling!r}; known: {sorted(POOLING)}")
        self.name = name
        self.input_encoder = input_encoder
        self.layers: List[GNNLayer] = list(layers)
        self.head = head
        self.pooling = pooling
        # One optional edge encoder per layer (raw edge features -> layer dim).
        if edge_encoders is None:
            edge_encoders = [None] * len(self.layers)
        if len(edge_encoders) != len(self.layers):
            raise ValueError("need exactly one edge encoder slot per layer")
        self.edge_encoders: List[Optional[Linear]] = list(edge_encoders)

    # -- structure -----------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.layers[0].spec().out_dim

    def layer_specs(self) -> List[LayerSpec]:
        return [layer.spec() for layer in self.layers]

    def uses_edge_features(self) -> bool:
        return any(spec.uses_edge_features for spec in self.layer_specs())

    def parameter_count(self) -> int:
        """Total scalar parameters (weights the accelerator must load)."""
        count = sum(layer.parameter_count() for layer in self.layers)
        if self.input_encoder is not None:
            count += self.input_encoder.parameter_count()
        for encoder in self.edge_encoders:
            if encoder is not None:
                count += encoder.parameter_count()
        if self.head is not None and hasattr(self.head, "parameter_count"):
            count += self.head.parameter_count()
        return count

    # -- hooks used by variants (virtual node) --------------------------------
    def prepare_graph(self, graph: Graph) -> Graph:
        """Transform the raw input graph before inference (default: identity)."""
        return graph

    def pre_layer(self, index: int, graph: Graph, x: np.ndarray) -> np.ndarray:
        """Hook before layer ``index`` (virtual-node models inject state here)."""
        return x

    def post_layer(self, index: int, graph: Graph, x: np.ndarray) -> np.ndarray:
        """Hook after layer ``index``."""
        return x

    # -- inference ------------------------------------------------------------
    def encode_inputs(self, graph: Graph) -> np.ndarray:
        """Map raw node features into the hidden dimension."""
        if graph.node_features is None:
            raise ValueError(f"{self.name} requires node features on the input graph")
        if self.input_encoder is None:
            return np.asarray(graph.node_features, dtype=np.float64)
        return self.input_encoder(graph.node_features)

    def encode_edges(self, index: int, graph: Graph) -> Optional[np.ndarray]:
        """Map raw edge features into layer ``index``'s edge-embedding space."""
        encoder = self.edge_encoders[index]
        if encoder is None or graph.edge_features is None:
            return graph.edge_features
        return encoder(graph.edge_features)

    def node_embeddings(self, graph: Graph) -> np.ndarray:
        """Run the layer stack and return final per-node embeddings."""
        graph = self.prepare_graph(graph)
        x = self.encode_inputs(graph)
        for index, layer in enumerate(self.layers):
            x = self.pre_layer(index, graph, x)
            layer_graph = graph.with_edge_features(self.encode_edges(index, graph))
            x = layer.forward(layer_graph, x)
            x = self.post_layer(index, graph, x)
        return x

    def forward(self, graph: Graph) -> GNNOutput:
        """Full inference: node embeddings, pooled readout and head output."""
        prepared = self.prepare_graph(graph)
        x = self.encode_inputs(prepared)
        for index, layer in enumerate(self.layers):
            x = self.pre_layer(index, prepared, x)
            layer_graph = prepared.with_edge_features(self.encode_edges(index, prepared))
            x = layer.forward(layer_graph, x)
            x = self.post_layer(index, prepared, x)

        pooled = POOLING[self.pooling](x[: graph.num_nodes])
        graph_output = self.head(pooled) if self.head is not None else None
        return GNNOutput(node_embeddings=x, graph_output=graph_output, pooled=pooled)

    def __call__(self, graph: Graph) -> GNNOutput:
        return self.forward(graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GNNModel(name={self.name!r}, layers={self.num_layers}, "
            f"hidden_dim={self.hidden_dim})"
        )
