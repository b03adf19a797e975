"""End-to-end cycle-level simulation of a GNN model on the FlowGNN architecture.

``simulate_inference`` walks a model's layer stack over one input graph and
produces a :class:`SimulationResult` containing the total cycle count, a
per-phase breakdown (loading, per-layer compute, readout), and — when
``functional=True`` — the functional output, which is verified in tests to
match the reference library exactly.

The per-layer compute timing comes from :mod:`repro.arch.pipeline`; this
module adds everything around it:

* **graph loading** — streaming the raw COO edge list and node/edge features
  over the host link (counted per graph, per the paper's end-to-end
  definition);
* **weight loading** — streaming all model parameters (counted once per
  stream and amortised, since weights do not change between graphs);
* **virtual-node work** — GIN+VN adds a virtual node connected to every real
  node plus a per-layer-transition MLP on the pooled state;
* **readout** — global pooling and the prediction head.

Everything the cycle model reads from the model is collected in a
:class:`ModelProfile`.  The functions here take either the model, deriving
its profile on each call, or the profile itself: a design-space sweep
simulates one model under many configurations and derives it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph import Graph
from ..nn.models.base import GNNModel, GNNOutput, LayerSpec
from ..nn.models.virtual_node import VirtualNodeModel
from .config import ArchitectureConfig
from .pipeline import LayerTiming, schedule_layer

__all__ = [
    "ModelProfile",
    "SimulationResult",
    "simulate_inference",
    "graph_loading_cycles",
    "weight_loading_cycles",
]

#: ``(in, out)`` widths of a run of dense layers.
LinearShapes = Tuple[Tuple[int, int], ...]


def _linear_shapes(linears) -> LinearShapes:
    return tuple((linear.in_dim, linear.out_dim) for linear in linears)


@dataclass(frozen=True)
class ModelProfile:
    """Everything the cycle and resource models read from a GNN model.

    :func:`simulate_inference`, :func:`weight_loading_cycles` and
    :func:`~repro.arch.estimate_resources` take a model or its profile.
    Deriving a profile walks every layer's spec and every weight matrix, so
    a caller that evaluates one model many times derives it once with
    :meth:`of` and passes it in.  A profile is a snapshot of the model when
    it was taken; nothing is stored on the model.

    Layers with equal specs share one :class:`LayerSpec` object, so a
    schedule-cache hit compares the spec by identity.  What other modules
    derive from the profile alone (the resource model's layer widths) is
    kept in ``_derived``, which, like ``Graph._degree_cache``, is neither an
    init field nor compared.
    """

    name: str
    layer_specs: Tuple[LayerSpec, ...]
    parameter_count: int
    #: The prediction head's dense layers (empty without a head).
    head_linear_shapes: LinearShapes = ()
    #: The virtual-node MLPs' dense layers; ``None`` without a virtual node.
    virtual_node_linear_shapes: Optional[LinearShapes] = None
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, model: Union[GNNModel, "ModelProfile"]) -> "ModelProfile":
        """The profile of ``model`` (a profile is returned as it is)."""
        if isinstance(model, ModelProfile):
            return model
        head_linears = []
        head = getattr(model, "head", None)
        if head is not None:
            mlp = getattr(head, "mlp", None)
            head_linears = mlp.layers if mlp is not None else [head.linear]
        virtual_node = None
        if isinstance(model, VirtualNodeModel):
            virtual_node = _linear_shapes(
                linear for mlp in model.virtual_node_mlps for linear in mlp.layers
            )
        shared: Dict[LayerSpec, LayerSpec] = {}
        return cls(
            name=model.name,
            layer_specs=tuple(shared.setdefault(spec, spec) for spec in model.layer_specs()),
            parameter_count=model.parameter_count(),
            head_linear_shapes=_linear_shapes(head_linears),
            virtual_node_linear_shapes=virtual_node,
        )

    def timing_graph(self, graph: Graph) -> Graph:
        """The structure the MP/NT units schedule when processing ``graph``.

        A virtual-node model processes the graph with one extra node linked
        both ways to every real node.  Scheduling reads only the structure,
        so the returned graph carries no features.
        """
        if self.virtual_node_linear_shapes is None:
            return graph
        structure = Graph(num_nodes=graph.num_nodes, edge_index=graph.edge_index)
        return structure.with_virtual_node()[0]


@dataclass
class SimulationResult:
    """Outcome of simulating one graph through one model on one configuration."""

    model_name: str
    graph_name: str
    config: ArchitectureConfig
    layer_timings: List[LayerTiming]
    loading_cycles: int
    readout_cycles: int
    weight_loading_cycles: int
    functional_output: Optional[GNNOutput] = None

    @property
    def compute_cycles(self) -> int:
        """Cycles spent in the GNN layer stack."""
        return int(sum(t.cycles for t in self.layer_timings))

    @property
    def total_cycles(self) -> int:
        """Per-graph cycles: loading + layers + readout (weights excluded,
        they are amortised over the stream — see ``amortised_cycles``)."""
        return self.loading_cycles + self.compute_cycles + self.readout_cycles

    @property
    def latency_s(self) -> float:
        """Per-graph latency in seconds at the configured clock."""
        return self.config.cycles_to_seconds(self.total_cycles)

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    def amortised_cycles(self, stream_length: int) -> float:
        """Per-graph cycles including the weight load amortised over a stream."""
        if stream_length < 1:
            raise ValueError("stream_length must be >= 1")
        return self.total_cycles + self.weight_loading_cycles / stream_length

    def nt_utilisation(self) -> float:
        """Average NT utilisation over the layer stack."""
        return _mean([t.nt_utilisation for t in self.layer_timings])

    def mp_utilisation(self) -> float:
        """Average MP utilisation over the layer stack."""
        return _mean([t.mp_utilisation for t in self.layer_timings])

    def breakdown(self) -> Dict[str, int]:
        """Cycle breakdown by phase, for reports."""
        return {
            "graph_loading": self.loading_cycles,
            "layers": self.compute_cycles,
            "readout": self.readout_cycles,
            "weight_loading_one_time": self.weight_loading_cycles,
        }


def _mean(values: List[float]) -> float:
    """``float(np.mean(values))`` bit for bit (0.0 when empty), without its
    wrapper: ``np.mean`` is this sum over the count."""
    if not values:
        return 0.0
    return float(np.add.reduce(values)) / len(values)


def graph_loading_cycles(graph: Graph, config: ArchitectureConfig) -> int:
    """Cycles to stream one raw COO graph onto the accelerator.

    Every edge contributes its two endpoint ids plus its edge features; every
    node contributes its input features.  The link moves
    ``loading_elements_per_cycle`` scalar elements per cycle.
    """
    if not config.include_graph_loading:
        return 0
    elements = graph.num_nodes * max(graph.node_feature_dim, 1)
    elements += graph.num_edges * (2 + graph.edge_feature_dim)
    return int(ceil(elements / config.loading_elements_per_cycle))


def weight_loading_cycles(
    model: Union[GNNModel, ModelProfile], config: ArchitectureConfig
) -> int:
    """Cycles to stream all model parameters onto the accelerator (one time)."""
    if not config.include_weight_loading:
        return 0
    parameters = ModelProfile.of(model).parameter_count
    return int(ceil(parameters / config.loading_elements_per_cycle))


def _dense_cycles(shapes: LinearShapes, config: ArchitectureConfig) -> int:
    """NT cycles to read the input and write the output of each dense layer."""
    total = 0
    for in_dim, out_dim in shapes:
        total += ceil(in_dim / config.apply_parallelism)
        total += ceil(out_dim / config.apply_parallelism)
    return int(total)


def _readout_cycles(profile: ModelProfile, graph: Graph, config: ArchitectureConfig) -> int:
    """Cycles for global pooling plus the prediction head.

    Pooling reads every node embedding once (``P_apply`` elements per cycle,
    spread over the NT units); the head is a tiny dense network evaluated
    once per graph on a single unit.
    """
    hidden = profile.layer_specs[-1].out_dim
    pooling = ceil(graph.num_nodes / config.effective_nt_units()) * ceil(
        hidden / config.apply_parallelism
    )
    return int(pooling + _dense_cycles(profile.head_linear_shapes, config))


def simulate_inference(
    model: Union[GNNModel, ModelProfile],
    graph: Graph,
    config: Optional[ArchitectureConfig] = None,
    functional: bool = False,
    schedule_fn: Optional[Callable[..., LayerTiming]] = None,
    timing_graph: Optional[Graph] = None,
) -> SimulationResult:
    """Simulate one graph through ``model`` on the FlowGNN architecture.

    ``model`` is a :class:`GNNModel` or its :class:`ModelProfile`.

    ``functional=True`` additionally runs the model's arithmetic and attaches
    the :class:`GNNOutput` (so it needs the model itself); timing never
    depends on data values, so the flag only affects runtime of the
    simulation itself.

    ``schedule_fn`` replaces :func:`repro.arch.pipeline.schedule_layer` for
    layer scheduling (same ``(graph, spec, config)`` signature).  It exists
    so the design-space engine (:mod:`repro.dse`) can plug in its memoising,
    vectorised scheduler; any substitute must produce bit-identical
    :class:`LayerTiming` values.

    ``timing_graph`` is ``profile.timing_graph(graph)``, for a caller that
    simulates the same graph many times and keeps it.
    """
    config = config or ArchitectureConfig()
    schedule = schedule_fn or schedule_layer
    profile = ModelProfile.of(model)
    if functional and isinstance(model, ModelProfile):
        raise TypeError("functional simulation runs the model: pass the GNNModel, not its profile")

    # Virtual-node models process the graph with one extra, fully-connected
    # node; that is the structure the MP/NT units actually see.
    if timing_graph is None:
        timing_graph = profile.timing_graph(graph)
    layer_timings = [schedule(timing_graph, spec, config) for spec in profile.layer_specs]

    loading = graph_loading_cycles(graph, config)
    weight_loading = weight_loading_cycles(profile, config)
    # The VN MLP runs between layers on an NT unit and serialises with the
    # layer barrier; its cycles are charged to the readout phase (rather than
    # mutating the per-layer LayerTiming objects, which stay immutable for
    # reporting).
    readout = _readout_cycles(profile, graph, config)
    if profile.virtual_node_linear_shapes is not None:
        readout += _dense_cycles(profile.virtual_node_linear_shapes, config)

    functional_output: Optional[GNNOutput] = None
    if functional:
        functional_output = model.forward(graph)

    return SimulationResult(
        model_name=profile.name,
        graph_name=graph.name,
        config=config,
        layer_timings=layer_timings,
        loading_cycles=loading,
        readout_cycles=readout,
        weight_loading_cycles=weight_loading,
        functional_output=functional_output,
    )
