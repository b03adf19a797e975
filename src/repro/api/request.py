"""``InferenceRequest``: the declarative input of every backend.

A request names *what* to run — a model (registry name or built instance), a
workload (dataset name, :class:`~repro.datasets.GraphDataset` or any iterable
of :class:`~repro.graph.Graph`), an architecture configuration (full
:class:`~repro.arch.ArchitectureConfig`, a parallelism dict, or ``None`` for
the paper's deployment) and the run parameters (batch size, arrival
interval, deadline, functional flag) — without saying anything about *which*
platform executes it.  Validation is eager: a typo'd model/dataset name or a
bad knob fails at construction time, before any backend runs.

Name resolution happens once, in :meth:`InferenceRequest.resolve`, through
the same registries the rest of the repo uses (:func:`repro.nn.build_model`,
:func:`repro.datasets.load_dataset`), so a request means the same thing to
every backend.  :func:`resolve_all` resolves a group of requests so that
requests naming the same registry entries share one model and one graph
list.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Iterable, List, Mapping, Optional, Tuple, Union

from ..arch.config import ArchitectureConfig
from ..datasets import DATASET_NAMES, load_dataset
from ..datasets.base import GraphDataset
from ..graph import Graph, GraphStream
from ..nn import build_model
from ..nn.model_zoo import canonical_model_name
from ..nn.models.base import GNNModel

__all__ = ["InferenceRequest", "ResolvedRequest", "PARALLELISM_ALIASES", "resolve_all"]

# Short knob names accepted in a config dict, mapped to ArchitectureConfig
# fields (the four paper knobs; full field names are accepted too).
PARALLELISM_ALIASES = {
    "p_node": "num_nt_units",
    "p_edge": "num_mp_units",
    "p_apply": "apply_parallelism",
    "p_scatter": "scatter_parallelism",
}

_CONFIG_FIELD_NAMES = {f.name for f in ArchitectureConfig.__dataclass_fields__.values()}

_DATASET_KEYS = {name.lower(): name for name in DATASET_NAMES}


@dataclass
class ResolvedRequest:
    """A request after name resolution: concrete model, graphs and config."""

    model: GNNModel
    graphs: List[Graph]
    config: ArchitectureConfig
    model_name: str
    dataset_name: str
    request: "InferenceRequest"

    def stream(self) -> GraphStream:
        """The request's workload as a :class:`GraphStream`.

        With no ``arrival_interval_s`` on the request every graph arrives at
        t=0 (a burst) — exactly what ``Backend.run_stream`` simulates when
        the request carries no arrival rate.
        """
        return GraphStream(
            graphs=self.graphs,
            arrival_interval_s=self.request.arrival_interval_s,
            name=self.dataset_name,
        )


@dataclass
class InferenceRequest:
    """Declarative description of one inference run.

    Parameters
    ----------
    model:
        A model-zoo name (``"GIN"``, ``"gat"``, ...) or a built
        :class:`GNNModel` instance.
    dataset:
        A dataset-registry name (``"MolHIV"``, ...), a
        :class:`GraphDataset`, or any iterable of :class:`Graph` objects.
    config:
        ``None`` (paper deployment), an :class:`ArchitectureConfig`, or a
        mapping of knob overrides using either the short paper names
        (``p_node``/``p_edge``/``p_apply``/``p_scatter``) or full
        ``ArchitectureConfig`` field names.  Platform backends ignore the
        hardware knobs but the config still travels with the report.
    batch_size:
        Mini-batch size for platforms that batch (CPU/GPU/roofline models);
        FlowGNN is a batch-1 streaming architecture and ignores it.
    num_graphs / scale / seed:
        Sizing hints forwarded to :func:`repro.datasets.load_dataset` when
        ``dataset`` is a name (ignored otherwise).
    arrival_interval_s:
        When set, backends simulate a fixed-rate arrival process and attach
        queueing/deadline statistics to the report.
    deadline_s:
        Per-graph deadline checked against end-to-end latency.
    functional:
        Ask the backend to also produce functional outputs where supported
        (FlowGNN attaches its reference-exact :class:`GNNOutput` list).
    """

    model: Union[str, GNNModel]
    dataset: Union[str, GraphDataset, Iterable[Graph]]
    config: Union[ArchitectureConfig, Mapping, None] = None
    batch_size: int = 1
    num_graphs: Optional[int] = None
    scale: Optional[float] = None
    seed: Optional[int] = None
    arrival_interval_s: Optional[float] = None
    deadline_s: Optional[float] = None
    functional: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.model, str):
            try:
                self.model = canonical_model_name(self.model)
            except KeyError as error:
                raise ValueError(str(error)) from None
        elif not isinstance(self.model, GNNModel):
            raise ValueError(
                f"model must be a model name or a GNNModel; got {type(self.model).__name__}"
            )
        if isinstance(self.dataset, str):
            if self.dataset.lower() not in _DATASET_KEYS:
                raise ValueError(
                    f"unknown dataset {self.dataset!r}; known: {DATASET_NAMES}"
                )
            self.dataset = _DATASET_KEYS[self.dataset.lower()]
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_graphs is not None and self.num_graphs < 1:
            raise ValueError("num_graphs must be >= 1")
        if self.scale is not None and not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.arrival_interval_s is not None and self.arrival_interval_s < 0:
            raise ValueError("arrival_interval_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.config = self._normalise_config(self.config)

    @staticmethod
    def _normalise_config(
        config: Union[ArchitectureConfig, Mapping, None],
    ) -> ArchitectureConfig:
        if config is None:
            return ArchitectureConfig()
        if isinstance(config, ArchitectureConfig):
            return config
        if isinstance(config, Mapping):
            fields = {}
            for key, value in config.items():
                name = PARALLELISM_ALIASES.get(key, key)
                if name not in _CONFIG_FIELD_NAMES:
                    raise ValueError(
                        f"unknown config knob {key!r}; known: "
                        f"{sorted(PARALLELISM_ALIASES) + sorted(_CONFIG_FIELD_NAMES)}"
                    )
                fields[name] = value
            return ArchitectureConfig(**fields)
        raise ValueError(
            f"config must be None, an ArchitectureConfig or a mapping; "
            f"got {type(config).__name__}"
        )

    # -- identity -------------------------------------------------------------
    def signature(self) -> tuple:
        """A stable, hashable, cross-process identity for measurement caching.

        Covers everything a ``Backend.measure`` profile depends on: the model
        and dataset *names*, the dataset sizing hints, the normalised
        architecture config and the batch size.  Requests built around model
        or dataset instances have no process-independent identity and raise
        ``ValueError`` — callers fall back to measuring locally.
        """
        if not isinstance(self.model, str):
            raise ValueError("signature requires a registry model name, not an instance")
        if not isinstance(self.dataset, str):
            raise ValueError("signature requires a registry dataset name, not an instance")
        return (
            self.model,
            self.dataset,
            self.num_graphs,
            self.scale,
            self.seed,
            astuple(self.config),
            self.batch_size,
            self.functional,  # functional runs carry outputs in the profile
        )

    # -- resolution -----------------------------------------------------------
    def resolve(self) -> ResolvedRequest:
        """Resolve names to concrete objects (loads the dataset, builds the model).

        Resolution is memoised: running the same request on several backends
        (``--compare-baselines``, the contract tests) shares one model and one
        graph list — the dataset is generated and the model built once.  The
        memo holds those parts, not the :class:`ResolvedRequest`, which points
        back at the request: without that cycle, a dropped request frees its
        graphs and model at once instead of at the next full garbage
        collection.  Mutating a request's fields after the first ``resolve``
        is not supported.  :func:`resolve_all` fills the same memo for a
        group of requests, sharing the parts of requests with equal registry
        keys.
        """
        model, graphs, dataset_name = self._parts()
        return ResolvedRequest(
            model=model,
            graphs=graphs,
            config=self.config,
            model_name=model.name,
            dataset_name=dataset_name,
            request=self,
        )

    def _parts(self) -> Tuple[GNNModel, List[Graph], str]:
        """The memoised ``(model, graphs, dataset name)`` of this request."""
        parts = self.__dict__.get("_resolved")
        if parts is None:
            parts = self.__dict__["_resolved"] = self._resolve()
        return parts

    def _registry_key(self) -> Optional[tuple]:
        """Everything resolution reads, or ``None`` when the request names a
        model or dataset instance (it then resolves on its own)."""
        if isinstance(self.model, str) and isinstance(self.dataset, str):
            return (self.model, self.dataset, self.num_graphs, self.scale, self.seed)
        return None

    def _resolve(self) -> Tuple[GNNModel, List[Graph], str]:
        graphs, dataset_name, node_dim, edge_dim = self._resolve_graphs()
        if isinstance(self.model, GNNModel):
            model = self.model
        else:
            if node_dim is None:
                raise ValueError(
                    "cannot infer feature dimensions from an empty graph list; "
                    "pass a built model instance instead of a name"
                )
            model = build_model(
                self.model,
                input_dim=node_dim,
                edge_input_dim=edge_dim,
                seed=self.seed if self.seed is not None else 0,
            )
        return model, graphs, dataset_name

    def _resolve_graphs(self):
        if isinstance(self.dataset, str):
            dataset = load_dataset(
                self.dataset, num_graphs=self.num_graphs, scale=self.scale, seed=self.seed
            )
            return list(dataset), dataset.name, dataset.node_feature_dim, dataset.edge_feature_dim
        if isinstance(self.dataset, GraphDataset):
            dataset = self.dataset
            return list(dataset), dataset.name, dataset.node_feature_dim, dataset.edge_feature_dim
        graphs = list(self.dataset)
        for graph in graphs:
            if not isinstance(graph, Graph):
                raise ValueError(
                    f"dataset iterable must contain Graph objects; got {type(graph).__name__}"
                )
        if graphs:
            name = graphs[0].name or "graphs"
            return (
                graphs,
                name if len(graphs) == 1 else "graphs",
                graphs[0].node_feature_dim,
                graphs[0].edge_feature_dim,
            )
        return graphs, "graphs", None, None

    def describe(self) -> str:
        model = self.model if isinstance(self.model, str) else self.model.name
        dataset = self.dataset if isinstance(self.dataset, str) else getattr(self.dataset, "name", "graphs")
        return (
            f"InferenceRequest(model={model!r}, dataset={dataset!r}, "
            f"bs={self.batch_size}, config={self.config.describe()})"
        )


def resolve_all(requests: Iterable[InferenceRequest]) -> None:
    """Resolve ``requests``, once per distinct registry key.

    Requests naming the same registry model and dataset with equal
    ``num_graphs``, ``scale`` and ``seed`` end up sharing one built model and
    one graph list in their :meth:`~InferenceRequest.resolve` memos: the
    dataset is generated and the model built once per key.  Both are seeded,
    so a shared copy equals the one each request would build on its own.

    A request that is already resolved keeps its parts and lends them to the
    unresolved requests with its key; a request naming a model or dataset
    instance resolves on its own.  Nothing outside the requests holds the
    shared parts, so they are freed with the last request that holds them.
    """
    requests = list(requests)
    shared: dict = {}
    for request in requests:
        key = request._registry_key()
        if key is not None and "_resolved" in request.__dict__:
            shared.setdefault(key, request.__dict__["_resolved"])
    for request in requests:
        key = request._registry_key()
        if key in shared:
            request.__dict__.setdefault("_resolved", shared[key])
            continue
        parts = request._parts()
        if key is not None:
            shared[key] = parts
