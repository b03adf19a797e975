"""Declarative sweep specifications.

A :class:`SweepSpec` describes a design-space sweep without running it: which
models, which datasets, and a grid of :class:`~repro.arch.ArchitectureConfig`
field values.  ``points()`` enumerates the cartesian product as
:class:`SweepPoint` objects in a deterministic order (grid fields vary
fastest-last, exactly like nested for-loops written in grid-key order).

Validation happens eagerly in ``__post_init__`` so a typo'd model name or a
grid over a non-existent config field fails before any simulation starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..api.backends import BACKEND_NAMES
from ..arch.config import ArchitectureConfig
from ..arch.resources import ALVEO_U50, BoardResources
from ..datasets import DATASET_NAMES
from ..nn import MODEL_NAMES

__all__ = ["SweepPoint", "SweepSpec"]

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ArchitectureConfig)}

# Single-graph datasets take a ``scale`` size hint; multi-graph ones take
# ``num_graphs`` (mirrors repro.datasets.load_dataset).
_SINGLE_GRAPH_DATASETS = ("Cora", "CiteSeer", "PubMed", "Reddit")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation of the sweep: a (model, dataset, config) triple."""

    model: str
    dataset: str
    config: ArchitectureConfig

    def describe(self) -> str:
        return f"{self.model} on {self.dataset} under {self.config.describe()}"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one design-space sweep.

    Attributes
    ----------
    models / datasets:
        Names drawn from :data:`repro.nn.MODEL_NAMES` and
        :data:`repro.datasets.DATASET_NAMES`.
    grid:
        Mapping from :class:`ArchitectureConfig` field name to the sequence
        of values to sweep.  Fields not present keep their ``base_config``
        value.  An empty grid sweeps the single ``base_config`` point.
    base_config:
        Configuration the grid overrides are applied to.
    num_graphs:
        Graphs per multi-graph dataset (MolHIV, MolPCBA, HEP).
    scale:
        Node-count scale for single-graph datasets (Cora, ..., Reddit).
    board:
        Target board for the resource-feasibility pre-filter.  ``None``
        disables filtering (every point is simulated, fitting or not).
    backend:
        Inference backend from the :mod:`repro.api` registry.  ``"flowgnn"``
        (the default) sweeps the architecture grid on the cycle simulator;
        any other backend (``"cpu"``, ``"gpu"``, ``"roofline"``) has no
        architecture knobs, so the grid collapses to one evaluation per
        (model, dataset) — this is how a sweep covers baseline platforms.
    """

    models: Tuple[str, ...] = ("GCN",)
    datasets: Tuple[str, ...] = ("MolHIV",)
    grid: Mapping[str, Sequence] = field(default_factory=dict)
    base_config: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    num_graphs: int = 12
    scale: float = 0.3
    board: Optional[BoardResources] = ALVEO_U50
    backend: str = "flowgnn"

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so the spec is an immutable value
        # object (note: the grid dict still makes SweepSpec unhashable).
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        object.__setattr__(
            self, "grid", {key: tuple(values) for key, values in dict(self.grid).items()}
        )
        if not self.models:
            raise ValueError("SweepSpec needs at least one model")
        if not self.datasets:
            raise ValueError("SweepSpec needs at least one dataset")
        _reject_repeats("models", self.models)
        _reject_repeats("datasets", self.datasets)
        for name in self.models:
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown model {name!r}; known: {MODEL_NAMES}")
        for name in self.datasets:
            if name not in DATASET_NAMES:
                raise ValueError(f"unknown dataset {name!r}; known: {DATASET_NAMES}")
        for key, values in self.grid.items():
            if key not in _CONFIG_FIELDS:
                raise ValueError(
                    f"grid key {key!r} is not an ArchitectureConfig field; "
                    f"known fields: {sorted(_CONFIG_FIELDS)}"
                )
            if not values:
                raise ValueError(f"grid for {key!r} is empty")
            _reject_repeats(f"grid for {key!r}", values)
        object.__setattr__(self, "backend", str(self.backend).lower())
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: {BACKEND_NAMES}"
            )
        if self.num_graphs < 1:
            raise ValueError("num_graphs must be >= 1")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        # Construct every config eagerly: ArchitectureConfig.__post_init__
        # rejects invalid knob values, so a bad grid fails here, not mid-sweep.
        for _ in self.configs():
            pass

    # -- enumeration ----------------------------------------------------------
    def configs(self) -> Iterator[ArchitectureConfig]:
        """All configurations of the grid, in deterministic nested-loop order."""
        keys = list(self.grid)
        if not keys:
            yield self.base_config
            return
        for combination in product(*(self.grid[key] for key in keys)):
            yield replace(self.base_config, **dict(zip(keys, combination)))

    def points(self) -> Iterator[SweepPoint]:
        """Every (model, dataset, config) evaluation of the sweep."""
        for model in self.models:
            for dataset in self.datasets:
                for config in self.configs():
                    yield SweepPoint(model=model, dataset=dataset, config=config)

    def num_configs(self) -> int:
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    def num_points(self) -> int:
        return len(self.models) * len(self.datasets) * self.num_configs()

    # -- dataset sizing -------------------------------------------------------
    def dataset_load_kwargs(self, dataset: str) -> Dict:
        """Size hint for :func:`repro.datasets.load_dataset`."""
        if dataset in _SINGLE_GRAPH_DATASETS:
            return {"scale": self.scale}
        return {"num_graphs": self.num_graphs}

    def describe(self) -> str:
        grid = ", ".join(f"{key}={list(values)}" for key, values in self.grid.items())
        if self.backend != "flowgnn":
            return (
                f"SweepSpec(backend={self.backend!r}, models={list(self.models)}, "
                f"datasets={list(self.datasets)}, "
                f"{len(self.models) * len(self.datasets)} points)"
            )
        return (
            f"SweepSpec(models={list(self.models)}, datasets={list(self.datasets)}, "
            f"grid={{{grid}}}, {self.num_points()} points)"
        )

    # -- convenience constructors ---------------------------------------------
    @staticmethod
    def parallelism_grid(
        models: Sequence[str] = ("GCN",),
        datasets: Sequence[str] = ("MolHIV",),
        node_values: Sequence[int] = (1, 2, 4),
        edge_values: Sequence[int] = (1, 2, 4),
        apply_values: Sequence[int] = (1, 2, 4),
        scatter_values: Sequence[int] = (1, 2, 4, 8),
        **overrides,
    ) -> "SweepSpec":
        """The canonical Fig. 10 sweep over the four parallelism knobs.

        Grid order mirrors the paper's presentation (and the historical
        ``run_fig10_dse`` loop nest): P_apply, then P_scatter, then P_node,
        then P_edge varying fastest.
        """
        grid = {
            "apply_parallelism": tuple(apply_values),
            "scatter_parallelism": tuple(scatter_values),
            "num_nt_units": tuple(node_values),
            "num_mp_units": tuple(edge_values),
        }
        return SweepSpec(models=tuple(models), datasets=tuple(datasets), grid=grid, **overrides)


def _reject_repeats(what: str, values: Tuple) -> None:
    """A repeated value would sweep its points twice."""
    repeated = [value for index, value in enumerate(values) if value in values[:index]]
    if repeated:
        raise ValueError(f"{what} repeats {repeated[0]!r}: {list(values)}")


def _config_knobs(config: ArchitectureConfig) -> Dict[str, int]:
    """The four paper knobs of a config, for report rows."""
    return {
        "p_node": config.num_nt_units,
        "p_edge": config.num_mp_units,
        "p_apply": config.apply_parallelism,
        "p_scatter": config.scatter_parallelism,
    }
