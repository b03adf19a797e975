"""``Workload``: the per-tenant specification of a serving scenario.

A workload describes one tenant's traffic: which model and dataset it runs
(the dataset acting as the pool of request payloads), how urgent each request
is (relative deadline, priority) and how much of the cluster's traffic the
tenant accounts for (``share``).  Validation is eager and reuses
:class:`~repro.api.InferenceRequest` wholesale — a typo'd model name or a bad
knob fails when the workload is constructed, before any simulation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from ..arch.config import ArchitectureConfig
from ..datasets.base import GraphDataset
from ..graph import Graph
from ..nn.models.base import GNNModel
from ..api import InferenceRequest

__all__ = ["Workload", "TENANT_CLASSES"]

#: Recognised tenant classes (carbon-aware admission may hold deferrable work).
TENANT_CLASSES = ("realtime", "deferrable")


@dataclass
class Workload:
    """One tenant's request stream, declaratively.

    Parameters
    ----------
    tenant:
        Unique tenant name (the key of every per-tenant report entry).
    model / dataset / config / num_graphs / seed / batch_size:
        Forwarded verbatim to :class:`~repro.api.InferenceRequest`; the
        dataset's graphs form the tenant's request pool — request ``i``
        carries graph ``i mod num_graphs``.
    deadline_s:
        Relative per-request deadline, measured from arrival to completion
        (queueing and batching delay count).  ``None`` means best-effort.
    priority:
        Tie-breaker for SLO-aware dispatch (higher is more urgent).
    share:
        Relative traffic share, used by the :class:`~repro.serve.LoadGenerator`
        conveniences that split a cluster-wide request rate across tenants.
    tenant_class:
        ``"realtime"`` (default) or ``"deferrable"``.  Carbon-aware admission
        (``carbon_waiting``) may hold deferrable requests for cleaner grid
        windows, releasing them before their deadlines; real-time tenants are
        never held.
    """

    tenant: str
    model: Union[str, GNNModel] = "GIN"
    dataset: Union[str, GraphDataset, Iterable[Graph]] = "MolHIV"
    config: Union[ArchitectureConfig, Mapping, None] = None
    num_graphs: Optional[int] = None
    seed: Optional[int] = None
    batch_size: int = 1
    deadline_s: Optional[float] = None
    priority: int = 0
    share: float = 1.0
    tenant_class: str = "realtime"
    request: InferenceRequest = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        if not isinstance(self.priority, int):
            raise ValueError("priority must be an int")
        if not self.share > 0:
            raise ValueError("share must be positive")
        if self.deadline_s is not None and not 0 < self.deadline_s < math.inf:
            raise ValueError("deadline_s must be finite and positive")
        if self.tenant_class not in TENANT_CLASSES:
            raise ValueError(
                f"tenant_class must be one of {TENANT_CLASSES}, "
                f"got {self.tenant_class!r}"
            )
        # Eager validation of model/dataset/config/batch size happens here.
        self.request = InferenceRequest(
            model=self.model,
            dataset=self.dataset,
            config=self.config,
            batch_size=self.batch_size,
            num_graphs=self.num_graphs,
            seed=self.seed,
            deadline_s=self.deadline_s,
        )

    @classmethod
    def from_request(
        cls,
        tenant: str,
        request: InferenceRequest,
        priority: int = 0,
        share: float = 1.0,
        tenant_class: str = "realtime",
    ) -> "Workload":
        """Wrap an existing request as a tenant workload.

        The request object itself is kept (not copied), so its memoised
        resolution is shared — a workload built from a request a backend
        already ran sees the exact same graphs and model instance.
        """
        workload = cls(
            tenant=tenant,
            model=request.model,
            dataset=request.dataset,
            config=request.config,
            num_graphs=request.num_graphs,
            seed=request.seed,
            batch_size=request.batch_size,
            deadline_s=request.deadline_s,
            priority=priority,
            share=share,
            tenant_class=tenant_class,
        )
        workload.request = request
        return workload

    @property
    def num_pool_graphs(self) -> int:
        """Number of distinct graphs in the tenant's request pool."""
        return len(self.request.resolve().graphs)

    def describe(self) -> str:
        deadline = (
            f"{self.deadline_s * 1e6:.0f}us" if self.deadline_s is not None else "none"
        )
        tenant_class = (
            f", class={self.tenant_class}" if self.tenant_class != "realtime" else ""
        )
        return (
            f"Workload(tenant={self.tenant!r}, {self.request.describe()}, "
            f"deadline={deadline}, priority={self.priority}, "
            f"share={self.share}{tenant_class})"
        )
